package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// A Package is one typechecked target of the suite: parsed syntax (non-test
// files, exactly the sources that shape simulator output), type information
// resolved against compiler export data, and the package-scope determinism
// marker state.
type Package struct {
	PkgPath   string
	Dir       string
	Fset      *token.FileSet
	Syntax    []*ast.File
	Types     *types.Package
	TypesInfo *types.Info

	// Deterministic is true when any file carries the
	// `ringcast:deterministic` directive (package-scoped marker).
	Deterministic bool
}

// listedPackage is the subset of `go list -json` output the loader consumes.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Module     *struct{ Path string }
}

// Load resolves patterns (e.g. "./...") against the module rooted at dir,
// compiles export data for every dependency via `go list -deps -export`, and
// parses + typechecks each in-module package from source, in dependency
// order, against the packages already checked — so all targets share one
// type universe and interprocedural analyses can follow
// objects across package boundaries. Only in-module packages come back as
// analysis targets; out-of-module dependencies (the standard library) are
// imported from export data, so loading needs no network and no third-party
// tooling — just the Go toolchain that built the tree. The returned slice is
// sorted by import path regardless of the typechecking order.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, exports, err := listExports(dir, patterns)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(dir)
	if err != nil {
		return nil, err
	}

	// `go list -deps` streams dependencies before dependents, so keeping
	// encounter order gives a valid typechecking order for free.
	var targets []listedPackage
	for _, p := range listed {
		if p.Module != nil && p.Module.Path == modPath {
			targets = append(targets, p)
		}
	}

	// In-module imports are served from source, everything else (the
	// standard library) from export data. That puts every package in ONE
	// type universe: the *types.Func a caller resolves for `wire.Marshal` IS
	// the object the wire package's own Syntax defines, so the call graph,
	// the facts tables and `types.Implements` checks work across package
	// boundaries on plain object identity.
	fset := token.NewFileSet()
	fallback := exportImporter(fset, exports)
	srcs := make(map[string]*types.Package, len(targets))
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p := srcs[path]; p != nil {
			return p, nil
		}
		return fallback.Import(path)
	})

	var pkgs []*Package
	for _, t := range targets {
		var files []*ast.File
		for _, name := range t.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(t.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		pkg, info, err := check(t.ImportPath, fset, files, imp)
		if err != nil {
			return nil, fmt.Errorf("typecheck %s: %w", t.ImportPath, err)
		}
		srcs[t.ImportPath] = pkg
		pkgs = append(pkgs, &Package{
			PkgPath:       t.ImportPath,
			Dir:           t.Dir,
			Fset:          fset,
			Syntax:        files,
			Types:         pkg,
			TypesInfo:     info,
			Deterministic: hasDeterministicMarker(files),
		})
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].PkgPath < pkgs[j].PkgPath })
	return pkgs, nil
}

// LoadFixtureTree loads an analysistest-style fixture outside the module
// build. A directory with .go files directly in it is one package, imported
// as base(dir) (e.g. testdata/src/detrand). Otherwise each immediate
// subdirectory is one package, cross-importing the others under the import
// path "<base(dir)>/<subdir>" (e.g. files under testdata/src/lockorder/outer
// import "lockorder/inner"). All packages share one FileSet and one type
// universe — sibling imports resolve to the source-typechecked sibling,
// exactly as Load does for the real module — so the call graph and facts
// layer behave identically on fixtures and on the tree. Imports outside the
// tree are restricted to the standard library.
func LoadFixtureTree(dir string) ([]*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	base := filepath.Base(dir)
	pkgDirs := map[string]string{} // import path -> directory
	for _, e := range entries {
		if e.IsDir() {
			pkgDirs[base+"/"+e.Name()] = filepath.Join(dir, e.Name())
		} else if filepath.Ext(e.Name()) == ".go" {
			pkgDirs = map[string]string{base: dir}
			break
		}
	}

	// Parse every package first so the stdlib import closure is known before
	// any typechecking starts.
	fset := token.NewFileSet()
	syntax := map[string][]*ast.File{} // import path -> files
	stdImports := map[string]bool{}
	var paths []string
	for path := range pkgDirs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		files, err := os.ReadDir(pkgDirs[path])
		if err != nil {
			return nil, err
		}
		for _, e := range files {
			if e.IsDir() || filepath.Ext(e.Name()) != ".go" {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(pkgDirs[path], e.Name()), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			syntax[path] = append(syntax[path], f)
			for _, spec := range f.Imports {
				if p := importPathOf(spec); pkgDirs[p] == "" {
					stdImports[p] = true
				}
			}
		}
	}
	if len(syntax) == 0 {
		return nil, fmt.Errorf("%s: no fixture packages", dir)
	}

	exports, err := stdExports(dir, stdImports)
	if err != nil {
		return nil, err
	}
	fallback := exportImporter(fset, exports)

	// Typecheck on demand, recursing into sibling imports first (memoized),
	// so declaration order in the tree never matters.
	checked := map[string]*Package{}
	var build func(path string) (*Package, error)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if pkgDirs[path] == "" {
			return fallback.Import(path)
		}
		p, err := build(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	})
	build = func(path string) (*Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		files, ok := syntax[path]
		if !ok {
			return nil, fmt.Errorf("fixture package %q not found under %s", path, dir)
		}
		pkg, info, err := check(path, fset, files, imp)
		if err != nil {
			return nil, fmt.Errorf("typecheck fixture %s: %w", path, err)
		}
		p := &Package{
			PkgPath:       path,
			Dir:           pkgDirs[path],
			Fset:          fset,
			Syntax:        files,
			Types:         pkg,
			TypesInfo:     info,
			Deterministic: hasDeterministicMarker(files),
		}
		checked[path] = p
		return p, nil
	}

	var pkgs []*Package
	for _, path := range paths {
		if syntax[path] == nil {
			continue
		}
		p, err := build(path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportImporter imports packages from the compiler export data files in
// exports, keyed by import path.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q (only the standard library and the loaded packages can be imported)", path)
		}
		return os.Open(f)
	})
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

// Import implements types.Importer.
func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// stdExports resolves export-data files for a set of standard-library import
// paths.
func stdExports(dir string, imported map[string]bool) (map[string]string, error) {
	if len(imported) == 0 {
		return map[string]string{}, nil
	}
	var paths []string
	for path := range imported {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	_, exports, err := listExports(dir, paths)
	return exports, err
}

// listExports runs `go list -deps -export` over patterns in dir, compiling
// export data for every package it lists, and returns the packages in the
// order listed plus their export-data files by import path.
func listExports(dir string, patterns []string) ([]listedPackage, map[string]string, error) {
	cmd := exec.Command("go", append([]string{"list", "-deps", "-export",
		"-json=ImportPath,Dir,Export,GoFiles,Module"}, patterns...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.Bytes())
	}
	var listed []listedPackage
	exports := map[string]string{}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			return listed, exports, nil
		} else if err != nil {
			return nil, nil, fmt.Errorf("go list output: %w", err)
		}
		listed = append(listed, p)
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
}

// check typechecks one package's files with a fully populated types.Info.
func check(path string, fset *token.FileSet, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, nil, err
	}
	return pkg, info, nil
}

// modulePath reads the module path from `go list -m` so Load can tell
// in-module analysis targets apart from dependencies.
func modulePath(dir string) (string, error) {
	cmd := exec.Command("go", "list", "-m")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go list -m: %w", err)
	}
	return string(bytes.TrimSpace(out)), nil
}

// importPathOf unquotes an import spec path.
func importPathOf(spec *ast.ImportSpec) string {
	s := spec.Path.Value
	return s[1 : len(s)-1]
}
