package lint

import (
	"bufio"
	"fmt"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// allocBudgetName identifies the allocation-budget gate in diagnostics and
// `//lint:allocbudget` waivers, alongside the analyzers' Name fields.
const allocBudgetName = "allocbudget"

// allocBudgetDoc describes the gate for -help output.
const allocBudgetDoc = "ringcast:hotpath functions must not gain heap escapes (compiler -gcflags=-m) past the checked-in allocs.baseline; refresh a deliberate change with -update-baseline"

// escapeLineRe matches one compiler escape diagnostic:
// "file.go:line:col: x escapes to heap" / "moved to heap: x".
var escapeLineRe = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): .*(?:escapes to heap|moved to heap)`)

// AllocBudget is the escape gate. It asks the compiler itself, running
// `go build -gcflags=-m` once over only the packages that hold
// `ringcast:hotpath` functions, and counts the escape diagnostics inside
// each marked function's body, so a refactor that makes a hot-path function
// start allocating breaks CI instead of shipping. The checked-in baseline
// records the count per function, keyed "<pkgpath>.<func>" (0 for every
// function in the tree today). A count above its baseline is a finding; so
// are a marked function missing from the baseline and a stale entry of a
// loaded package whose function lost its marker. Decreases pass silently.
// update rewrites the baseline from the current tree instead, keeping the
// rows of packages outside pkgs.
func AllocBudget(dir string, pkgs []*Package, baselinePath string, update bool) ([]Diagnostic, error) {
	type markedFn struct {
		key string
		fn  HotpathFunc
	}
	var marked []markedFn
	var hotPkgs []string
	loaded := map[string]bool{}
	for _, pkg := range pkgs {
		loaded[pkg.PkgPath] = true
		fns := HotpathFuncs(pkg.Fset, pkg.Syntax)
		for _, fn := range fns {
			marked = append(marked, markedFn{key: pkg.PkgPath + "." + fn.Name, fn: fn})
		}
		if len(fns) > 0 {
			hotPkgs = append(hotPkgs, pkg.PkgPath)
		}
	}
	if len(marked) == 0 && !update {
		return nil, nil
	}

	escapes, err := escapeLines(dir, hotPkgs)
	if err != nil {
		return nil, err
	}
	counts := map[string]int{}
	for _, m := range marked {
		n := 0
		for _, line := range escapes[m.fn.File] {
			if line >= m.fn.Start && line <= m.fn.End {
				n++
			}
		}
		counts[m.key] = n
	}

	if update {
		// Rows of packages outside this load are kept as they are.
		old, _, _ := readBaseline(baselinePath)
		for key, n := range old {
			if !loaded[keyPkg(key)] {
				counts[key] = n
			}
		}
		return nil, writeBaseline(baselinePath, counts)
	}

	baseline, lines, err := readBaseline(baselinePath)
	if err != nil {
		return nil, fmt.Errorf("%s: %v (seed it with -update-baseline)", baselinePath, err)
	}

	var diags []Diagnostic
	sort.Slice(marked, func(i, j int) bool { return marked[i].key < marked[j].key })
	for _, m := range marked {
		have, inBaseline := baseline[m.key]
		pos := token.Position{Filename: m.fn.File, Line: m.fn.Start}
		switch {
		case !inBaseline:
			diags = append(diags, Diagnostic{
				Analyzer: allocBudgetName,
				Pos:      pos,
				Message: fmt.Sprintf("hotpath function %s has no allocation budget in %s; record it with -update-baseline",
					m.key, filepath.Base(baselinePath)),
			})
		case counts[m.key] > have:
			diags = append(diags, Diagnostic{
				Analyzer: allocBudgetName,
				Pos:      pos,
				Message: fmt.Sprintf("allocation budget regression in %s: %d heap escape(s), baseline allows %d — remove the allocation or deliberately raise the budget with -update-baseline",
					m.key, counts[m.key], have),
			})
		}
	}
	var staleKeys []string
	for key := range baseline {
		if _, stillMarked := counts[key]; !stillMarked && loaded[keyPkg(key)] {
			staleKeys = append(staleKeys, key)
		}
	}
	sort.Strings(staleKeys)
	for _, key := range staleKeys {
		diags = append(diags, Diagnostic{
			Analyzer: allocBudgetName,
			Pos:      token.Position{Filename: baselinePath, Line: lines[key]},
			Message: fmt.Sprintf("stale baseline entry %s: no such ringcast:hotpath function in the tree; refresh with -update-baseline",
				key),
		})
	}
	return diags, nil
}

// escapeLines compiles pkgPaths with -gcflags=-m in the module rooted at dir
// and returns the line numbers of the escape diagnostics, by absolute file.
// The build replays from the cache when the packages have not changed.
func escapeLines(dir string, pkgPaths []string) (map[string][]int, error) {
	lines := map[string][]int{}
	if len(pkgPaths) == 0 {
		return lines, nil
	}
	cmd := exec.Command("go", append([]string{"build", "-gcflags=-m"}, pkgPaths...)...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go build -gcflags=-m: %v\n%s", err, out)
	}
	for _, line := range strings.Split(string(out), "\n") {
		m := escapeLineRe.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		file := m[1]
		if !filepath.IsAbs(file) {
			file = filepath.Join(dir, file)
		}
		n, _ := strconv.Atoi(m[2])
		lines[file] = append(lines[file], n)
	}
	return lines, nil
}

// keyPkg returns the package path of a "<pkgpath>.<func>" baseline key.
func keyPkg(key string) string {
	slash := strings.LastIndexByte(key, '/') + 1
	if dot := strings.IndexByte(key[slash:], '.'); dot >= 0 {
		return key[:slash+dot]
	}
	return key
}

// baselineHeader introduces the checked-in budget file.
const baselineHeader = `# ringcast-lint allocation budget: -gcflags=-m heap-escape counts per
# ringcast:hotpath function, the one escape gate of the suite.
# CI fails on any increase. Regenerate after a deliberate change with:
#   go run ./cmd/ringcast-lint -update-baseline ./...
`

// writeBaseline rewrites the budget file, sorted by key.
func writeBaseline(path string, counts map[string]int) error {
	keys := make([]string, 0, len(counts))
	for key := range counts {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(baselineHeader)
	for _, key := range keys {
		fmt.Fprintf(&b, "%s %d\n", key, counts[key])
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// readBaseline parses the budget file into key→count, also returning each
// key's line number for stale-entry positions.
func readBaseline(path string) (map[string]int, map[string]int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	counts := map[string]int{}
	lines := map[string]int{}
	sc := bufio.NewScanner(f)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, nil, fmt.Errorf("line %d: want \"<pkgpath>.<func> <count>\", got %q", lineNo, line)
		}
		n, err := strconv.Atoi(line[i+1:])
		if err != nil {
			return nil, nil, fmt.Errorf("line %d: bad count in %q", lineNo, line)
		}
		counts[line[:i]] = n
		lines[line[:i]] = lineNo
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	return counts, lines, nil
}
