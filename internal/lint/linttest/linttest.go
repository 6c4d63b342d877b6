// Package linttest is the fixture harness for ringcast's static-analysis
// suite, modeled on golang.org/x/tools/go/analysis/analysistest: a fixture
// is one package of Go files under testdata/src/<name>, and every line that
// should trigger a finding carries a `// want "regexp"` comment (several
// quoted regexps per comment for several findings on one line; patterns are
// double-quoted Go strings, not backticks). Run loads the fixture, executes
// the analyzer through the same driver as cmd/ringcast-lint — so waiver
// suppression and waiver auditing behave exactly as in CI — and fails the
// test on any unmatched finding or unsatisfied expectation. RunModule is
// the interprocedural analogue: its fixture is a *tree*, one package per
// subdirectory cross-importing under "<name>/<sub>" import paths, loaded
// into one shared type universe so call-graph facts flow across the
// packages exactly as they do over the real module. The harness itself is
// deterministic: fixtures typecheck against compiler export data, no
// network, no randomness.
package linttest

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"ringcast/internal/lint"
)

// wantRe matches a `// want "re" "re2"` expectation comment and captures the
// quoted regexps blob.
var wantRe = regexp.MustCompile(`//[ \t]*want((?:[ \t]+"(?:[^"\\]|\\.)*")+)`)

// quotedRe extracts the individual quoted regexps from the blob.
var quotedRe = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

// expectation is one `// want` regexp, anchored to a fixture file line.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// Run loads the fixture package at dir, runs a (with full waiver filtering
// and auditing, exactly like the ringcast-lint driver), and checks the
// diagnostics against the fixture's `// want` comments.
func Run(t *testing.T, dir string, a *lint.Analyzer) {
	t.Helper()
	expect(t, dir, []*lint.Analyzer{a}, nil)
}

// RunModule loads the fixture tree at dir (one package per subdirectory,
// cross-importing under "<base>/<sub>" import paths; a flat directory loads
// as a single package), builds the call graph and facts, runs the module
// analyzers through the shared waiver filter, and checks the diagnostics
// against the tree's `// want` comments — the interprocedural analogue of
// Run.
func RunModule(t *testing.T, dir string, as ...*lint.ModuleAnalyzer) {
	t.Helper()
	expect(t, dir, nil, as)
}

// Diagnostics is a convenience for bespoke tests (the waiver audit) that
// want the raw filtered findings of several analyzers.
func Diagnostics(t *testing.T, dir string, as ...*lint.Analyzer) []lint.Diagnostic {
	t.Helper()
	_, diags := diagnose(t, dir, as, nil)
	return diags
}

// diagnose loads the fixture tree at dir and runs the analyzers through the
// driver's waiver filter. It also fails the test on any finding whose
// message embeds the fixture's absolute directory: findings must read the
// same from every checkout.
func diagnose(t *testing.T, dir string, as []*lint.Analyzer, ms []*lint.ModuleAnalyzer) ([]*lint.Package, []lint.Diagnostic) {
	t.Helper()
	pkgs, err := lint.LoadFixtureTree(dir)
	if err != nil {
		t.Fatalf("load fixture %s: %v", dir, err)
	}
	var raw []lint.Diagnostic
	var ran []string
	if len(ms) > 0 {
		if raw, ran, err = lint.RunModuleAnalyzers(lint.NewModule(pkgs), ms); err != nil {
			t.Fatalf("run module analyzers on %s: %v", dir, err)
		}
	}
	diags, err := lint.RunAnalyzers(pkgs, as, raw, ran...)
	if err != nil {
		t.Fatalf("run analyzers on %s: %v", dir, err)
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		if strings.Contains(d.Message, abs) {
			t.Errorf("finding message embeds the checkout path %s: %s", abs, d)
		}
	}
	return pkgs, diags
}

// expect runs the analyzers on the fixture at dir and checks the findings
// against its `// want` comments: every finding must match one, and every
// one must be matched.
func expect(t *testing.T, dir string, as []*lint.Analyzer, ms []*lint.ModuleAnalyzer) {
	t.Helper()
	pkgs, diags := diagnose(t, dir, as, ms)
	var expectations []*expectation
	for _, pkg := range pkgs {
		expectations = append(expectations, collectWants(t, pkg)...)
	}
	for _, d := range diags {
		if !claim(expectations, d.Pos.Filename, d.Pos.Line, d.Message) {
			t.Errorf("unexpected finding at %s: [%s] %s", d.Pos, d.Analyzer, d.Message)
		}
	}
	for _, e := range expectations {
		if !e.matched {
			t.Errorf("%s:%d: expected finding matching %q, got none", e.file, e.line, e.re)
		}
	}
}

// collectWants parses every `// want` comment in the fixture into anchored
// expectations.
func collectWants(t *testing.T, pkg *lint.Package) []*expectation {
	t.Helper()
	var out []*expectation
	for _, f := range pkg.Syntax {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					if strings.Contains(c.Text, "want") && strings.Contains(c.Text, `"`) {
						t.Fatalf("%s: malformed want comment: %s", pkg.Fset.Position(c.Pos()), c.Text)
					}
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, q := range quotedRe.FindAllString(m[1], -1) {
					pattern, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s: bad want pattern %s: %v", pos, q, err)
					}
					re, err := regexp.Compile(pattern)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, pattern, err)
					}
					out = append(out, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return out
}

// claim marks the first unmatched expectation on (file, line) whose regexp
// matches message; it reports whether one was found.
func claim(expectations []*expectation, file string, line int, message string) bool {
	for _, e := range expectations {
		if e.matched || e.file != file || e.line != line {
			continue
		}
		if e.re.MatchString(message) {
			e.matched = true
			return true
		}
	}
	return false
}

// Describe formats diagnostics for failure messages.
func Describe(diags []lint.Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		fmt.Fprintf(&b, "  %s\n", d)
	}
	return b.String()
}
