package lint_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"ringcast/internal/lint"
	"ringcast/internal/lint/linttest"
)

func TestDetrandFixture(t *testing.T) {
	linttest.Run(t, "testdata/src/detrand", lint.Detrand)
}

func TestDetrandUnmarkedPackageIsExempt(t *testing.T) {
	// The fixture carries no want comments, so any finding fails the test.
	linttest.Run(t, "testdata/src/nomarker", lint.Detrand)
}

func TestMaporderFixture(t *testing.T) {
	linttest.Run(t, "testdata/src/maporder", lint.Maporder)
}

func TestLockioFixture(t *testing.T) {
	linttest.Run(t, "testdata/src/lockio", lint.Lockio)
}

// TestWaiverAudit asserts the three waiver behaviours end to end: a
// justified waiver suppresses its finding silently, an unjustified waiver is
// reported even though it suppresses, and a waiver over a clean line is
// flagged as stale. Asserted without want comments: a trailing want comment
// would merge into the waiver comment's own text.
func TestWaiverAudit(t *testing.T) {
	diags := linttest.Diagnostics(t, "testdata/src/waivers", lint.Detrand)
	if len(diags) != 2 {
		t.Fatalf("want exactly 2 findings (unjustified + stale waiver), got %d:\n%s",
			len(diags), linttest.Describe(diags))
	}
	for _, d := range diags {
		if d.Analyzer != "waiver" {
			t.Errorf("finding escaped waiver filtering: %s", d)
		}
	}
	if !strings.Contains(diags[0].Message, "no justification") {
		t.Errorf("first finding should flag the unjustified waiver, got: %s", diags[0])
	}
	if !strings.Contains(diags[1].Message, "suppresses nothing") {
		t.Errorf("second finding should flag the stale waiver, got: %s", diags[1])
	}
}

func TestLockorderFixture(t *testing.T) {
	linttest.RunModule(t, "testdata/src/lockorder", lint.Lockorder)
}

func TestGoroleakFixture(t *testing.T) {
	linttest.RunModule(t, "testdata/src/goroleak", lint.Goroleak)
}

func TestDetflowFixture(t *testing.T) {
	linttest.RunModule(t, "testdata/src/detflow", lint.Detflow)
}

// TestAllocBudgetRoundTrip seeds a baseline from the escape fixture with
// -update-baseline semantics and immediately re-checks against it: the file
// must carry one sorted entry per marked function with the compiler's escape
// count (none for the unmarked Cool), and a freshly-recorded tree must gate
// clean.
func TestAllocBudgetRoundTrip(t *testing.T) {
	dir, err := filepath.Abs("testdata/escape")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := lint.Load(dir, ".")
	if err != nil {
		t.Fatalf("load escape fixture: %v", err)
	}
	baseline := filepath.Join(t.TempDir(), "allocs.baseline")
	if _, err := lint.AllocBudget(dir, pkgs, baseline, true); err != nil {
		t.Fatalf("update baseline: %v", err)
	}
	data, err := os.ReadFile(baseline)
	if err != nil {
		t.Fatal(err)
	}
	const want = "escapefixture.Hot 1\nescapefixture.HotClean 0\nescapefixture.HotSlack 1\n"
	if !strings.HasSuffix(string(data), want) || strings.Contains(string(data), "Cool") {
		t.Errorf("baseline should end with exactly\n%s\ngot:\n%s", want, data)
	}
	diags, err := lint.AllocBudget(dir, pkgs, baseline, false)
	if err != nil {
		t.Fatalf("check against fresh baseline: %v", err)
	}
	if len(diags) != 0 {
		t.Errorf("fresh baseline must gate clean, got:\n%s", linttest.Describe(diags))
	}
}

// TestAllocBudgetRegression checks the gate against a deliberately regressed
// baseline: Hot's budget is below its real escape count (regression),
// HotClean is absent (unrecorded marked function), a Gone entry names a
// function that no longer exists (stale), HotSlack's budget is generous
// (decreases pass silently), and an entry of a package outside the load is
// left alone.
func TestAllocBudgetRegression(t *testing.T) {
	dir, err := filepath.Abs("testdata/escape")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := lint.Load(dir, ".")
	if err != nil {
		t.Fatalf("load escape fixture: %v", err)
	}
	baseline := filepath.Join(t.TempDir(), "allocs.baseline")
	regressed := "# handcrafted regressed baseline\n" +
		"escapefixture.Gone 0\n" +
		"escapefixture.Hot 0\n" +
		"escapefixture.HotSlack 5\n" +
		"otherfixture.Elsewhere 0\n"
	if err := os.WriteFile(baseline, []byte(regressed), 0o644); err != nil {
		t.Fatal(err)
	}
	diags, err := lint.AllocBudget(dir, pkgs, baseline, false)
	if err != nil {
		t.Fatalf("allocbudget: %v", err)
	}
	if len(diags) != 3 {
		t.Fatalf("want 3 findings (regression, unrecorded, stale), got %d:\n%s",
			len(diags), linttest.Describe(diags))
	}
	if !strings.Contains(diags[0].Message, "regression in escapefixture.Hot") ||
		!strings.Contains(diags[0].Message, "baseline allows 0") {
		t.Errorf("first finding should be Hot's regression, got: %s", diags[0])
	}
	if !strings.Contains(diags[1].Message, "escapefixture.HotClean has no allocation budget") {
		t.Errorf("second finding should be HotClean's missing entry, got: %s", diags[1])
	}
	if !strings.Contains(diags[2].Message, "stale baseline entry escapefixture.Gone") {
		t.Errorf("third finding should be the stale Gone entry, got: %s", diags[2])
	}
	if diags[2].Pos.Filename != baseline || diags[2].Pos.Line != 2 {
		t.Errorf("stale finding should point into the baseline file at line 2, got %s", diags[2].Pos)
	}
}

// TestRepoIsLintClean runs the full suite over the module through
// lint.Check, exactly as the CI `ringcast-lint ./...` step does: the tree
// must stay free of unwaived findings. It also checks that the markers the
// suite keys on are still in place.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module load in -short mode")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	deterministic, hot := markers(t, filepath.Join(root, "internal"))
	if deterministic < 10 {
		t.Errorf("only %d packages carry ringcast:deterministic; the ten contract packages (sim, dissem, eventsim, experiment, scenario, checkpoint, core, stats, metrics, churn) must stay marked", deterministic)
	}
	if hot < 5 {
		t.Errorf("only %d functions carry ringcast:hotpath; the escape gate is not guarding the hot path", hot)
	}
	diags, err := lint.Check(root, filepath.Join(root, "internal/lint/allocs.baseline"), "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// deterministicRe is the package-scope determinism directive, in the shape
// the suite accepts.
var deterministicRe = regexp.MustCompile(`^//[ \t]?ringcast:deterministic\b`)

// markers parses the non-test sources under dir (testdata excluded) and
// counts the packages carrying the ringcast:deterministic directive and the
// functions carrying ringcast:hotpath.
func markers(t *testing.T, dir string) (deterministic, hot int) {
	t.Helper()
	marked := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			if d != nil && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return err
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if deterministicRe.MatchString(c.Text) {
					marked[filepath.Dir(path)] = true
				}
			}
		}
		hot += len(lint.HotpathFuncs(fset, []*ast.File{f}))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return len(marked), hot
}
