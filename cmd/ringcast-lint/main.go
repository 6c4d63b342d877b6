// Command ringcast-lint is the multichecker for ringcast's determinism and
// concurrency contracts: it loads the requested packages and runs the
// internal/lint suite through lint.Check — detrand (no ambient randomness or
// wall clock in ringcast:deterministic packages), maporder (map iteration
// order must not reach output unsorted), lockio (no blocking call while a
// sync mutex is held), the interprocedural three built on the module call
// graph — lockorder (cross-package lock-order cycles and transitive blocking
// under a mutex), goroleak (spawned goroutines need a cancellation path),
// detflow (determinism taint through unmarked helper packages) — and
// allocbudget, the escape gate that holds every ringcast:hotpath function to
// its compiler-reported heap-escape count in internal/lint/allocs.baseline.
// Findings print as file:line:col lines (-json for structured output,
// -github for CI annotations) and a non-zero exit fails CI; deliberate
// exceptions carry justified `//lint:<analyzer> <why>` waivers in the source
// itself.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"ringcast/internal/lint"
)

// defaultBaseline is the checked-in allocation budget, relative to the
// module root.
const defaultBaseline = "internal/lint/allocs.baseline"

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array instead of text lines")
	github := flag.Bool("github", false, "also emit GitHub Actions ::error annotations so findings land on the PR diff")
	baseline := flag.String("baseline", defaultBaseline, "allocation-budget baseline file, relative to the module root")
	updateBaseline := flag.Bool("update-baseline", false, "rewrite the allocation-budget baseline from the current tree instead of checking it (the escape-count analogue of a golden-file -update)")
	flag.Usage = usage
	flag.Parse()

	dir, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	baselinePath := *baseline
	if !filepath.IsAbs(baselinePath) {
		baselinePath = filepath.Join(dir, baselinePath)
	}
	if *updateBaseline {
		pkgs, err := lint.Load(dir, flag.Args()...)
		if err != nil {
			fatal(err)
		}
		if _, err := lint.AllocBudget(dir, pkgs, baselinePath, true); err != nil {
			fatal(err)
		}
		fmt.Printf("ringcast-lint: wrote %s\n", *baseline)
		return
	}

	diags, err := lint.Check(dir, baselinePath, flag.Args()...)
	if err != nil {
		fatal(err)
	}
	emit(dir, diags, *jsonOut, *github)
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "ringcast-lint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// jsonFinding is the -json wire shape of one diagnostic.
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// emit prints the findings in the requested formats, with module-root
// relative paths.
func emit(dir string, diags []lint.Diagnostic, asJSON, github bool) {
	findings := make([]jsonFinding, 0, len(diags))
	for _, d := range diags {
		file := d.Pos.Filename
		if rel, err := filepath.Rel(dir, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = rel
		}
		findings = append(findings, jsonFinding{
			Analyzer: d.Analyzer,
			File:     file,
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Message:  d.Message,
		})
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fatal(err)
		}
	} else {
		for _, f := range findings {
			fmt.Printf("%s:%d:%d: [%s] %s\n", f.File, f.Line, f.Col, f.Analyzer, f.Message)
		}
	}
	if github {
		for _, f := range findings {
			// Workflow-command annotation: file/line place the finding on
			// the PR diff. The message must stay one line.
			msg := strings.ReplaceAll(f.Message, "\n", " ")
			fmt.Printf("::error file=%s,line=%d,col=%d,title=ringcast-lint %s::%s\n",
				f.File, f.Line, f.Col, f.Analyzer, msg)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ringcast-lint:", err)
	os.Exit(2)
}

func usage() {
	out := flag.CommandLine.Output()
	fmt.Fprint(out, `ringcast-lint enforces ringcast's determinism and concurrency contracts.

Usage:

  ringcast-lint [flags] [packages]

With no package patterns it checks ./... . Examples:

  ringcast-lint ./...
  ringcast-lint -json ./internal/...
  ringcast-lint -update-baseline ./...

Checks:

`)
	lint.Help(out)
	fmt.Fprint(out, `
Markers and waivers (see ARCHITECTURE.md "Enforced contracts"):

  //ringcast:deterministic   package-scope marker: detrand and detflow apply
                             (one marked file covers the whole package)
  //ringcast:hotpath         function marker: allocbudget holds its heap
                             escapes to the allocs.baseline count
  //lint:<analyzer> <why>    justified waiver on the finding's line or the
                             line above; an unjustified or unused waiver is
                             itself a finding

Flags:

`)
	flag.PrintDefaults()
}
