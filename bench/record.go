package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"text/tabwriter"
)

// A record is what one all-workload run writes: where and how it ran, and
// for each workload every metric's values over the repeats with their
// median and quartiles.

type hostInfo struct {
	CPU      string `json:"cpu"`
	NProc    int    `json:"nproc"`
	Platform string `json:"platform"`
	// Loopback is always true: every frame crosses 127.0.0.1 or stays in the
	// process. Nothing here measures a real link.
	Loopback bool `json:"loopback"`
}

type metricSeries struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Q1     float64   `json:"q1"`
	Median float64   `json:"median"`
	Q3     float64   `json:"q3"`
}

func (s *metricSeries) add(v float64) {
	s.Values = append(s.Values, v)
	s.Q1, s.Median, s.Q3 = quartiles(s.Values)
}

type workloadRecord struct {
	Name    string                   `json:"name"`
	Ops     int                      `json:"ops"`    // disseminations attempted, all repeats, both passes
	Failed  int                      `json:"failed"` // of those, how many did not complete
	Correct bool                     `json:"correct"`
	E2E     map[string]*metricSeries `json:"e2e"`
	Layers  map[string]*metricSeries `json:"layers"`
}

type record struct {
	Host       hostInfo          `json:"host"`
	Go         string            `json:"go"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Commit     string            `json:"commit"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Repeat     int               `json:"repeat"`
	Workloads  []*workloadRecord `json:"workloads"`
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, model, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(model)
			}
		}
	}
	return "unknown"
}

// commitID asks git for the checkout's commit; outside a repository the
// record says so.
func commitID() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runChild re-executes this binary for one pass of one workload, so CPU time
// and peak RSS belong to that pass alone, and parses its result line.
func runChild(w workload, seed int64, seconds float64, trace int) (resultLine, error) {
	var res resultLine
	self, err := os.Executable()
	if err != nil {
		return res, err
	}
	cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return res, errors.Join(fmt.Errorf("%s: no result line", w.name), runErr)
	}
	return res, nil // a child that printed a result but exited 1 reported correct=false
}

func (wr *workloadRecord) fold(into map[string]*metricSeries, res resultLine) {
	wr.Ops += res.Attempted
	wr.Failed += res.Failed
	wr.Correct = wr.Correct && res.Correct
	for name, mv := range res.Metrics {
		s := into[name]
		if s == nil {
			s = &metricSeries{Unit: mv.Unit}
			into[name] = s
		}
		s.add(mv.Value)
	}
}

// runAll runs every workload repeat times, untraced then traced, each pass
// in its own child process, prints every metric and writes the record. It
// fails when any workload's outputs were wrong or any dissemination failed.
func runAll(seed int64, seconds float64, repeat int, outPath string) error {
	rec := &record{
		Host:       hostInfo{CPU: cpuModel(), NProc: runtime.NumCPU(), Platform: runtime.GOOS + "/" + runtime.GOARCH, Loopback: true},
		Go:         runtime.Version(),
		GOMAXPROCS: pinProcs(),
		Commit:     commitID(),
		Seed:       seed, Seconds: seconds, Repeat: repeat,
	}
	for _, w := range workloads {
		wr := &workloadRecord{Name: w.name, Correct: true,
			E2E: make(map[string]*metricSeries), Layers: make(map[string]*metricSeries)}
		rec.Workloads = append(rec.Workloads, wr)
		for r := 0; r < repeat; r++ {
			fmt.Fprintf(os.Stderr, "%s: run %d of %d\n", w.name, r+1, repeat)
			res, err := runChild(w, seed, seconds, 0)
			if err != nil {
				return err
			}
			wr.fold(wr.E2E, res)
			if res, err = runChild(w, seed, seconds, 1); err != nil {
				return err
			}
			wr.fold(wr.Layers, res)
		}
	}
	printRecord(os.Stdout, rec)
	enc, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	if outPath == "" {
		fmt.Println(string(enc))
	} else if err := os.WriteFile(outPath, append(enc, '\n'), 0o644); err != nil {
		return err
	}
	return rec.verdict()
}

// verdict rejects a record in which any workload's outputs were wrong or any
// dissemination failed.
func (rec *record) verdict() error {
	var bad []string
	for _, wr := range rec.Workloads {
		if !wr.Correct || wr.Failed > 0 {
			bad = append(bad, fmt.Sprintf("%s (correct=%v, failed=%d of %d)", wr.Name, wr.Correct, wr.Failed, wr.Ops))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("%w: %s", errIncorrect, strings.Join(bad, "; "))
	}
	return nil
}

// printRecord prints every metric by name with its unit, per workload, in
// BENCHMARK.json order.
func printRecord(w io.Writer, rec *record) {
	fmt.Fprintf(w, "host: %s, nproc %d, %s, %s, GOMAXPROCS %d, loopback/in-process traffic only, commit %s, seed %d\n",
		rec.Host.CPU, rec.Host.NProc, rec.Host.Platform, rec.Go, rec.GOMAXPROCS, rec.Commit, rec.Seed)
	for _, wr := range rec.Workloads {
		fmt.Fprintf(w, "\n%s: %d disseminations, %d failed, correct=%v\n", wr.Name, wr.Ops, wr.Failed, wr.Correct)
		tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "  metric\tmedian\tq1\tq3\tunit\truns")
		for _, group := range []struct {
			defs   []metricDef
			series map[string]*metricSeries
		}{{e2eMetrics, wr.E2E}, {layerMetrics, wr.Layers}} {
			for _, d := range group.defs {
				if s := group.series[d.name]; s != nil {
					fmt.Fprintf(tw, "  %s\t%.4f\t%.4f\t%.4f\t%s\t%d\n", d.name, s.Median, s.Q1, s.Q3, s.Unit, len(s.Values))
				}
			}
		}
		tw.Flush()
	}
}

// benchmarkFile is the part of BENCHMARK.json the comparison needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, into any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, into)
}

// spread is the distance between the quartiles as a share of the median.
func (s *metricSeries) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// verdict judges one metric on one workload by the bound BENCHMARK.json
// fixed: unresolved when either side's run-to-run spread is wider than the
// bound, regressed when the new median is worse than the base median by more
// than the bound, ok otherwise.
func verdict(base, cur *metricSeries, better string, bound float64) (worse float64, v string) {
	worse = (cur.Median - base.Median) / base.Median
	if better == "higher" {
		worse = -worse
	}
	switch {
	case base.spread() > bound || cur.spread() > bound:
		return worse, "unresolved"
	case worse > bound:
		return worse, "regressed"
	default:
		return worse, "ok"
	}
}

// compareRecords prints, per workload, each end-to-end metric of two
// records with both medians and quartiles, the ratio with its base, and the
// verdict. It returns an error when any metric regressed.
func compareRecords(w io.Writer, basePath, curPath, benchPath string) error {
	var base, cur record
	var bench benchmarkFile
	if err := readJSON(basePath, &base); err != nil {
		return err
	}
	if err := readJSON(curPath, &cur); err != nil {
		return err
	}
	if err := readJSON(benchPath, &bench); err != nil {
		return err
	}
	fmt.Fprintf(w, "base %s (commit %s, %d runs)  vs  new %s (commit %s, %d runs)\n",
		basePath, base.Commit, base.Repeat, curPath, cur.Commit, cur.Repeat)
	regressed := 0
	for _, bw := range base.Workloads {
		var cw *workloadRecord
		for _, c := range cur.Workloads {
			if c.Name == bw.Name {
				cw = c
			}
		}
		if cw == nil {
			continue
		}
		fmt.Fprintf(w, "\n%s: failed %d of %d (base) vs %d of %d (new)\n", bw.Name, bw.Failed, bw.Ops, cw.Failed, cw.Ops)
		tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "  metric\tunit\tbase median [q1, q3]\tnew median [q1, q3]\tnew/base\tworse by\tbound\tverdict")
		for _, def := range bench.EndToEnd {
			b, c := bw.E2E[def.Name], cw.E2E[def.Name]
			if b == nil || c == nil || b.Median == 0 {
				continue
			}
			worse, v := verdict(b, c, def.Better, def.Bound)
			if v == "regressed" {
				regressed++
			}
			fmt.Fprintf(tw, "  %s\t%s\t%.4f [%.4f, %.4f]\t%.4f [%.4f, %.4f]\t%.3f of %.4f\t%+.1f%%\t%.0f%%\t%s\n",
				def.Name, def.Unit, b.Median, b.Q1, b.Q3, c.Median, c.Q1, c.Q3,
				c.Median/b.Median, b.Median, worse*100, def.Bound*100, v)
		}
		tw.Flush()
	}
	if regressed > 0 {
		return fmt.Errorf("%d metric(s) regressed beyond their bound", regressed)
	}
	return nil
}
