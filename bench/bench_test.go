package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"ringcast/internal/lint"
)

// benchmarkJSON is BENCHMARK.json as the driver defines it.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkFileMatchesHarness pins BENCHMARK.json to the harness: the
// same workloads, the same metric names and units, within the driver's
// limits.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", b.Paths)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, harness default %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the harness", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
	seen := map[string]bool{}
	check := func(kind, name, unit, better string, def metricDef) {
		if name != def.name || unit != def.unit {
			t.Errorf("%s metric %s (%s) in BENCHMARK.json, %s (%s) in the harness", kind, name, unit, def.name, def.unit)
		}
		if !nameRE.MatchString(name) || !unitRE.MatchString(unit) {
			t.Errorf("%s metric %q unit %q breaks the naming rules", kind, name, unit)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("%s metric %s: better = %q", kind, name, better)
		}
		if seen[name] {
			t.Errorf("metric name %s used twice", name)
		}
		seen[name] = true
	}
	if len(b.EndToEnd) != len(e2eMetrics) || len(b.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d + %d metrics, the harness %d + %d",
			len(b.EndToEnd), len(b.PerLayer), len(e2eMetrics), len(layerMetrics))
	}
	hasSetup := false
	for i, m := range b.EndToEnd {
		check("end_to_end", m.Name, m.Unit, m.Better, e2eMetrics[i])
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric with unit s, lower is better")
	}
	if len(b.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128", len(b.PerLayer))
	}
	for i, m := range b.PerLayer {
		check("per_layer", m.Name, m.Unit, m.Better, layerMetrics[i])
	}
}

// tinyLive is the smoke size: 8 nodes, 200 closed-loop and 100 open-loop
// disseminations.
func tinyLive(tcp bool) liveConfig {
	return liveConfig{name: "tiny-live", n: 8, tcp: tcp, body: 64, setupRounds: 40, setups: 1,
		warmOps: 20, inflight: 4, batch: 50, rate: 500, timeout: time.Second, closedOps: 200, openOps: 100}
}

// TestRecordCarriesEveryMetric runs every workload's code path at smoke
// size, both passes, and checks that each pass's result line carries every
// metric BENCHMARK.json names for it, that nothing failed, that the outputs
// verified, and that every per-layer metric is measured by some workload
// rather than reported as 0 everywhere.
func TestRecordCarriesEveryMetric(t *testing.T) {
	b := loadBenchmarkJSON(t)
	scale := scaleConfig{name: "tiny-scale", n: 2000, fanout: 5, runs: 5, cycles: 20, setups: 2,
		protocols: []string{"ringcast", "rps-only"}, roundsFor: time.Millisecond, probeFor: 50 * time.Millisecond}
	figures := figuresConfig{name: "tiny-figures", n: 200, runs: 3, setups: 1,
		scenarios: []string{"partition-heal", "lossy", "churn-surge"},
		sweeps:    1, sweepFor: time.Millisecond, probeFor: 50 * time.Millisecond, probeFanout: 3}
	passes := []struct {
		name string
		run  func(traced bool) (*runOutput, error)
	}{
		{"live-inmem-small", func(traced bool) (*runOutput, error) { return runLive(tinyLive(false), 7, traced, "") }},
		{"live-tcp-mixed", func(traced bool) (*runOutput, error) {
			cfg := tinyLive(true)
			cfg.gossip = 20 * time.Millisecond
			return runLive(cfg, 7, traced, "")
		}},
		{"sim-scale", func(traced bool) (*runOutput, error) { return runScale(scale, 7, traced, "") }},
		{"sim-figures", func(traced bool) (*runOutput, error) { return runFigures(figures, 7, traced, "") }},
	}
	if len(passes) != len(b.Workloads) {
		t.Fatalf("%d smoke workloads, %d in BENCHMARK.json", len(passes), len(b.Workloads))
	}
	micro := map[string]float64{}
	if err := microAll(micro, 7, 50); err != nil {
		t.Fatal(err)
	}
	measured := map[string]float64{}
	for k, v := range micro {
		measured[k] = v
	}
	defer func() {
		for _, d := range layerMetrics {
			if _, ok := measured[d.name]; !ok {
				t.Errorf("per-layer metric %s is never measured", d.name)
			}
		}
	}()
	for i, p := range passes {
		if p.name != b.Workloads[i].Name {
			t.Errorf("smoke workload %q, BENCHMARK.json has %q", p.name, b.Workloads[i].Name)
		}
		for _, traced := range []bool{false, true} {
			out, err := p.run(traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", p.name, traced, err)
			}
			for _, e := range out.errs {
				t.Errorf("%s traced=%v: %v", p.name, traced, e)
			}
			if out.attempted < 1 || out.failed != 0 {
				t.Errorf("%s traced=%v: attempted %d, failed %d", p.name, traced, out.attempted, out.failed)
			}
			if traced {
				for k, v := range out.metrics {
					measured[k] = v
				}
				for k, v := range micro {
					out.metrics[k] = v
				}
			}
			line, err := out.line(traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", p.name, traced, err)
			}
			want := map[string]string{}
			if traced {
				for _, m := range b.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range b.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics in the result line, want %d", p.name, traced, len(line.Metrics), len(want))
			}
			for name, unit := range want {
				got, ok := line.Metrics[name]
				if !ok || got.Unit != unit {
					t.Errorf("%s traced=%v: metric %s (%s) missing or in unit %q", p.name, traced, name, unit, got.Unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", p.name, name, got.Value)
				}
			}
		}
	}
}

// TestClosedNodeFailsItsDisseminations closes one node in the middle of a
// closed loop: every later dissemination must be counted as attempted and
// failed — the denominator does not shrink — and the all-workload verdict
// must reject the record.
func TestClosedNodeFailsItsDisseminations(t *testing.T) {
	cfg := tinyLive(false)
	cfg.closedOps = 150
	cfg.warmOps = 0
	cfg.timeout = 40 * time.Millisecond
	f, _, _, err := setUp(cfg, 11, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		waitFor(5*time.Second, func() bool { return f.completed.Load() >= 50 })
		f.nodes[3].Close()
	}()
	res := f.closedLoop()
	<-killed
	if res.attempted != cfg.closedOps {
		t.Errorf("attempted %d, want %d: a dead node must not shrink the op count", res.attempted, cfg.closedOps)
	}
	if res.failed == 0 || res.completed() < 50 {
		t.Errorf("failed %d, completed %d: want at least 50 completed before the close and failures after it", res.failed, res.completed())
	}
	if err := f.verify(); err != nil {
		t.Errorf("delivery invariants broke: %v", err)
	}
	rec := &record{Workloads: []*workloadRecord{{Name: cfg.name, Ops: res.attempted, Failed: res.failed, Correct: true}}}
	if err := rec.verdict(); err == nil {
		t.Error("a record with failed disseminations passed the all-workload verdict")
	}
}

// TestTraceFileRebuildsSpanTrees writes a live trace and rebuilds one
// dissemination's tree from the file alone: parent links must lead from its
// last delivery back to a publish, through spans sharing one MsgID.
func TestTraceFileRebuildsSpanTrees(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	out, err := runLive(tinyLive(false), 5, true, path)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range out.errs {
		t.Error(e)
	}
	if f := out.metrics["trace.overhead_frac"]; f >= 1 {
		t.Errorf("trace.overhead_frac = %v", f)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[int64]traceLine{}
	var lastDeliver traceLine
	op := int32(-1) // the first traced dissemination
	for _, raw := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var l traceLine
		if err := json.Unmarshal(raw, &l); err != nil {
			t.Fatal(err)
		}
		byID[l.ID] = l
		if op < 0 && l.Kind == "publish" {
			op = l.Op
		}
		if l.Kind == "deliver" && l.Op == op && l.StartNS >= lastDeliver.StartNS {
			lastDeliver = l
		}
	}
	if lastDeliver.Msg == "" {
		t.Fatalf("no deliver span with a MsgID for op %d", op)
	}
	cur, steps := lastDeliver, 0
	for cur.Kind != "publish" {
		next, ok := byID[cur.Parent]
		if !ok {
			t.Fatalf("span %d (%s) has no parent in the file", cur.ID, cur.Kind)
		}
		if next.Msg != lastDeliver.Msg {
			t.Fatalf("span %d carries MsgID %q, the tree's is %q", next.ID, next.Msg, lastDeliver.Msg)
		}
		if cur, steps = next, steps+1; steps > 100 {
			t.Fatal("parent links do not reach a publish")
		}
	}
}

func TestVerdicts(t *testing.T) {
	series := func(vals ...float64) *metricSeries {
		s := &metricSeries{}
		for _, v := range vals {
			s.add(v)
		}
		return s
	}
	base := series(100, 101, 99, 100, 100)
	for _, tc := range []struct {
		name   string
		cur    *metricSeries
		better string
		want   string
	}{
		{"same", series(100, 100, 101, 99, 100), "lower", "ok"},
		{"slower", series(115, 116, 114, 115, 115), "lower", "regressed"},
		{"faster", series(80, 81, 79, 80, 80), "lower", "ok"},
		{"less throughput", series(85, 86, 84, 85, 85), "higher", "regressed"},
		{"noisy", series(70, 130, 100, 160, 40), "lower", "unresolved"},
	} {
		if _, got := verdict(base, tc.cur, tc.better, 0.10); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{1, 2, 4, 7, 11, 16, 22, 29, 37, 46})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v, %v; Python gives 3.5, 13.5, 31.0", q1, q2, q3)
	}
}

// TestBenchIsLintClean holds this package to the repository's own lint
// suite: the nested module is outside the root module's `./...`, so the
// root TestRepoIsLintClean never sees it.
func TestBenchIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks the package's dependencies")
	}
	pkgs, err := lint.Load(".", ".")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	extra, extraRan, err := lint.RunModuleAnalyzers(lint.NewModule(pkgs),
		[]*lint.ModuleAnalyzer{lint.Lockorder, lint.Goroleak, lint.Detflow})
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.RunAnalyzers(pkgs, []*lint.Analyzer{lint.Detrand, lint.Maporder, lint.Lockio}, extra, extraRan...)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
