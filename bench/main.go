// Command ringcast-bench is the repository's one performance benchmark: it
// prices both stacks — the live runtime and the simulator — in one unit, a
// complete dissemination (one message offered to all N nodes), on four
// workloads, with end-to-end metrics from an untraced pass and per-layer
// metrics from a traced pass. BENCHMARK.json at the repository root names
// the metrics, workloads and bounds; README.md in this directory explains
// them.
//
// One workload, one pass (what the driver runs):
//
//	bash bench/run.sh --workload live-inmem-small --seed 1 --seconds 20 --trace 0
//
// Every workload, each pass in a fresh child process, as one JSON record:
//
//	bash bench/run.sh -repeat 5 -out a.json
//	bash bench/run.sh -compare a.json b.json
//
// All traffic is loopback or in-process. Inputs (node idents, origin order,
// payload bytes, every simulator seed) derive from -seed.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// metricDef names one metric and its unit, as BENCHMARK.json lists them.
type metricDef struct{ name, unit string }

// e2eMetrics are the end-to-end metrics; every workload reports all of them
// from its untraced pass.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"dissem_per_s", "1/s"},
	{"dissem_p50_ms", "ms"},
	{"dissem_p99_ms", "ms"},
	{"bytes_per_dissem", "B"},
	{"cpu_us_per_dissem", "us"},
	{"peak_rss_mb", "MB"},
}

// layerMetrics are the per-layer metrics of the traced pass. Micro rows are
// measured on every workload; rows taken from a workload's own counters are
// 0 on the workloads whose stack never runs that layer.
var layerMetrics = []metricDef{
	{"wire.marshal_gossip64_ns", "ns"}, {"wire.unmarshal_gossip64_ns", "ns"},
	{"wire.marshal_gossip4k_ns", "ns"}, {"wire.unmarshal_gossip4k_ns", "ns"},
	{"wire.marshal_shuffle8_ns", "ns"}, {"wire.unmarshal_shuffle8_ns", "ns"},
	{"wire.marshal_allocs", "count"}, {"wire.unmarshal_gossip_allocs", "count"},
	{"wire.unmarshal_shuffle8_allocs", "count"},
	{"wire.gossip64_frame_bytes", "B"}, {"wire.gossip4k_frame_bytes", "B"},

	{"transport.inmem_send_ns", "ns"}, {"transport.inmem_send_allocs", "count"},
	{"transport.tcp_send_call_ns", "ns"},
	{"transport.tcp_transit_p50_us", "us"}, {"transport.tcp_transit_p99_us", "us"},
	{"transport.tcp_stream_frames_per_s", "1/s"}, {"transport.tcp_allocs_per_frame", "count"},
	{"transport.mux_send_overhead_ns", "ns"},
	{"transport.frames_per_dissem", "count"}, {"transport.drops", "count"},
	{"transport.rejects", "count"}, {"transport.dial_failures", "count"},
	{"transport.queue_depth_max", "count"}, {"transport.writers_max", "count"},
	{"transport.transit_p50_us", "us"}, {"transport.transit_p99_us", "us"},
	{"transport.send_call_p50_us", "us"},

	{"node.handle_fresh_ns", "ns"}, {"node.handle_fresh_allocs", "count"},
	{"node.handle_dup_ns", "ns"}, {"node.handle_dup_allocs", "count"},
	{"node.handle_shuffle_ns", "ns"}, {"node.handle_shuffle_allocs", "count"},
	{"node.handle_vicinity_ns", "ns"}, {"node.handle_vicinity_allocs", "count"},
	{"node.publish_call_ns", "ns"}, {"node.publish_call_allocs", "count"},
	{"node.gossip_now_ns", "ns"},
	{"node.forwards_per_dissem", "count"}, {"node.duplicates_per_dissem", "count"},
	{"node.useful_ratio", "ratio"}, {"node.queue_full", "count"}, {"node.send_errors", "count"},
	{"node.allocs_per_dissem", "count"}, {"node.alloc_bytes_per_dissem", "B"},
	{"node.gossip_round_ms", "ms"}, {"node.hops_mean", "count"}, {"node.hops_max", "count"},
	{"node.handler_self_p50_us", "us"},

	{"core.select_ids_ns", "ns"}, {"core.select_ids_allocs", "count"},
	{"core.select_pos_ns", "ns"}, {"core.select_pos_allocs", "count"},
	{"cyclon.shuffle_roundtrip_ns", "ns"}, {"cyclon.shuffle_roundtrip_allocs", "count"},
	{"vicinity.merge_ns", "ns"}, {"vicinity.merge_allocs", "count"},

	{"sim.mix_ns_per_node_cycle", "ns"}, {"sim.mix_alloc_mb", "MB"}, {"sim.mix_convergence", "ratio"},
	{"sim.cycle_ns_per_node", "ns"}, {"sim.cycle_allocs", "count"}, {"sim.warmup_cycles", "count"},

	{"dissem.freeze_arena_ms", "ms"}, {"dissem.snapshot_ms", "ms"},
	{"dissem.run_pos_ns_per_node", "ns"}, {"dissem.run_pos_allocs", "count"},
	{"dissem.run_ids_ns_per_node", "ns"}, {"dissem.run_ids_allocs", "count"},
	{"dissem.msgs_per_node", "count"}, {"dissem.hops_per_log2n", "ratio"},
	{"eventsim.run_ns_per_node", "ns"}, {"eventsim.run_allocs", "count"},
	{"eventsim.vs_dissem_ratio", "ratio"},
	{"metrics.accumulator_add_ns", "ns"},

	{"checkpoint.encode_ms", "ms"}, {"checkpoint.decode_ms", "ms"}, {"checkpoint.bytes_per_node", "B"},
	{"runner.sweep_speedup_p2", "ratio"},
	{"scenario.compile_ms", "ms"}, {"scenario.faulted_run_ratio", "ratio"},
	{"experiment.scale_build_s", "s"}, {"experiment.scale_sweep_s", "s"},
	{"experiment.sweep_s", "s"}, {"experiment.catastrophic_s", "s"},
	{"experiment.timing_s", "s"}, {"experiment.scenarios_s", "s"},

	{"gen.lag_p99_ms", "ms"}, {"gen.lag_max_ms", "ms"},
	{"trace.overhead_frac", "ratio"}, {"trace.spans", "count"},
}

// runOutput is what one pass of one workload produced.
type runOutput struct {
	attempted, failed int
	metrics           map[string]float64
	errs              []error // output checks that failed
}

func newRunOutput() *runOutput { return &runOutput{metrics: make(map[string]float64)} }

func (o *runOutput) fail(errs ...error) { o.errs = append(o.errs, errs...) }

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the JSON object a pass prints as its last line of output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// line selects the pass's metric set from what was measured. A missing
// end-to-end metric is an error; a per-layer metric the workload does not
// exercise is reported as 0.
func (o *runOutput) line(traced bool) (resultLine, error) {
	defs := e2eMetrics
	if traced {
		defs = layerMetrics
	}
	res := resultLine{Correct: len(o.errs) == 0, Attempted: o.attempted, Failed: o.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		if !ok && !traced {
			return res, fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res, nil
}

// defaultSeconds is how long one pass measures when -seconds is not given;
// BENCHMARK.json's run_seconds repeats it.
const defaultSeconds = 20

// workload is one named set of inputs.
type workload struct {
	name string
	run  func(seed int64, seconds float64, traced bool, traceOut string) (*runOutput, error)
}

// frac returns the given share of a pass's measuring time.
func frac(seconds, share float64) time.Duration {
	return time.Duration(seconds * share * float64(time.Second))
}

// workloads lists the four workloads in report order. Each splits the
// pass's measuring time between its phases; a traced pass measures for a
// third of the time.
var workloads = []workload{
	{"live-inmem-small", func(seed int64, seconds float64, traced bool, traceOut string) (*runOutput, error) {
		return runLive(liveConfig{
			name: "live-inmem-small", n: 64, body: 64,
			setupRounds: 200, setups: 7, warmOps: 4000, inflight: 8, batch: 5000, rate: 1500,
			timeout: 2 * time.Second, closedFor: frac(seconds, 0.4), openFor: frac(seconds, 0.6),
		}, seed, traced, traceOut)
	}},
	{"live-tcp-mixed", func(seed int64, seconds float64, traced bool, traceOut string) (*runOutput, error) {
		return runLive(liveConfig{
			name: "live-tcp-mixed", n: 16, tcp: true, body: 4096, gossip: 100 * time.Millisecond,
			setupRounds: 200, setups: 7, warmOps: 2000, inflight: 4, batch: 2000, rate: 800,
			timeout: 2 * time.Second, closedFor: frac(seconds, 0.4), openFor: frac(seconds, 0.6),
		}, seed, traced, traceOut)
	}},
	{"sim-scale", func(seed int64, seconds float64, traced bool, traceOut string) (*runOutput, error) {
		return runScale(scaleConfig{
			name: "sim-scale", n: 50000, fanout: 5, runs: 50, cycles: 20, setups: 3,
			protocols: []string{"ringcast", "rps-only"},
			roundsFor: frac(seconds, 0.5), probeFor: frac(seconds, 0.5),
			digest: "9a50d5b69e0f0b7f", digestSeed: 1,
		}, seed, traced, traceOut)
	}},
	{"sim-figures", func(seed int64, seconds float64, traced bool, traceOut string) (*runOutput, error) {
		return runFigures(figuresConfig{
			name: "sim-figures", n: 1000, runs: 50, setups: 3,
			scenarios: []string{"partition-heal", "lossy", "churn-surge"},
			sweeps:    3, sweepFor: frac(seconds, 0.2), probeFor: frac(seconds, 0.1), probeFanout: 3,
			digest: "47ae6a976cb4913f", digestSeed: 1,
		}, seed, traced, traceOut)
	}},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// pinProcs pins GOMAXPROCS to min(2, NumCPU): the reference box has two
// cores, and a fixed value keeps runs on bigger machines comparable.
func pinProcs() int {
	p := runtime.NumCPU()
	if p > 2 {
		p = 2
	}
	runtime.GOMAXPROCS(p)
	return p
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run in this process; empty runs every workload, each pass in a child process")
		seed     = flag.Int64("seed", 1, "workload seed: node idents, origin order, payload bytes and every simulator seed derive from it")
		seconds  = flag.Float64("seconds", defaultSeconds, "how long one pass measures")
		trace    = flag.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
		traceOut = flag.String("trace-out", "", "traced pass: write the recorded spans to this file as JSON lines")
		repeat   = flag.Int("repeat", 1, "all-workload mode: runs per workload; the record keeps every value with median and quartiles")
		out      = flag.String("out", "", "all-workload mode: write the JSON record to this file (default: standard output)")
		compare  = flag.Bool("compare", false, "compare two records: -compare a.json b.json, by the bounds in BENCHMARK.json")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *traceOut, *repeat, *out, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "ringcast-bench:", err)
		os.Exit(1)
	}
}

// errIncorrect marks a run whose outputs failed verification.
var errIncorrect = errors.New("output verification failed")

func run(name string, seed int64, seconds float64, trace int, traceOut string, repeat int, out string, compare bool, args []string) error {
	if compare {
		if len(args) != 2 {
			return errors.New("-compare takes two record files")
		}
		return compareRecords(os.Stdout, args[0], args[1], "BENCHMARK.json")
	}
	if seconds <= 0 || repeat < 1 || (trace != 0 && trace != 1) {
		return errors.New("-seconds must be positive, -repeat at least 1, -trace 0 or 1")
	}
	if name == "" {
		return runAll(seed, seconds, repeat, out)
	}
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	procs := pinProcs()
	traced := trace == 1
	if traced {
		seconds /= 3
	}
	res, err := w.run(seed, seconds, traced, traceOut)
	if err != nil {
		return err
	}
	if traced {
		if err := microAll(res.metrics, seed, 1); err != nil {
			return err
		}
	}
	line, err := res.line(traced)
	if err != nil {
		return err
	}
	// Every metric by name with its unit, then the result line.
	names := make([]string, 0, len(line.Metrics))
	for n := range line.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%s seed=%d gomaxprocs=%d loopback=true\n", w.name, seed, procs)
	for _, n := range names {
		fmt.Printf("  %-36s %14.4f %s\n", n, line.Metrics[n].Value, line.Metrics[n].Unit)
	}
	for _, e := range res.errs {
		fmt.Printf("  INCORRECT: %v\n", e)
	}
	enc, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(enc))
	if !line.Correct {
		return errIncorrect
	}
	return nil
}
