package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"ringcast/internal/checkpoint"
	"ringcast/internal/core"
	"ringcast/internal/dissem"
	"ringcast/internal/eventsim"
	"ringcast/internal/experiment"
	"ringcast/internal/metrics"
	"ringcast/internal/runner"
	"ringcast/internal/scenario"
	"ringcast/internal/sim"
	"ringcast/internal/wire"
)

// simParallelism is the worker count of every simulator sweep, matching the
// GOMAXPROCS the benchmark pins.
const simParallelism = 2

// Tags that keep the probe's random streams apart from the experiment
// package's own (whose tags are small positive integers).
const (
	tagProbeOrigin int64 = 9001
	tagProbeRun    int64 = 9002
)

// simulatedFrameBytes is the wire size of one simulated message copy: a
// gossip frame with the 64 B body of live-inmem-small. It turns the
// simulator's message count into the unit the live stack is priced in.
func simulatedFrameBytes() float64 {
	f := &wire.Frame{Kind: wire.KindGossip, From: 1, FromAddr: "n00",
		Msg: &wire.Message{ID: wire.MsgID{Origin: 1, Seq: 1}, Hop: 1, Body: make([]byte, 64)}}
	return float64(wire.EncodedSize(f))
}

// probeResult is what a bench-owned sweep over a frozen overlay measured:
// every dissemination timed on its own, under the same two-worker pool the
// experiment sweeps use.
type probeResult struct {
	latMS      []float64 // per run, in run order
	units      int
	incomplete int // ringcast runs that missed a live node
	wall, cpu  time.Duration
}

var probeScratch = sync.Pool{New: func() any { return dissem.NewScratch() }}

// probeSelectors are the two protocols every probe pairs: even units run
// RingCast, odd units RandCast from the same origin.
var probeSelectors = [2]core.Selector{core.RingCast{}, core.RandCast{}}

// probe sweeps chunks of paired disseminations until dur has passed (at
// least one chunk), timing each run, then folds the results per protocol the
// way the experiment sweeps do. run executes unit u with selector sel. The
// tracer, when non-nil, records one span per run and one for the fold.
func probe(dur time.Duration, chunk int, tr *tracer, run func(u int, sel core.Selector) (*metrics.Dissemination, error)) (probeResult, error) {
	var res probeResult
	var runs []*metrics.Dissemination
	cpu0 := cpuTime()
	start := time.Now()
	for time.Since(start) < dur || res.units == 0 {
		lat := make([]float64, chunk)
		ds := make([]*metrics.Dissemination, chunk)
		base := res.units
		err := runner.Map(simParallelism, chunk, nil, func(i int) error {
			u := base + i
			sp := tr.begin(spanRun, int32(u), int32(u%2), -1)
			t0 := time.Now()
			d, err := run(u, probeSelectors[u%2])
			lat[i] = float64(time.Since(t0)) / 1e6
			tr.end(sp)
			ds[i] = d
			return err
		})
		if err != nil {
			return res, err
		}
		res.latMS = append(res.latMS, lat...)
		runs = append(runs, ds...)
		res.units += chunk
	}
	res.wall = time.Since(start)
	res.cpu = cpuTime() - cpu0

	sp := tr.begin(spanFold, 0, -1, -1)
	var ringcast metrics.Accumulator
	for u := 0; u < len(runs); u += 2 {
		ringcast.Add(runs[u])
	}
	agg := ringcast.Finalize()
	tr.end(sp)
	res.incomplete = int(math.Round(float64(agg.Runs) * (1 - agg.CompleteFraction)))
	return res, nil
}

// probePos runs the probe on the position path (ID-less arena overlays).
func probePos(o *dissem.Overlay, fanout int, seed int64, dur time.Duration, tr *tracer) (probeResult, error) {
	return probe(dur, 32, tr, func(u int, sel core.Selector) (*metrics.Dissemination, error) {
		run := int64(u / 2)
		origin, err := o.RandomAlivePos(runner.UnitRand(seed, tagProbeOrigin, run))
		if err != nil {
			return nil, err
		}
		sc := probeScratch.Get().(*dissem.Scratch)
		defer probeScratch.Put(sc)
		return dissem.RunScratchPos(o, origin, sel, fanout,
			runner.UnitRand(seed, tagProbeRun, run, int64(u%2)), dissem.Options{SkipLoad: true}, sc)
	})
}

// probeIDs runs the probe on the ID path (snapshots of a sim.Network).
func probeIDs(o *dissem.Overlay, fanout int, seed int64, dur time.Duration, tr *tracer) (probeResult, error) {
	return probe(dur, 256, tr, func(u int, sel core.Selector) (*metrics.Dissemination, error) {
		run := int64(u / 2)
		origin, err := o.RandomAliveOrigin(runner.UnitRand(seed, tagProbeOrigin, run))
		if err != nil {
			return nil, err
		}
		sc := probeScratch.Get().(*dissem.Scratch)
		defer probeScratch.Put(sc)
		return dissem.RunScratch(o, origin, sel, fanout,
			runner.UnitRand(seed, tagProbeRun, run, int64(u%2)), dissem.Options{SkipLoad: true}, sc)
	})
}

// latencyMetrics fills the two latency metrics from samples in time order.
func latencyMetrics(m map[string]float64, latMS []float64) {
	if len(latMS) == 0 {
		return
	}
	m["dissem_p50_ms"] = median(latMS)
	m["dissem_p99_ms"] = windowedP99(latMS)
}

// digestOf hashes the deterministic text of a workload's results.
func digestOf(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// ---------------------------------------------------------------- sim-scale

// scaleConfig sizes the sim-scale workload: the flat-array mixer, the arena
// freeze and the position-path sweep, at a population where the arena no
// longer fits the L2 cache.
type scaleConfig struct {
	name         string
	n, fanout    int
	runs, cycles int
	setups       int
	protocols    []string
	roundsFor    time.Duration // RunScale rounds repeat until this has passed
	probeFor     time.Duration
	digest       string // pinned result digest ("" = unchecked)
	digestSeed   int64  // the seed the digest holds for
}

func (c scaleConfig) experiment(seed int64) experiment.ScaleConfig {
	return experiment.ScaleConfig{Ns: []int{c.n}, Fanout: c.fanout, Runs: c.runs, Cycles: c.cycles,
		Protocols: c.protocols, Seed: seed, Parallelism: simParallelism}
}

// scaleSetUp is the build phase of experiment.RunScale, called directly:
// the shard-parallel mixer, then the arena freeze.
func scaleSetUp(c scaleConfig, seed int64, tr *tracer) (*dissem.Overlay, *sim.MixResult, float64, float64, error) {
	mc := sim.DefaultMixConfig(c.n)
	mc.Seed = seed
	mc.Cycles = c.cycles
	mc.Parallelism = simParallelism
	start := time.Now()
	sp := tr.begin(spanBuild, 0, -1, -1)
	res, err := sim.BuildConverged(mc)
	tr.end(sp)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	built := time.Since(start)
	sp = tr.begin(spanFreeze, 0, -1, -1)
	o := dissem.FromArena(res.Arena)
	tr.end(sp)
	total := time.Since(start)
	return o, res, total.Seconds(), (total - built).Seconds(), nil
}

// scaleCSV renders a scale result with the machine-telemetry columns
// (heap, RSS, allocations, wall clock) removed, leaving the text the
// repo's determinism contract pins.
func scaleCSV(r *experiment.ScaleResult) ([]byte, error) {
	var raw bytes.Buffer
	if err := r.WriteCSV(&raw); err != nil {
		return nil, err
	}
	rows, err := csv.NewReader(&raw).ReadAll()
	if err != nil {
		return nil, err
	}
	telemetry := map[string]bool{"heap_bytes": true, "peak_rss_bytes": true, "alloc_bytes": true,
		"allocs": true, "build_seconds": true, "sweep_seconds": true}
	var out bytes.Buffer
	w := csv.NewWriter(&out)
	for _, row := range rows {
		var keep []string
		for i, cell := range row {
			if !telemetry[rows[0][i]] {
				keep = append(keep, cell)
			}
		}
		if err := w.Write(keep); err != nil {
			return nil, err
		}
	}
	w.Flush()
	return out.Bytes(), w.Error()
}

// checkScale verifies one RunScale result: the ring converged, RingCast
// reached every node in every run, and hops grow as the paper says.
func checkScale(r *experiment.ScaleResult) (ringcast experiment.ScalePoint, errs []error) {
	step := r.Steps[0]
	if step.Convergence != 1.0 {
		errs = append(errs, fmt.Errorf("sim.mix_convergence = %v, want 1.0", step.Convergence))
	}
	for _, pt := range step.Points {
		if pt.Protocol != "ringcast" {
			continue
		}
		ringcast = pt
		if pt.HitRatio != 1.0 || pt.CompleteFraction != 1.0 {
			errs = append(errs, fmt.Errorf("ringcast hit ratio %v, complete fraction %v on a fault-free ring, want 1.0",
				pt.HitRatio, pt.CompleteFraction))
		}
		if pt.HopsPerLog2N < 0.5 || pt.HopsPerLog2N > 0.7 {
			errs = append(errs, fmt.Errorf("hops/log2 N = %.3f outside [0.5, 0.7]", pt.HopsPerLog2N))
		}
	}
	return ringcast, errs
}

func runScale(c scaleConfig, seed int64, traced bool, traceOut string) (*runOutput, error) {
	out := newRunOutput()
	m := out.metrics
	var tr *tracer
	if traced {
		tr = newTracer(1 << 16)
	}

	if traced {
		c.setups = 1
	}
	// Set-up, several times; the last overlay feeds the probe.
	var o *dissem.Overlay
	var mix *sim.MixResult
	var setupS, freezeS []float64
	var mixAlloc uint64 // bytes the last build allocated
	for i := 0; i < c.setups; i++ {
		mem0 := readMem()
		ov, res, total, freeze, err := scaleSetUp(c, seed, tr)
		mixAlloc = readMem().bytes - mem0.bytes
		if err != nil {
			return nil, err
		}
		o, mix = ov, res
		setupS = append(setupS, total)
		freezeS = append(freezeS, freeze)
	}
	if mix.Convergence != 1.0 {
		out.fail(fmt.Errorf("sim.mix_convergence = %v, want 1.0", mix.Convergence))
	}
	m["setup_s"] = median(setupS)

	// Rounds of the experiment as its users run it: build + sweep.
	var wallS []float64
	var sweepS, buildS float64
	var rounds, sweepRuns int
	var first []byte
	var ringcast experiment.ScalePoint
	start := time.Now()
	for time.Since(start) < c.roundsFor || rounds == 0 {
		t0 := time.Now()
		r, err := experiment.RunScale(c.experiment(seed))
		if err != nil {
			return nil, err
		}
		wallS = append(wallS, time.Since(t0).Seconds())
		pt, errs := checkScale(r)
		out.fail(errs...)
		ringcast = pt
		text, err := scaleCSV(r)
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = text
		} else if !bytes.Equal(first, text) {
			out.fail(fmt.Errorf("RunScale round %d differs from round 0 under the same seed", rounds))
		}
		sweepS += r.Steps[0].SweepSeconds
		buildS += r.Steps[0].BuildSeconds
		sweepRuns += c.runs * len(r.Protocols)
		out.attempted += c.runs * len(r.Protocols)
		out.failed += int(math.Round(float64(c.runs) * (1 - pt.CompleteFraction)))
		rounds++
		if traced {
			break // the traced pass needs one round for its layer rows
		}
	}
	if c.digest != "" && seed == c.digestSeed {
		if got := digestOf(first); got != c.digest {
			out.fail(fmt.Errorf("%s: result digest %s, pinned %s", c.name, got, c.digest))
		}
	}
	m["wall_s"] = median(wallS)
	m["dissem_per_s"] = float64(sweepRuns) / sweepS
	m["bytes_per_dissem"] = ringcast.MsgsPerNode * float64(c.n) * simulatedFrameBytes()

	pr, err := probePos(o, c.fanout, seed, c.probeFor, nil)
	if err != nil {
		return nil, err
	}
	out.attempted += pr.units
	out.failed += pr.incomplete
	latencyMetrics(m, pr.latMS)
	m["cpu_us_per_dissem"] = float64(pr.cpu.Microseconds()) / float64(pr.units)
	m["peak_rss_mb"] = peakRSSMB()
	if !traced {
		return out, nil
	}

	// Per-layer rows.
	m["sim.mix_ns_per_node_cycle"] = (median(setupS) - median(freezeS)) * 1e9 / float64(c.n*c.cycles)
	m["sim.mix_alloc_mb"] = float64(mixAlloc) / 1e6
	m["sim.mix_convergence"] = mix.Convergence
	m["dissem.freeze_arena_ms"] = median(freezeS) * 1000
	m["dissem.msgs_per_node"] = ringcast.MsgsPerNode
	m["dissem.hops_per_log2n"] = ringcast.HopsPerLog2N
	m["experiment.scale_build_s"] = buildS / float64(rounds)
	m["experiment.scale_sweep_s"] = sweepS / float64(rounds)

	rng := rand.New(rand.NewSource(seed))
	sc := dissem.NewScratch()
	ns, allocs := microRow(10, func(iters int) {
		for i := 0; i < iters; i++ {
			origin, _ := o.RandomAlivePos(rng)
			if _, err := dissem.RunScratchPos(o, origin, core.RingCast{}, c.fanout, rng, dissem.Options{SkipLoad: true}, sc); err != nil {
				panic(err)
			}
		}
	})
	m["dissem.run_pos_ns_per_node"] = ns / float64(c.n)
	m["dissem.run_pos_allocs"] = allocs

	fp := checkpoint.Fingerprint{N: c.n, Seed: seed, Cycles: c.cycles, CyclonView: 20, CyclonShuffle: 8, VicinityView: 20, VicinityGossip: 20}
	var encoded []byte
	encNS, _ := microRow(1, func(iters int) {
		for i := 0; i < iters; i++ {
			encoded = checkpoint.Encode(fp, mix.Arena)
		}
	})
	decNS, _ := microRow(1, func(iters int) {
		for i := 0; i < iters; i++ {
			if _, _, err := checkpoint.Decode(encoded); err != nil {
				panic(err)
			}
		}
	})
	m["checkpoint.encode_ms"] = encNS / 1e6
	m["checkpoint.decode_ms"] = decNS / 1e6
	m["checkpoint.bytes_per_node"] = float64(len(encoded)) / float64(c.n)

	// The same probe, traced: the difference is what tracing costs.
	tpr, err := probePos(o, c.fanout, seed, c.probeFor, tr)
	if err != nil {
		return nil, err
	}
	traceRows(m, tr, float64(pr.units)/pr.wall.Seconds(), float64(tpr.units)/tpr.wall.Seconds())
	if traceOut != "" {
		if err := tr.writeTrace(traceOut, nil); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// traceRows reports what the traced pass recorded and what it cost.
func traceRows(m map[string]float64, tr *tracer, untracedPerS, tracedPerS float64) {
	m["trace.spans"] = float64(len(tr.recorded()))
	if untracedPerS > 0 {
		m["trace.overhead_frac"] = 1 - tracedPerS/untracedPerS
	}
}

// -------------------------------------------------------------- sim-figures

// figuresConfig sizes the sim-figures workload: the view-based simulator,
// the ID-path sweep, the event engine and the scenario fault models, at a
// population small enough that per-run fixed cost dominates.
type figuresConfig struct {
	name        string
	n, runs     int
	setups      int
	scenarios   []string
	sweeps      int           // SweepOverlay calls inside the timed figures batch
	sweepFor    time.Duration // further sweeps repeat until this has passed
	probeFor    time.Duration
	probeFanout int
	digest      string
	digestSeed  int64
}

func (c figuresConfig) experiment(seed int64) experiment.Config {
	cfg := experiment.Scaled(c.n, c.runs)
	cfg.Seed = seed
	cfg.Parallelism = simParallelism
	return cfg
}

// figuresSetUp is the paper's methodology: star bootstrap, warm-up until
// the ring has formed, overlay freeze.
func figuresSetUp(c figuresConfig, seed int64, tr *tracer) (nw *sim.Network, o *dissem.Overlay, cycles int, conv, totalS, snapS float64, err error) {
	sc := sim.DefaultConfig(c.n)
	sc.Seed = seed
	start := time.Now()
	sp := tr.begin(spanBuild, 0, -1, -1)
	nw, err = sim.New(sc)
	if err != nil {
		return nil, nil, 0, 0, 0, 0, err
	}
	cycles, conv = nw.WarmUp(100, 1000)
	tr.end(sp)
	warmed := time.Since(start)
	sp = tr.begin(spanFreeze, 0, -1, -1)
	o = dissem.Snapshot(nw)
	tr.end(sp)
	total := time.Since(start)
	return nw, o, cycles, conv, total.Seconds(), (total - warmed).Seconds(), nil
}

// sweepRunsOf is how many disseminations one SweepOverlay call executes.
func sweepRunsOf(cfg experiment.Config) int { return len(cfg.Fanouts) * cfg.Runs * 2 }

// checkSweep verifies a fault-free sweep: RingCast reaches every node at
// every fanout.
func checkSweep(rows []experiment.Row) (failedRuns int, errs []error) {
	for _, row := range rows {
		if row.Ring.MeanMissRatio != 0 || row.Ring.CompleteFraction != 1.0 {
			errs = append(errs, fmt.Errorf("ringcast F=%d: miss ratio %v, complete fraction %v on a fault-free ring",
				row.Fanout, row.Ring.MeanMissRatio, row.Ring.CompleteFraction))
			failedRuns += int(math.Round(float64(row.Ring.Runs) * (1 - row.Ring.CompleteFraction)))
		}
	}
	return failedRuns, errs
}

func runFigures(c figuresConfig, seed int64, traced bool, traceOut string) (*runOutput, error) {
	out := newRunOutput()
	m := out.metrics
	var tr *tracer
	if traced {
		tr = newTracer(1 << 18)
	}
	cfg := c.experiment(seed)
	if traced {
		c.setups = 1
	}

	var nw *sim.Network
	var o *dissem.Overlay
	var setupS, snapS []float64
	var cycles int
	for i := 0; i < c.setups; i++ {
		n, ov, cyc, conv, total, snap, err := figuresSetUp(c, seed, tr)
		if err != nil {
			return nil, err
		}
		if conv != 1.0 {
			out.fail(fmt.Errorf("ring convergence %v after %d warm-up cycles, want 1.0", conv, cyc))
		}
		nw, o, cycles = n, ov, cyc
		setupS = append(setupS, total)
		snapS = append(snapS, snap)
	}
	m["setup_s"] = median(setupS)

	// The figures batch: a fixed amount of work, timed as wall_s.
	scs, err := scenario.ByNames(c.scenarios)
	if err != nil {
		return nil, err
	}
	var sweepS float64
	var sweeps int
	var rows []experiment.Row
	sweep := func() error {
		t0 := time.Now()
		r, err := experiment.SweepOverlay(o, cfg)
		if err != nil {
			return err
		}
		sweepS += time.Since(t0).Seconds()
		sweeps++
		failedRuns, errs := checkSweep(r)
		out.fail(errs...)
		out.attempted += sweepRunsOf(cfg)
		out.failed += failedRuns
		rows = r
		return nil
	}
	batchStart := time.Now()
	for i := 0; i < c.sweeps; i++ {
		if err := sweep(); err != nil {
			return nil, err
		}
	}
	batchSweepS := sweepS
	t0 := time.Now()
	cat, err := experiment.RunCatastrophic(cfg, 0.05)
	if err != nil {
		return nil, err
	}
	catS := time.Since(t0).Seconds()
	t0 = time.Now()
	timing, err := experiment.RunTimingInvariance(cfg, "ringcast", 3)
	if err != nil {
		return nil, err
	}
	timingS := time.Since(t0).Seconds()
	t0 = time.Now()
	scen, err := experiment.RunScenarios(cfg, scs)
	if err != nil {
		return nil, err
	}
	scenS := time.Since(t0).Seconds()
	m["wall_s"] = time.Since(batchStart).Seconds()

	for _, row := range timing.Rows {
		if row.MeanMissRatio != 0 {
			out.fail(fmt.Errorf("timing model %q: ringcast miss ratio %v on a fault-free ring", row.Model, row.MeanMissRatio))
		}
	}
	if c.digest != "" && seed == c.digestSeed {
		var static, catCSV, scenCSV bytes.Buffer
		res := experiment.Result{Scenario: "static", N: c.n, Runs: c.runs, Rows: rows}
		if err := res.WriteCSV(&static); err != nil {
			return nil, err
		}
		if err := cat.WriteCSV(&catCSV); err != nil {
			return nil, err
		}
		if err := experiment.WriteScenariosCSV(&scenCSV, scen); err != nil {
			return nil, err
		}
		if got := digestOf(static.Bytes(), catCSV.Bytes(), scenCSV.Bytes(), []byte(timing.Table())); got != c.digest {
			out.fail(fmt.Errorf("%s: result digest %s, pinned %s", c.name, got, c.digest))
		}
	}

	// More sweeps over the same snapshot, so the rate rests on enough runs.
	if !traced {
		start := time.Now()
		for time.Since(start) < c.sweepFor {
			if err := sweep(); err != nil {
				return nil, err
			}
		}
	}
	m["dissem_per_s"] = float64(sweeps*sweepRunsOf(cfg)) / sweepS
	for _, row := range rows {
		if row.Fanout == c.probeFanout {
			m["bytes_per_dissem"] = (row.Ring.MeanVirgin + row.Ring.MeanRedundant + row.Ring.MeanLost) * simulatedFrameBytes()
		}
	}

	pr, err := probeIDs(o, c.probeFanout, seed, c.probeFor, nil)
	if err != nil {
		return nil, err
	}
	out.attempted += pr.units
	out.failed += pr.incomplete
	latencyMetrics(m, pr.latMS)
	m["cpu_us_per_dissem"] = float64(pr.cpu.Microseconds()) / float64(pr.units)
	m["peak_rss_mb"] = peakRSSMB()
	if !traced {
		return out, nil
	}

	// Per-layer rows.
	m["sim.warmup_cycles"] = float64(cycles)
	m["sim.cycle_ns_per_node"] = (median(setupS) - median(snapS)) * 1e9 / float64(cycles*c.n)
	_, cycAllocs := microRow(3, func(iters int) {
		for i := 0; i < iters; i++ {
			nw.Cycle()
		}
	})
	m["sim.cycle_allocs"] = cycAllocs
	m["dissem.snapshot_ms"] = median(snapS) * 1000
	m["experiment.sweep_s"] = batchSweepS / float64(c.sweeps)
	m["experiment.catastrophic_s"] = catS
	m["experiment.timing_s"] = timingS
	m["experiment.scenarios_s"] = scenS

	rng := rand.New(rand.NewSource(seed))
	sc := dissem.NewScratch()
	idNS, idAllocs := microRow(400, func(iters int) {
		for i := 0; i < iters; i++ {
			origin, _ := o.RandomAliveOrigin(rng)
			if _, err := dissem.RunScratch(o, origin, core.RingCast{}, c.probeFanout, rng, dissem.Options{SkipLoad: true}, sc); err != nil {
				panic(err)
			}
		}
	})
	m["dissem.run_ids_ns_per_node"] = idNS / float64(c.n)
	m["dissem.run_ids_allocs"] = idAllocs
	esc := eventsim.NewScratch()
	lat := eventsim.ExpLatency(1)
	evNS, evAllocs := microRow(400, func(iters int) {
		for i := 0; i < iters; i++ {
			origin, _ := o.RandomAliveOrigin(rng)
			if _, err := eventsim.RunScratch(o, origin, core.RingCast{}, c.probeFanout, lat, rng, esc); err != nil {
				panic(err)
			}
		}
	})
	m["eventsim.run_ns_per_node"] = evNS / float64(c.n)
	m["eventsim.run_allocs"] = evAllocs
	m["eventsim.vs_dissem_ratio"] = evNS / idNS

	// Compiling a partition resolves every node's ring arc; a lossy run pays
	// one fault-model call per message copy.
	split, _ := scenario.Builtin("partition-heal")
	compNS, _ := microRow(20, func(iters int) {
		for i := 0; i < iters; i++ {
			if _, err := scenario.Compile(split, o); err != nil {
				panic(err)
			}
		}
	})
	m["scenario.compile_ms"] = compNS / 1e6
	lossy, _ := scenario.Builtin("lossy")
	compiled, err := scenario.Compile(lossy, o)
	if err != nil {
		return nil, err
	}
	st := compiled.NewState()
	faultNS, _ := microRow(400, func(iters int) {
		for i := 0; i < iters; i++ {
			origin, _ := o.RandomAliveOrigin(rng)
			if _, err := dissem.RunScratch(o, origin, core.RingCast{}, c.probeFanout, rng, dissem.Options{SkipLoad: true, Faults: st}, sc); err != nil {
				panic(err)
			}
		}
	})
	m["scenario.faulted_run_ratio"] = faultNS / idNS

	seq := cfg
	seq.Parallelism = 1
	t0 = time.Now()
	if _, err := experiment.SweepOverlay(o, seq); err != nil {
		return nil, err
	}
	m["runner.sweep_speedup_p2"] = time.Since(t0).Seconds() / (batchSweepS / float64(c.sweeps))

	tpr, err := probeIDs(o, c.probeFanout, seed, c.probeFor, tr)
	if err != nil {
		return nil, err
	}
	traceRows(m, tr, float64(pr.units)/pr.wall.Seconds(), float64(tpr.units)/tpr.wall.Seconds())
	if traceOut != "" {
		if err := tr.writeTrace(traceOut, nil); err != nil {
			return nil, err
		}
	}
	return out, nil
}
