// Benchmark harness: one benchmark per table/figure of the paper, plus
// ablation and micro benchmarks. Each figure benchmark measures the cost of
// the experiment's unit of work (a dissemination over the scenario's
// overlay) and reports the figure's headline metric via b.ReportMetric, so
// `go test -bench=.` regenerates both performance and result shape. The
// full paper-scale tables come from `go run ./cmd/ringcast-bench`.
package ringcast_test

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ringcast/internal/churn"
	"ringcast/internal/core"
	"ringcast/internal/cyclon"
	"ringcast/internal/dissem"
	"ringcast/internal/experiment"
	"ringcast/internal/ident"
	"ringcast/internal/lint"
	"ringcast/internal/metrics"
	"ringcast/internal/node"
	"ringcast/internal/pubsub"
	"ringcast/internal/sim"
	"ringcast/internal/stats"
	"ringcast/internal/transport"
	"ringcast/internal/vicinity"
	"ringcast/internal/view"
	"ringcast/internal/wire"
)

// benchN is the population used by the figure benchmarks: large enough for
// the paper's shapes, small enough for -bench runs.
const benchN = 2000

var (
	staticOnce sync.Once
	staticNet  *sim.Network
	staticSnap *dissem.Overlay

	churnOnce sync.Once
	churnNet  *sim.Network
	churnSnap *dissem.Overlay
)

// staticOverlay lazily builds one warmed static network shared by benches.
func staticOverlay(b *testing.B) (*sim.Network, *dissem.Overlay) {
	b.Helper()
	staticOnce.Do(func() {
		cfg := sim.DefaultConfig(benchN)
		cfg.Seed = 42
		staticNet = sim.MustNew(cfg)
		staticNet.WarmUp(100, 1000)
		staticSnap = dissem.Snapshot(staticNet)
	})
	return staticNet, staticSnap
}

// churnedOverlay lazily builds one fully turned-over churned network.
func churnedOverlay(b *testing.B) (*sim.Network, *dissem.Overlay) {
	b.Helper()
	churnOnce.Do(func() {
		cfg := sim.DefaultConfig(600)
		cfg.Seed = 17
		churnNet = sim.MustNew(cfg)
		churnNet.RunCycles(100)
		model := churn.Model{Rate: 0.005} // 3 nodes per cycle at N=600
		model.RunUntilTurnover(churnNet, 20000)
		churnSnap = dissem.Snapshot(churnNet)
	})
	return churnNet, churnSnap
}

// disseminate runs one dissemination and returns it.
func disseminate(b *testing.B, o *dissem.Overlay, sel core.Selector, f int, rng *rand.Rand) *metrics.Dissemination {
	b.Helper()
	origin, err := o.RandomAliveOrigin(rng)
	if err != nil {
		b.Fatal(err)
	}
	d, err := dissem.RunOpts(o, origin, sel, f, rng, dissem.Options{SkipLoad: true})
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkFig6MissRatio regenerates Figure 6 (miss ratio and complete
// disseminations vs fanout) in the static fail-free network.
func BenchmarkFig6MissRatio(b *testing.B) {
	_, o := staticOverlay(b)
	for _, tc := range []struct {
		name string
		sel  core.Selector
		f    int
	}{
		{"RandCast/F=1", core.RandCast{}, 1},
		{"RandCast/F=3", core.RandCast{}, 3},
		{"RandCast/F=5", core.RandCast{}, 5},
		{"RandCast/F=10", core.RandCast{}, 10},
		{"RingCast/F=1", core.RingCast{}, 1},
		{"RingCast/F=3", core.RingCast{}, 3},
		{"RingCast/F=5", core.RingCast{}, 5},
	} {
		b.Run(tc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			var acc metrics.Accumulator
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				acc.Add(disseminate(b, o, tc.sel, tc.f, rng))
			}
			agg := acc.Finalize()
			b.ReportMetric(agg.MeanMissRatio*100, "miss%")
			b.ReportMetric(agg.CompleteFraction*100, "complete%")
		})
	}
}

// BenchmarkFig7Progress regenerates Figure 7 (dissemination progress per
// hop): the reported metric is dissemination latency in hops.
func BenchmarkFig7Progress(b *testing.B) {
	_, o := staticOverlay(b)
	for _, tc := range []struct {
		name string
		sel  core.Selector
		f    int
	}{
		{"RandCast/F=2", core.RandCast{}, 2},
		{"RingCast/F=2", core.RingCast{}, 2},
		{"RandCast/F=10", core.RandCast{}, 10},
		{"RingCast/F=10", core.RingCast{}, 10},
	} {
		b.Run(tc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			totalHops := 0
			for i := 0; i < b.N; i++ {
				d := disseminate(b, o, tc.sel, tc.f, rng)
				totalHops += d.Hops()
			}
			b.ReportMetric(float64(totalHops)/float64(b.N), "hops")
		})
	}
}

// BenchmarkFig8Overhead regenerates Figure 8 (messages to virgin vs
// already-notified nodes).
func BenchmarkFig8Overhead(b *testing.B) {
	_, o := staticOverlay(b)
	for _, tc := range []struct {
		name string
		sel  core.Selector
	}{
		{"RandCast/F=5", core.RandCast{}},
		{"RingCast/F=5", core.RingCast{}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			var virgin, redundant float64
			for i := 0; i < b.N; i++ {
				d := disseminate(b, o, tc.sel, 5, rng)
				virgin += float64(d.Virgin)
				redundant += float64(d.Redundant)
			}
			b.ReportMetric(virgin/float64(b.N), "virgin-msgs")
			b.ReportMetric(redundant/float64(b.N), "redundant-msgs")
		})
	}
}

// BenchmarkFig9Catastrophic regenerates Figure 9 (miss ratio after a
// catastrophic failure of 5% of the nodes).
func BenchmarkFig9Catastrophic(b *testing.B) {
	_, base := staticOverlay(b)
	damaged := base.Clone()
	damaged.KillFraction(0.05, rand.New(rand.NewSource(9)))
	for _, tc := range []struct {
		name string
		sel  core.Selector
		f    int
	}{
		{"RandCast/F=3", core.RandCast{}, 3},
		{"RingCast/F=3", core.RingCast{}, 3},
		{"RandCast/F=6", core.RandCast{}, 6},
		{"RingCast/F=6", core.RingCast{}, 6},
	} {
		b.Run(tc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(4))
			var acc metrics.Accumulator
			for i := 0; i < b.N; i++ {
				acc.Add(disseminate(b, damaged, tc.sel, tc.f, rng))
			}
			agg := acc.Finalize()
			b.ReportMetric(agg.MeanMissRatio*100, "miss%")
			b.ReportMetric(agg.MeanLost, "lost-msgs")
		})
	}
}

// BenchmarkFig10ProgressFailure regenerates Figure 10 (progress per hop
// after a 5% catastrophic failure): reported metric is hops to completion.
func BenchmarkFig10ProgressFailure(b *testing.B) {
	_, base := staticOverlay(b)
	damaged := base.Clone()
	damaged.KillFraction(0.05, rand.New(rand.NewSource(10)))
	for _, tc := range []struct {
		name string
		sel  core.Selector
		f    int
	}{
		{"RandCast/F=5", core.RandCast{}, 5},
		{"RingCast/F=5", core.RingCast{}, 5},
	} {
		b.Run(tc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(5))
			totalHops := 0
			for i := 0; i < b.N; i++ {
				totalHops += disseminate(b, damaged, tc.sel, tc.f, rng).Hops()
			}
			b.ReportMetric(float64(totalHops)/float64(b.N), "hops")
		})
	}
}

// BenchmarkFig11Churn regenerates Figure 11 (miss ratio under continuous
// churn after full population turnover).
func BenchmarkFig11Churn(b *testing.B) {
	_, o := churnedOverlay(b)
	for _, tc := range []struct {
		name string
		sel  core.Selector
		f    int
	}{
		{"RandCast/F=3", core.RandCast{}, 3},
		{"RingCast/F=3", core.RingCast{}, 3},
		{"RandCast/F=6", core.RandCast{}, 6},
		{"RingCast/F=6", core.RingCast{}, 6},
	} {
		b.Run(tc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(6))
			var acc metrics.Accumulator
			for i := 0; i < b.N; i++ {
				acc.Add(disseminate(b, o, tc.sel, tc.f, rng))
			}
			agg := acc.Finalize()
			b.ReportMetric(agg.MeanMissRatio*100, "miss%")
		})
	}
}

// BenchmarkFig12Lifetimes regenerates Figure 12 (node lifetime
// distribution): measures histogram construction over the churned network
// and reports the population's median lifetime.
func BenchmarkFig12Lifetimes(b *testing.B) {
	nw, _ := churnedOverlay(b)
	b.ReportAllocs()
	var median float64
	for i := 0; i < b.N; i++ {
		lts := churn.Lifetimes(nw)
		h := stats.NewIntHistogram()
		h.AddAll(lts)
		fs := make([]float64, len(lts))
		for j, v := range lts {
			fs[j] = float64(v)
		}
		median = stats.Percentile(fs, 50)
	}
	b.ReportMetric(median, "median-lifetime")
}

// BenchmarkFig13MissByLifetime regenerates Figure 13 (lifetime distribution
// of non-notified nodes): reports the share of RingCast misses younger than
// 20 cycles — the paper's key qualitative claim.
func BenchmarkFig13MissByLifetime(b *testing.B) {
	nw, o := churnedOverlay(b)
	byID := churn.LifetimeByID(nw)
	for _, tc := range []struct {
		name string
		sel  core.Selector
		f    int
	}{
		{"RandCast/F=3", core.RandCast{}, 3},
		{"RingCast/F=3", core.RingCast{}, 3},
	} {
		b.Run(tc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(7))
			young, total := 0, 0
			for i := 0; i < b.N; i++ {
				origin, err := o.RandomAliveOrigin(rng)
				if err != nil {
					b.Fatal(err)
				}
				d, err := dissem.RunOpts(o, origin, tc.sel, tc.f, rng,
					dissem.Options{SkipLoad: true, RecordMissed: true})
				if err != nil {
					b.Fatal(err)
				}
				for _, id := range d.Missed {
					total++
					if byID[id] <= 20 {
						young++
					}
				}
			}
			if total > 0 {
				b.ReportMetric(float64(young)/float64(total)*100, "young-miss%")
			}
		})
	}
}

// BenchmarkLoadDistribution regenerates the Section 7 uniform-load claim:
// reported metric is the Gini coefficient of per-node sent messages.
func BenchmarkLoadDistribution(b *testing.B) {
	_, o := staticOverlay(b)
	for _, tc := range []struct {
		name string
		sel  core.Selector
	}{
		{"RandCast/F=5", core.RandCast{}},
		{"RingCast/F=5", core.RingCast{}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(8))
			sent := make([]int, o.N())
			for i := 0; i < b.N; i++ {
				origin, err := o.RandomAliveOrigin(rng)
				if err != nil {
					b.Fatal(err)
				}
				d, err := dissem.Run(o, origin, tc.sel, 5, rng)
				if err != nil {
					b.Fatal(err)
				}
				for j, s := range d.SentPerNode {
					sent[j] += s
				}
			}
			g, err := stats.Gini(sent)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(g, "gini")
		})
	}
}

// BenchmarkHararyBaselines regenerates the Section 3 flooding-overlay
// comparison (one full baseline table per iteration).
func BenchmarkHararyBaselines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunFloodBaselines(128, 20, int64(i+1), 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationVicinityFeed measures ring construction with and without
// the CYCLON candidate feed (DESIGN.md ablation); metric is cycles to
// convergence with the feed enabled.
func BenchmarkAblationVicinityFeed(b *testing.B) {
	var cyclesWith float64
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunFeedAblation(300, 400, int64(i+1), 0)
		if err != nil {
			b.Fatal(err)
		}
		cyclesWith += float64(res.WithFeedCycles)
	}
	b.ReportMetric(cyclesWith/float64(b.N), "cycles-to-ring")
}

// BenchmarkAblationCyclonSelection measures stale-link pollution under
// churn for age-based vs random peer selection.
func BenchmarkAblationCyclonSelection(b *testing.B) {
	var stale float64
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunSelectionAblation(300, 40, 0.01, int64(i+1), 0)
		if err != nil {
			b.Fatal(err)
		}
		stale += res.StaleFractionOldest
	}
	b.ReportMetric(stale/float64(b.N)*100, "stale-links%")
}

// BenchmarkAblationMultiRing measures RINGCAST reliability with k=1..3
// rings after a 10% catastrophic failure (Section 8 extension).
func BenchmarkAblationMultiRing(b *testing.B) {
	for _, k := range []int{1, 2, 3} {
		b.Run(map[int]string{1: "k=1", 2: "k=2", 3: "k=3"}[k], func(b *testing.B) {
			var miss float64
			for i := 0; i < b.N; i++ {
				rows, err := experiment.RunMultiRingAblation(1000, 5, 2, []int{k}, 0.10, int64(i+1), 0)
				if err != nil {
					b.Fatal(err)
				}
				miss += rows[0].Agg.MeanMissRatio
			}
			b.ReportMetric(miss/float64(b.N)*100, "miss%")
		})
	}
}

// BenchmarkRunStaticParallel measures the parallel sweep engine over one
// pre-warmed frozen overlay: the full (protocol, fanout, run) unit grid of
// a static experiment at each parallelism level. P=1 is the reference
// sequential path; the engine's work units are independent and lock-free on
// the hot path, so wall-clock should shrink near-linearly up to the
// physical core count (>= 2x on >= 4 cores). Results are bit-identical
// across levels (see TestStaticParallelDeterminism).
func BenchmarkRunStaticParallel(b *testing.B) {
	_, o := staticOverlay(b)
	cfg := experiment.Scaled(benchN, 20)
	cfg.Fanouts = []int{1, 2, 3, 5, 8}
	levels := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n != 1 && n != 2 && n != 4 {
		levels = append(levels, n)
	}
	for _, p := range levels {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			c := cfg
			c.Parallelism = p
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rows, err := experiment.SweepOverlay(o, c)
				if err != nil {
					b.Fatal(err)
				}
				if len(rows) != len(c.Fanouts) {
					b.Fatalf("sweep returned %d rows, want %d", len(rows), len(c.Fanouts))
				}
			}
		})
	}
}

// --- micro benchmarks for the substrates ---

// BenchmarkGossipCycle measures one full simulator cycle (CYCLON +
// VICINITY for every node) at N=2000.
func BenchmarkGossipCycle(b *testing.B) {
	nw, _ := staticOverlay(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.Cycle()
	}
}

// BenchmarkCyclonShuffle measures a single CYCLON shuffle round trip.
func BenchmarkCyclonShuffle(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	cfg := cyclon.DefaultConfig()
	p := cyclon.MustNew(1, "", cfg)
	q := cyclon.MustNew(2, "", cfg)
	for i := 0; i < 40; i++ {
		p.AddContact(ident.ID(i+3), "")
		q.AddContact(ident.ID(i+50), "")
	}
	p.AddContact(2, "")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sh, ok := p.StartShuffle(rng)
		if !ok {
			b.Fatal("empty view")
		}
		reply := q.HandleRequest(sh.Sent, rng)
		p.HandleReply(sh, reply)
		p.AddContact(sh.Peer.Node, "") // keep the view populated
	}
}

// BenchmarkVicinityMerge measures one VICINITY merge with a full candidate
// pool (own view + exchange payload + CYCLON feed).
func BenchmarkVicinityMerge(b *testing.B) {
	v := vicinity.MustNew(1<<32, "", vicinity.DefaultConfig(), vicinity.RingDistance)
	cands := make([]view.Entry, 20)
	feed := make([]view.Entry, 20)
	for i := range cands {
		cands[i] = view.Entry{Node: ident.ID(i*7919 + 13)}
		feed[i] = view.Entry{Node: ident.ID(i*104729 + 7)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Merge(cands, feed)
	}
}

// BenchmarkWireMarshal measures frame encoding.
func BenchmarkWireMarshal(b *testing.B) {
	f := &wire.Frame{
		Kind:     wire.KindShuffleRequest,
		From:     12345,
		FromAddr: "10.0.0.1:7000",
		Seq:      99,
	}
	for i := 0; i < 8; i++ {
		f.Entries = append(f.Entries, view.Entry{Node: ident.ID(i + 1), Addr: "10.0.0.2:7000", Age: uint32(i)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wire.Marshal(f); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireUnmarshal measures frame decoding.
func BenchmarkWireUnmarshal(b *testing.B) {
	f := &wire.Frame{
		Kind:     wire.KindGossip,
		From:     12345,
		FromAddr: "10.0.0.1:7000",
		Msg:      &wire.Message{ID: wire.MsgID{Origin: 12345, Seq: 1}, Body: make([]byte, 256)},
	}
	buf, err := wire.Marshal(f)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wire.Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDisseminationRun measures one RINGCAST dissemination over the
// shared 2000-node snapshot.
func BenchmarkDisseminationRun(b *testing.B) {
	_, o := staticOverlay(b)
	rng := rand.New(rand.NewSource(11))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		disseminate(b, o, core.RingCast{}, 3, rng)
	}
}

// BenchmarkDisseminationRunScratch is BenchmarkDisseminationRun on the
// engine's pooled-scratch path — the configuration the parallel sweep
// actually runs, where the per-run buffers (notified bitmap, frontier
// queues, selection pools) are reused across every run of a sweep unit.
func BenchmarkDisseminationRunScratch(b *testing.B) {
	_, o := staticOverlay(b)
	rng := rand.New(rand.NewSource(11))
	sc := dissem.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		origin, err := o.RandomAliveOrigin(rng)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dissem.RunScratch(o, origin, core.RingCast{}, 3, rng,
			dissem.Options{SkipLoad: true}, sc); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Live soak benchmarks (PR 3): the deployable runtime under a deliberately
// slow subscriber. N peers x T topics over a real fabric, every peer
// subscribed to every topic, one peer's delivery callback wedged. The
// headline metrics are the publisher's worst-case Publish latency (which the
// async per-peer send pipeline keeps bounded — the old synchronous transport
// blocked it for multiples of the 10s write timeout once the slow peer's
// buffers filled) and the backpressure drops accounted in transport.Stats.
// Results are archived in BENCH_PR3.json.

// soakTopics and soakSlowIdx parameterize the soak population.
const (
	soakPeers   = 6
	soakSlowIdx = 5
	soakBody    = 4 << 10
	soakRounds  = 40 // publishes per topic per iteration
)

var soakTopicNames = []string{"alpha", "beta", "gamma"}

// buildSoakPeers assembles the soak population on the chosen fabric. The
// slow peer's deliver callback stalls hard; healthy deliveries are counted.
func buildSoakPeers(b *testing.B, useTCP bool, counts []atomic.Int64, release chan struct{}) []*pubsub.Peer {
	b.Helper()
	var fabric *transport.InMemNetwork
	if !useTCP {
		fabric = transport.NewInMemNetwork()
	}
	peers := make([]*pubsub.Peer, soakPeers)
	for i := 0; i < soakPeers; i++ {
		var base transport.Transport
		if useTCP {
			tr, err := transport.ListenTCP("127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			base = tr
		} else {
			ep, err := fabric.Endpoint(fmt.Sprintf("soak%02d", i))
			if err != nil {
				b.Fatal(err)
			}
			base = ep
		}
		cfg := node.DefaultConfig()
		cfg.GossipInterval = time.Hour // views are warmed manually below
		cfg.Fanout = 3
		cfg.Seed = int64(i + 1)
		p, err := pubsub.NewPeer(base, cfg)
		if err != nil {
			b.Fatal(err)
		}
		peers[i] = p
	}
	bootstrap := make([]string, soakPeers)
	for i, p := range peers {
		bootstrap[i] = p.Addr()
	}
	for i, p := range peers {
		i := i
		deliver := func(pubsub.Event) {
			if i == soakSlowIdx {
				<-release // the wedged subscriber: consumes nothing until released
				return
			}
			counts[i].Add(1)
		}
		for _, topic := range soakTopicNames {
			if err := p.Subscribe(topic, bootstrap, deliver); err != nil {
				b.Fatal(err)
			}
		}
	}
	for cycle := 0; cycle < 30; cycle++ {
		for _, p := range peers {
			p.GossipNow()
		}
		time.Sleep(2 * time.Millisecond)
	}
	return peers
}

// benchmarkSoak runs b.N iterations of soakRounds publishes per topic from a
// healthy peer, waiting each iteration for every healthy subscriber to
// deliver everything published so far. Reported metrics: worst-case Publish
// latency, frames shed under backpressure (transport.Stats.Drops +
// .Rejects), and local-congestion refusals observed by the nodes.
func benchmarkSoak(b *testing.B, useTCP bool) {
	counts := make([]atomic.Int64, soakPeers)
	release := make(chan struct{})
	peers := buildSoakPeers(b, useTCP, counts, release)
	defer func() {
		close(release) // unwedge the slow peer so Close can drain
		for _, p := range peers {
			p.Close()
		}
	}()

	body := make([]byte, soakBody)
	published := int64(0)
	var maxPub time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		for r := 0; r < soakRounds; r++ {
			for _, topic := range soakTopicNames {
				begin := time.Now()
				_, err := peers[0].Publish(topic, body)
				if d := time.Since(begin); d > maxPub {
					maxPub = d
				}
				if err != nil {
					b.Fatalf("publish: %v", err)
				}
				published++
			}
		}
		// Every healthy subscriber must see every message despite the wedged
		// peer; the origin delivers locally, so it is counted too.
		deadline := time.Now().Add(30 * time.Second)
		for i := 0; i < soakPeers; i++ {
			if i == soakSlowIdx {
				continue
			}
			for counts[i].Load() < published {
				if time.Now().After(deadline) {
					b.Fatalf("healthy peer %d delivered %d/%d — slow peer stalled the overlay",
						i, counts[i].Load(), published)
				}
				time.Sleep(200 * time.Microsecond)
			}
		}
	}
	b.StopTimer()
	var shed, queued int64
	var busy uint64
	for _, p := range peers {
		st := p.TransportStats()
		shed += st.Drops + st.Rejects
		queued += st.QueueDepth
		for _, topic := range soakTopicNames {
			if nd, ok := p.Node(topic); ok {
				busy += nd.Stats().QueueFull
			}
		}
	}
	b.ReportMetric(float64(maxPub.Microseconds())/1e3, "maxpub_ms")
	b.ReportMetric(float64(shed), "shed_frames")
	b.ReportMetric(float64(queued), "queued_frames")
	b.ReportMetric(float64(busy), "node_queuefull")
}

// BenchmarkSoakPubSubInMem is the soak over the in-memory fabric: the slow
// peer's inbox overflows and sends to it are shed, while healthy delivery
// latency stays flat.
func BenchmarkSoakPubSubInMem(b *testing.B) { benchmarkSoak(b, false) }

// BenchmarkSoakPubSubTCP is the soak over real TCP loopback: the slow
// peer's kernel buffers fill, its per-peer outbound queues absorb and then
// shed traffic, and — the point of the pipeline — Publish latency at the
// healthy origin stays bounded instead of stalling on the 10s write timeout.
func BenchmarkSoakPubSubTCP(b *testing.B) { benchmarkSoak(b, true) }

// BenchmarkConvergedBootstrap pins the scale axis's bootstrap cost at
// N=1e5, 30 mixing cycles: the reference object-graph path (sim.NewConverged
// + RunCycles + Snapshot, what the scale figure ran through PR 5) against
// the compact shard-parallel engine (sim.BuildConverged) it runs now. Both
// halves produce a frozen arena from the same master seed; the curated
// before/after numbers live in BENCH_PR6.json.
func BenchmarkConvergedBootstrap(b *testing.B) {
	const n = 100_000
	const cycles = 30
	b.Run("engine=reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cfg := sim.DefaultConfig(n)
			cfg.Seed = 42
			nw, err := sim.NewConverged(cfg)
			if err != nil {
				b.Fatal(err)
			}
			nw.RunCycles(cycles)
			o := dissem.Snapshot(nw)
			if o.Arena().LinkCount() == 0 {
				b.Fatal("empty arena")
			}
		}
	})
	b.Run("engine=compact", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cfg := sim.DefaultMixConfig(n)
			cfg.Seed = 42
			cfg.Cycles = cycles
			res, err := sim.BuildConverged(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if res.Convergence != 1 {
				b.Fatalf("ring convergence %v, want 1.0", res.Convergence)
			}
		}
	})
}

// BenchmarkRunScale measures one small scale step end to end: converged
// bootstrap, mixing cycles, arena freeze (compacted snapshot), and the
// three-protocol dissemination sweep. It is the bench-smoke sentinel for
// the million-node engine — the curated large-N numbers live in
// BENCH_PR5.json; this keeps the path exercised and its allocation count
// on the public record every CI run.
func BenchmarkRunScale(b *testing.B) {
	cfg := experiment.ScaleConfig{
		Ns:     []int{2000},
		Fanout: 5,
		Runs:   5,
		Cycles: 10,
		Seed:   42,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunScale(cfg)
		if err != nil {
			b.Fatal(err)
		}
		ring := res.Steps[0].Points[0]
		if ring.HitRatio != 1 {
			b.Fatalf("ringcast hit ratio %v at N=2000", ring.HitRatio)
		}
		b.ReportMetric(ring.Hops.Mean, "hops")
		b.ReportMetric(float64(res.Steps[0].HeapBytes)/(1<<20), "heapMB")
	}
}

// BenchmarkLintModule measures the static-analysis suite over this
// repository end to end through lint.Check, the same entry point as
// `ringcast-lint ./...`: module load and typecheck, call graph construction,
// the fact fixpoint, the analyzers through the waiver filter, and the
// allocbudget escape gate (whose `go build -gcflags=-m` over the hot-path
// packages replays from the build cache). It is the bench-smoke sentinel for
// the lint layer — the fixpoint and the interface dispatch resolution are
// the superlinear risks as the tree grows, and one archived iteration per CI
// run keeps their wall clock on the public record.
func BenchmarkLintModule(b *testing.B) {
	root, err := filepath.Abs(".")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		diags, err := lint.Check(root, filepath.Join(root, "internal/lint/allocs.baseline"), "./...")
		if err != nil {
			b.Fatal(err)
		}
		if len(diags) != 0 {
			b.Fatalf("lint findings during benchmark: %v", diags)
		}
	}
}
