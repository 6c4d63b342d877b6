package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	"ringcast/internal/ident"
	"ringcast/internal/node"
	"ringcast/internal/transport"
)

// liveConfig sizes one live-stack workload. The unit of work is one
// dissemination: a message published at one node and delivered at all n.
type liveConfig struct {
	name string
	n    int  // fleet size, at most 64 (one delivery bit per node)
	tcp  bool // loopback TCP sockets; otherwise the in-memory fabric
	body int  // payload bytes, at least 8 (the op index leads the body)
	// gossip is the cycle length set after set-up; 0 leaves the ticker
	// parked so views stay frozen and per-dissemination counts repeat.
	gossip      time.Duration
	setupRounds int           // paced full-fleet GossipNow rounds per set-up
	setups      int           // set-ups per run; setup_s is their median
	warmOps     int           // untimed closed-loop disseminations before phase A
	inflight    int           // closed-loop window (phase A)
	batch       int           // closed-loop completions per wall_s sample
	rate        float64       // open-loop offered rate, 1/s (phase B)
	timeout     time.Duration // an op not complete by then has failed
	// closedFor and openFor bound the two phases by time; closedOps and
	// openOps, when non-zero, bound them by count instead (tests).
	closedFor, openFor time.Duration
	closedOps, openOps int
}

// closedLimit caps a time-boxed closed loop at 20,000 disseminations a
// second, several times what either fleet completes.
func (c liveConfig) closedLimit() int { return int(c.closedFor.Seconds()*20000) + c.inflight }

const (
	opChunk     = 4096
	maxOpChunks = 4096 // 16.7M disseminations per fleet
)

// op returns op k's state, or nil when k was never published.
func (f *fleet) op(k uint64) *opState {
	if k >= opChunk*maxOpChunks || f.ops[k/opChunk] == nil {
		return nil
	}
	return &f.ops[k/opChunk][k%opChunk]
}

// opState tracks one dissemination. The deliver callbacks touch only mask
// (one CAS per delivery) until the last delivery closes the op.
type opState struct {
	mask   atomic.Uint64 // bit i set: node i delivered
	status atomic.Int32  // 0 open, 1 complete, 2 failed
	start  int64         // ns since fleet epoch: due time (open loop) or publish time
	done   int64         // ns since fleet epoch of the n-th delivery
}

const (
	opOpen int32 = iota
	opComplete
	opFailed
)

// fleet is n live nodes in one process plus the harness state that checks
// every delivery.
type fleet struct {
	cfg   liveConfig
	net   *transport.InMemNetwork
	nodes []*node.Node
	ids   []ident.ID
	full  uint64 // mask with one bit per node
	epoch time.Time
	tail  []byte // payload bytes after the 8-byte op index, shared by all ops
	order []int  // origin order, a seeded permutation cycled round-robin
	tr    *tracer

	// ops holds every dissemination of the fleet's lifetime in chunks the
	// generator allocates as it goes, so the table costs what was published
	// and no more. Each phase takes the next stretch of indices, so a
	// straggler from one phase never lands in another.
	ops       [maxOpChunks]*[opChunk]opState
	nextOp    int
	tokens    chan struct{} // closed-loop window; cap = inflight
	completed atomic.Int64
	batch     int64          // completions per batch mark; 0 marks none
	batchAt   []atomic.Int64 // ns since epoch of every batch-th completion (phase A)

	// Verification counters: any non-zero value makes the run incorrect.
	dupDeliveries atomic.Int64 // a (message, node) pair delivered twice
	badDeliveries atomic.Int64 // body corrupted or op index out of range

	hopSum atomic.Int64 // sum of Delivery.Msg.Hop, traced pass only
	hopMax atomic.Int64
}

func (f *fleet) now() int64 { return int64(time.Since(f.epoch)) }

// newFleet listens, creates the nodes and starts their (parked) tickers.
// Node idents, per-node seeds, payload bytes and the origin order all derive
// from seed.
func newFleet(cfg liveConfig, seed int64, tr *tracer) (*fleet, error) {
	if cfg.n < 2 || cfg.n > 64 {
		return nil, fmt.Errorf("fleet size %d outside 2..64", cfg.n)
	}
	if cfg.body < 8 {
		return nil, fmt.Errorf("body %d B cannot carry the op index", cfg.body)
	}
	rng := rand.New(rand.NewSource(seed))
	f := &fleet{
		cfg:    cfg,
		full:   ^uint64(0) >> (64 - uint(cfg.n)),
		epoch:  time.Now(),
		tail:   make([]byte, cfg.body-8),
		order:  rng.Perm(cfg.n),
		tokens: make(chan struct{}, cfg.inflight),
		tr:     tr,
	}
	rng.Read(f.tail)
	if !cfg.tcp {
		f.net = transport.NewInMemNetwork()
	}
	gen := ident.NewGenerator(seed)
	for i := 0; i < cfg.n; i++ {
		var base transport.Transport
		var err error
		if cfg.tcp {
			base, err = transport.ListenTCP("127.0.0.1:0")
		} else {
			base, err = f.net.Endpoint(fmt.Sprintf("n%02d", i))
		}
		if err != nil {
			f.close()
			return nil, err
		}
		if tr != nil {
			tr.addrOf[base.Addr()] = int32(i)
			base = &tracedTransport{inner: base, node: int32(i), tr: tr}
		}
		nc := node.DefaultConfig()
		nc.ID = gen.Next()
		nc.Seed = seed*1000 + int64(i) + 1
		nc.GossipInterval = time.Hour // parked: set-up gossips with GossipNow
		nd, err := node.New(nc, base, f.deliverFn(i))
		if err != nil {
			base.Close()
			f.close()
			return nil, err
		}
		f.nodes = append(f.nodes, nd)
		f.ids = append(f.ids, nd.ID())
		if err := nd.Start(); err != nil {
			f.close()
			return nil, err
		}
	}
	if tr != nil {
		tr.bind(f.ids)
	}
	return f, nil
}

// close stops every node; a node the caller already closed is skipped by
// node.Close's own idempotence.
func (f *fleet) close() {
	for _, nd := range f.nodes {
		nd.Close()
	}
}

// deliverFn is node i's delivery callback: one CAS on the op's mask, plus a
// body comparison that is the output check. Only the delivery that fills the
// mask takes a timestamp.
func (f *fleet) deliverFn(i int) node.DeliverFunc {
	bit := uint64(1) << uint(i)
	return func(d node.Delivery) {
		body := d.Msg.Body
		if len(body) != f.cfg.body || !bytes.Equal(body[8:], f.tail) {
			f.badDeliveries.Add(1)
			return
		}
		k := binary.LittleEndian.Uint64(body)
		op := f.op(k)
		if op == nil {
			f.badDeliveries.Add(1)
			return
		}
		if f.tr != nil && f.tr.on.Load() {
			f.tr.delivered(int32(k), int32(i))
			hop := int64(d.Msg.Hop)
			f.hopSum.Add(hop)
			for {
				cur := f.hopMax.Load()
				if hop <= cur || f.hopMax.CompareAndSwap(cur, hop) {
					break
				}
			}
		}
		for {
			old := op.mask.Load()
			if old&bit != 0 {
				f.dupDeliveries.Add(1)
				return
			}
			if !op.mask.CompareAndSwap(old, old|bit) {
				continue
			}
			if old|bit == f.full {
				f.complete(op)
			}
			return
		}
	}
}

// complete closes an op on its n-th delivery and hands the closed-loop
// window its slot back.
func (f *fleet) complete(op *opState) {
	// Exactly one delivery fills the mask, so done has one writer; the CAS
	// publishes it to whoever reads the status afterwards.
	op.done = f.now()
	if !op.status.CompareAndSwap(opOpen, opComplete) {
		return // already timed out: the failure stands
	}
	c := f.completed.Add(1)
	if b := f.batch; b > 0 && c%b == 0 {
		if slot := int(c/b) - 1; slot < len(f.batchAt) {
			f.batchAt[slot].Store(op.done)
		}
	}
	select {
	case f.tokens <- struct{}{}:
	default: // open loop: nobody is waiting for a slot
	}
}

// fleetCounters sums the counters of every node and transport.
type fleetCounters struct {
	node node.Stats
	tr   transport.Stats
}

func (f *fleet) counters() fleetCounters {
	var c fleetCounters
	for _, nd := range f.nodes {
		s := nd.Stats()
		c.node.Published += s.Published
		c.node.Delivered += s.Delivered
		c.node.Duplicates += s.Duplicates
		c.node.Forwarded += s.Forwarded
		c.node.SendErrors += s.SendErrors
		c.node.QueueFull += s.QueueFull
		c.node.Shuffles += s.Shuffles
		c.node.VicExchanges += s.VicExchanges
		t := nd.TransportStats()
		c.tr.FramesSent += t.FramesSent
		c.tr.BytesSent += t.BytesSent
		c.tr.QueueDepth += t.QueueDepth
		c.tr.Writers += t.Writers
		c.tr.Drops += t.Drops
		c.tr.Rejects += t.Rejects
		c.tr.DialFailures += t.DialFailures
	}
	return c
}

// minus returns the counters accumulated since earlier was read. The two
// gauges (queue depth, writers) are not cumulative and are left out.
func (c fleetCounters) minus(earlier fleetCounters) fleetCounters {
	return fleetCounters{
		node: node.Stats{
			Published:    c.node.Published - earlier.node.Published,
			Delivered:    c.node.Delivered - earlier.node.Delivered,
			Duplicates:   c.node.Duplicates - earlier.node.Duplicates,
			Forwarded:    c.node.Forwarded - earlier.node.Forwarded,
			SendErrors:   c.node.SendErrors - earlier.node.SendErrors,
			QueueFull:    c.node.QueueFull - earlier.node.QueueFull,
			Shuffles:     c.node.Shuffles - earlier.node.Shuffles,
			VicExchanges: c.node.VicExchanges - earlier.node.VicExchanges,
		},
		tr: transport.Stats{
			FramesSent:   c.tr.FramesSent - earlier.tr.FramesSent,
			BytesSent:    c.tr.BytesSent - earlier.tr.BytesSent,
			Drops:        c.tr.Drops - earlier.tr.Drops,
			Rejects:      c.tr.Rejects - earlier.tr.Rejects,
			DialFailures: c.tr.DialFailures - earlier.tr.DialFailures,
		},
	}
}

// waitFor polls cond until it holds or limit passes. It sleeps in short
// steps: the harness shares two cores with the fleet and must not spin.
func waitFor(limit time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(limit)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(50 * time.Microsecond)
	}
	return true
}

// roundWait bounds how long set-up waits for one round's replies. A round
// whose frames were all accepted finishes in well under a millisecond; the
// bound only matters when a full inbox or queue swallowed a droppable frame.
const roundWait = 20 * time.Millisecond

// converge joins every node to node 0 (the paper's star bootstrap) and runs
// paced full-fleet gossip rounds until the configured count is done, then
// asserts that every node's d-links are its true ring neighbours. Rounds are
// paced on the transports' frame counters: a round is over when every
// request it initiated has been answered. It returns the mean round time.
func (f *fleet) converge() (roundMS float64, err error) {
	before := f.counters()
	boot := f.nodes[0].Addr()
	for _, nd := range f.nodes[1:] {
		if err := nd.Join(boot); err != nil {
			return 0, err
		}
	}
	hellos := int64(2 * (len(f.nodes) - 1)) // Hello + HelloAck
	waitFor(time.Second, func() bool {
		return f.counters().minus(before).tr.FramesSent >= hellos
	})
	start := time.Now()
	for r := 0; r < f.cfg.setupRounds; r++ {
		before = f.counters()
		for _, nd := range f.nodes {
			nd.GossipNow()
		}
		sent := f.counters().minus(before).node
		requests := int64(sent.Shuffles + sent.VicExchanges - sent.SendErrors)
		waitFor(roundWait, func() bool {
			return f.counters().minus(before).tr.FramesSent >= 2*requests
		})
	}
	roundMS = time.Since(start).Seconds() * 1000 / float64(f.cfg.setupRounds)

	// The last replies may still be in a handler; give them a moment before
	// judging the ring.
	var bad int
	ok := waitFor(time.Second, func() bool {
		bad = f.ringErrors()
		return bad == 0
	})
	if !ok {
		return roundMS, fmt.Errorf("%s: ring not converged after %d rounds: %d of %d nodes have wrong d-links",
			f.cfg.name, f.cfg.setupRounds, bad, len(f.nodes))
	}
	return roundMS, nil
}

// ringErrors counts nodes whose d-links are not their true predecessor and
// successor in ring-ident order.
func (f *fleet) ringErrors() int {
	sorted := append([]ident.ID(nil), f.ids...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	pos := make(map[ident.ID]int, len(sorted))
	for p, id := range sorted {
		pos[id] = p
	}
	n := len(sorted)
	bad := 0
	for _, nd := range f.nodes {
		p := pos[nd.ID()]
		pred, succ, ok := nd.RingNeighbors()
		if !ok || pred.Node != sorted[(p-1+n)%n] || succ.Node != sorted[(p+1)%n] {
			bad++
		}
	}
	return bad
}

// setUp builds a converged fleet, timed from the first listen to the ring
// assertion.
func setUp(cfg liveConfig, seed int64, tr *tracer) (f *fleet, setupS, roundMS float64, err error) {
	start := time.Now()
	f, err = newFleet(cfg, seed, tr)
	if err != nil {
		return nil, 0, 0, err
	}
	roundMS, err = f.converge()
	if err != nil {
		f.close()
		return nil, 0, 0, err
	}
	return f, time.Since(start).Seconds(), roundMS, nil
}

// publish originates op k at its round-robin origin. A refused publish is a
// failed operation, not a skipped one. The body is fresh per op: the node
// may keep it.
func (f *fleet) publish(k int, start int64) {
	if f.ops[k/opChunk] == nil {
		f.ops[k/opChunk] = new([opChunk]opState)
	}
	f.ops[k/opChunk][k%opChunk].start = start
	body := make([]byte, f.cfg.body)
	binary.LittleEndian.PutUint64(body, uint64(k))
	copy(body[8:], f.tail)
	origin := f.order[k%len(f.order)]
	var sp int64 = -1
	if sampled(int32(k)) {
		sp = f.tr.begin(spanPublish, int32(k), int32(origin), -1)
	}
	id, err := f.nodes[origin].Publish(body)
	if sp >= 0 {
		f.tr.end(sp)
		f.tr.msgIDs[int32(k)] = id
	}
	if err != nil {
		f.op(uint64(k)).status.CompareAndSwap(opOpen, opFailed)
	}
}

// phaseResult is what one load phase measured.
type phaseResult struct {
	attempted, failed int
	wall              time.Duration // first publish to last completion or failure
	cpu               time.Duration
	mem               memCounters // allocation deltas
	delta             fleetCounters
	latMS             []float64 // per completed op, in op order
	lagMS             []float64 // open loop: how late each publish was, ascending
	batchS            []float64 // closed loop: wall time of each full batch
}

func (r phaseResult) completed() int { return r.attempted - r.failed }

// expire fails every op in [lo, hi) that is still open after the timeout.
// It returns the first op that is still open and how many it failed.
func (f *fleet) expire(lo, hi int) (newLo, expired int) {
	now := f.now()
	for k := lo; k < hi; k++ {
		op := f.op(uint64(k))
		if op.status.Load() == opOpen && now-op.start > int64(f.cfg.timeout) &&
			op.status.CompareAndSwap(opOpen, opFailed) {
			expired++
		}
	}
	for lo < hi && f.op(uint64(lo)).status.Load() != opOpen {
		lo++
	}
	return lo, expired
}

// drain waits for ops [lo, hi) to close, failing those that outlive the
// timeout.
func (f *fleet) drain(lo, hi int) {
	for lo < hi {
		lo, _ = f.expire(lo, hi)
		if lo < hi {
			time.Sleep(200 * time.Microsecond)
		}
	}
}

// settle waits until every accepted gossip copy has been handled, so the
// counter deltas of a phase cover whole disseminations. On a fabric that
// dropped frames the balance never closes and the wait gives up.
func (f *fleet) settle() {
	waitFor(f.cfg.timeout, func() bool {
		c := f.counters().node
		return c.Forwarded == c.Delivered+c.Duplicates
	})
}

// measure runs a phase body between two readings of the process and fleet
// counters. body publishes ops from index base on and returns the index
// after the last one it attempted.
func (f *fleet) measure(body func(base int) (end int)) phaseResult {
	base := f.nextOp
	f.completed.Store(0)
	for len(f.tokens) > 0 {
		<-f.tokens
	}
	before := f.counters()
	mem0 := readMem()
	cpu0 := cpuTime()
	start := time.Now()

	end := body(base)

	res := phaseResult{attempted: end - base, wall: time.Since(start), cpu: cpuTime() - cpu0}
	mem1 := readMem()
	res.mem = memCounters{mallocs: mem1.mallocs - mem0.mallocs, bytes: mem1.bytes - mem0.bytes}
	f.settle()
	f.nextOp = end

	res.delta = f.counters().minus(before)
	for k := base; k < end; k++ {
		op := f.op(uint64(k))
		if op.status.Load() == opComplete {
			res.latMS = append(res.latMS, float64(op.done-op.start)/1e6)
		} else {
			res.failed++
		}
	}
	return res
}

// closedLoop is phase A: cfg.inflight disseminations outstanding, the next
// one published when one completes, for cfg.closedFor (or cfg.closedOps).
// Each op is timed from its publish call.
func (f *fleet) closedLoop() phaseResult {
	if f.cfg.closedOps > 0 {
		return f.closed(f.cfg.closedOps, 0, f.cfg.batch)
	}
	return f.closed(f.cfg.closedLimit(), f.cfg.closedFor, f.cfg.batch)
}

// warmUp runs cfg.warmOps closed-loop disseminations before anything is
// timed: connections get dialed, the heap finds its size and the dedup
// caches fill, none of which a long-running fleet pays per message.
func (f *fleet) warmUp() phaseResult { return f.closed(f.cfg.warmOps, 0, 0) }

// closed runs the closed loop for at most limit disseminations, stopping
// when dur has passed if dur is positive, and marks every batch-th
// completion.
func (f *fleet) closed(limit int, dur time.Duration, batch int) phaseResult {
	f.batchAt = make([]atomic.Int64, limit/max(batch, 1)+1)
	f.batch = int64(batch)
	var first int64
	res := f.measure(func(base int) int {
		for i := 0; i < f.cfg.inflight; i++ {
			f.tokens <- struct{}{}
		}
		first = f.now()
		deadline := time.Now().Add(dur)
		tick := time.NewTimer(f.cfg.timeout / 4)
		defer tick.Stop()
		next, lo := base, base
		for next < base+limit && (dur <= 0 || time.Now().Before(deadline)) {
			select {
			case <-f.tokens:
				f.publish(next, f.now())
				if f.op(uint64(next)).status.Load() == opFailed {
					f.tokens <- struct{}{} // a refused publish frees its slot
				}
				next++
			case <-tick.C:
				// No completion for a while: fail what has timed out and
				// take those slots back.
				var expired int
				lo, expired = f.expire(lo, next)
				for ; expired > 0; expired-- {
					f.tokens <- struct{}{}
				}
				tick.Reset(f.cfg.timeout / 4)
			}
		}
		f.drain(lo, next)
		return next
	})
	prev := first
	for i := range f.batchAt {
		at := f.batchAt[i].Load()
		if at == 0 {
			break
		}
		res.batchS = append(res.batchS, float64(at-prev)/1e9)
		prev = at
	}
	return res
}

// openLoop is phase B: one generator goroutine publishes on a fixed
// schedule regardless of completions. Each op is timed from when it was
// due, so a stall charges the ops queued behind it.
func (f *fleet) openLoop() phaseResult {
	interval := time.Duration(float64(time.Second) / f.cfg.rate)
	limit := f.cfg.openOps
	if limit == 0 {
		limit = int(f.cfg.openFor/interval) + 1
	}
	var lag []float64
	res := f.measure(func(base int) int {
		start := f.now()
		end := start + int64(f.cfg.openFor)
		k := base
		for ; k < base+limit; k++ {
			due := start + int64(k-base)*int64(interval)
			if f.cfg.openOps == 0 && due >= end {
				break
			}
			if wait := due - f.now(); wait > 0 {
				time.Sleep(time.Duration(wait))
			}
			lag = append(lag, float64(f.now()-due)/1e6)
			f.publish(k, due)
		}
		f.drain(base, k)
		return k
	})
	sort.Float64s(lag)
	res.lagMS = lag
	return res
}

// verify reports the delivery invariants the harness checked on every
// delivery since the fleet was built.
func (f *fleet) verify() error {
	var errs []error
	if d := f.dupDeliveries.Load(); d > 0 {
		errs = append(errs, fmt.Errorf("%d (message, node) pairs delivered more than once", d))
	}
	if b := f.badDeliveries.Load(); b > 0 {
		errs = append(errs, fmt.Errorf("%d deliveries carried a corrupted body", b))
	}
	return errors.Join(errs...)
}

// gauges samples the transports' instantaneous gauges every 10 ms until
// stopped and keeps the maxima.
type gauges struct {
	stop               chan struct{}
	done               chan struct{}
	queueMax, writeMax int64
}

func (f *fleet) watchGauges() *gauges {
	g := &gauges{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(g.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-g.stop:
				return
			case <-tick.C:
				c := f.counters().tr
				if c.QueueDepth > g.queueMax {
					g.queueMax = c.QueueDepth
				}
				if c.Writers > g.writeMax {
					g.writeMax = c.Writers
				}
			}
		}
	}()
	return g
}

// halt stops the sampler and waits for it; the maxima are safe to read
// afterwards.
func (g *gauges) halt() {
	close(g.stop)
	<-g.done
}

// runLive is one pass of a live workload: set-up (several times), the
// closed loop, the open loop, the output checks.
func runLive(cfg liveConfig, seed int64, traced bool, traceOut string) (*runOutput, error) {
	out := newRunOutput()
	m := out.metrics
	var tr *tracer
	if traced {
		cfg.setups = 1
		tr = newTracer(1 << 21)
		tr.on.Store(false) // the first closed loop is the untraced baseline
	}

	var f *fleet
	var setupS, roundMS []float64
	for i := 0; i < cfg.setups; i++ {
		if f != nil {
			f.close()
		}
		var s, r float64
		var err error
		if f, s, r, err = setUp(cfg, seed, tr); err != nil {
			return nil, err
		}
		setupS = append(setupS, s)
		roundMS = append(roundMS, r)
	}
	defer f.close()
	m["setup_s"] = median(setupS)
	if cfg.gossip > 0 {
		for _, nd := range f.nodes {
			if err := nd.SetGossipInterval(cfg.gossip); err != nil {
				return nil, err
			}
		}
	}

	warm := f.warmUp()
	out.attempted += warm.attempted
	out.failed += warm.failed
	var untraced phaseResult
	var g *gauges
	if traced {
		untraced = f.closedLoop() // same fleet, spans off: the overhead baseline
		out.attempted += untraced.attempted
		out.failed += untraced.failed
		tr.on.Store(true)
		g = f.watchGauges()
	}
	a := f.closedLoop()
	b := f.openLoop()
	if traced {
		g.halt()
		tr.on.Store(false)
	}
	out.attempted += a.attempted + b.attempted
	out.failed += a.failed + b.failed
	if err := f.verify(); err != nil {
		out.fail(err)
	}
	if a.completed() == 0 || len(b.latMS) == 0 {
		return nil, fmt.Errorf("%s: no dissemination completed (closed loop %d of %d, open loop %d of %d)",
			cfg.name, a.completed(), a.attempted, b.completed(), b.attempted)
	}

	ops := float64(a.attempted)
	m["wall_s"] = a.wall.Seconds()
	if len(a.batchS) > 0 {
		m["wall_s"] = median(a.batchS)
	}
	m["dissem_per_s"] = float64(a.completed()) / a.wall.Seconds()
	latencyMetrics(m, b.latMS)
	m["bytes_per_dissem"] = float64(a.delta.tr.BytesSent) / ops
	m["cpu_us_per_dissem"] = float64(a.cpu.Microseconds()) / ops
	m["peak_rss_mb"] = peakRSSMB()
	if !traced {
		return out, nil
	}

	m["transport.frames_per_dissem"] = float64(a.delta.tr.FramesSent) / ops
	m["transport.drops"] = float64(a.delta.tr.Drops + b.delta.tr.Drops)
	m["transport.rejects"] = float64(a.delta.tr.Rejects + b.delta.tr.Rejects)
	m["transport.dial_failures"] = float64(a.delta.tr.DialFailures + b.delta.tr.DialFailures)
	m["transport.queue_depth_max"] = float64(g.queueMax)
	m["transport.writers_max"] = float64(g.writeMax)
	m["node.forwards_per_dissem"] = float64(a.delta.node.Forwarded) / ops
	m["node.duplicates_per_dissem"] = float64(a.delta.node.Duplicates) / ops
	if seen := a.delta.node.Delivered + a.delta.node.Duplicates; seen > 0 {
		m["node.useful_ratio"] = float64(a.delta.node.Delivered) / float64(seen)
	}
	m["node.queue_full"] = float64(a.delta.node.QueueFull + b.delta.node.QueueFull)
	m["node.send_errors"] = float64(a.delta.node.SendErrors + b.delta.node.SendErrors)
	m["node.allocs_per_dissem"] = float64(a.mem.mallocs) / ops
	m["node.alloc_bytes_per_dissem"] = float64(a.mem.bytes) / ops
	m["node.gossip_round_ms"] = median(roundMS)
	if deliveries := float64(a.completed()+b.completed()) * float64(cfg.n); deliveries > 0 {
		m["node.hops_mean"] = float64(f.hopSum.Load()) / deliveries
	}
	m["node.hops_max"] = float64(f.hopMax.Load())
	m["gen.lag_p99_ms"] = quantile(b.lagMS, 0.99)
	m["gen.lag_max_ms"] = b.lagMS[len(b.lagMS)-1]

	spans := tr.recorded()
	parent := parents(spans)
	st := analyzeLive(spans, parent)
	if len(st.transitUS) > 0 {
		m["transport.transit_p50_us"] = quantile(st.transitUS, 0.50)
		m["transport.transit_p99_us"] = quantile(st.transitUS, 0.99)
		m["transport.send_call_p50_us"] = quantile(st.sendCallUS, 0.50)
	}
	if len(st.handlerSelfUS) > 0 {
		m["node.handler_self_p50_us"] = quantile(st.handlerSelfUS, 0.50)
	}
	if st.trees == 0 {
		out.fail(errors.New("traced pass: no dissemination's span tree could be rebuilt to its publish"))
	}
	traceRows(m, tr, float64(untraced.completed())/untraced.wall.Seconds(), float64(a.completed())/a.wall.Seconds())
	if traceOut != "" {
		if err := tr.writeTrace(traceOut, parent); err != nil {
			return nil, err
		}
	}
	return out, nil
}
