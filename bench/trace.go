package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"ringcast/internal/ident"
	"ringcast/internal/transport"
	"ringcast/internal/wire"
)

// Tracing lives in the benchmark, not in the program: spans are opened
// around the calls the harness makes into each layer and around the calls
// the layers make through the bench-owned transport wrapper. Spans are kept
// in one preallocated slice and written out when the run ends.

type spanKind uint8

const (
	spanPublish spanKind = iota // live: node.Publish call
	spanSend                    // live: Transport.Send call for a gossip frame
	spanHandle                  // live: handler invocation for a gossip frame
	spanDeliver                 // live: deliver callback (instant)
	spanBuild                   // sim: overlay construction (mix or warm-up)
	spanFreeze                  // sim: arena freeze / snapshot
	spanRun                     // sim: one dissemination run
	spanFold                    // sim: aggregation fold
)

var spanKindNames = [...]string{"publish", "send", "handle", "deliver", "build", "freeze", "run", "fold"}

// span is one traced interval. For live spans op is the dissemination's op
// index (every span of one dissemination shares it, and through it the
// MsgID), node the index of the node it ran on and peer the other end of a
// send or handle (-1 where there is none).
type span struct {
	kind       spanKind
	op         int32
	node, peer int32
	start, end int64 // ns since the tracer's epoch
}

// traceEvery samples live disseminations: tracing every op of a phase would
// hold several hundred spans per op in memory. One op in traceEvery is
// traced in full; the wrapper still inspects every frame.
const traceEvery = 16

type tracer struct {
	on      atomic.Bool // spans are recorded only while set
	epoch   time.Time
	spans   []span
	next    atomic.Int64
	dropped atomic.Int64 // spans lost because the buffer was full
	nodeOf  map[ident.ID]int32
	addrOf  map[string]int32
	msgIDs  map[int32]wire.MsgID // sampled op -> MsgID, written by the generator only
}

func newTracer(capacity int) *tracer {
	t := &tracer{epoch: time.Now(), spans: make([]span, capacity),
		addrOf: make(map[string]int32), msgIDs: make(map[int32]wire.MsgID)}
	t.on.Store(true)
	return t
}

// bind records the fleet's idents so spans can name peers by node index.
// newFleet records the addresses as it creates the transports.
func (t *tracer) bind(ids []ident.ID) {
	t.nodeOf = make(map[ident.ID]int32, len(ids))
	for i, id := range ids {
		t.nodeOf[id] = int32(i)
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its slot, or -1 when there is no tracer,
// tracing is off or the buffer is full. end accepts any slot begin returns.
func (t *tracer) begin(kind spanKind, op, node, peer int32) int64 {
	if t == nil || !t.on.Load() {
		return -1
	}
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return -1
	}
	t.spans[i] = span{kind: kind, op: op, node: node, peer: peer, start: t.now()}
	return i
}

func (t *tracer) end(i int64) {
	if i >= 0 {
		t.spans[i].end = t.now()
	}
}

func sampled(op int32) bool { return op%traceEvery == 0 }

// delivered records the deliver callback of a sampled op.
func (t *tracer) delivered(op, node int32) {
	if sampled(op) {
		t.end(t.begin(spanDeliver, op, node, -1))
	}
}

// recorded returns the spans written so far.
func (t *tracer) recorded() []span {
	n := t.next.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// tracedTransport is the bench-owned Transport wrapper of the traced pass:
// it opens a span per Send and per handler invocation of a gossip frame.
// Membership frames pass through untouched.
type tracedTransport struct {
	inner transport.Transport
	node  int32
	tr    *tracer
}

var _ transport.Transport = (*tracedTransport)(nil)

// gossipOp extracts the op index the harness put at the head of the body.
func gossipOp(f *wire.Frame) (int32, bool) {
	if f.Kind != wire.KindGossip || f.Msg == nil || len(f.Msg.Body) < 8 {
		return 0, false
	}
	return int32(binary.LittleEndian.Uint64(f.Msg.Body)), true
}

func (t *tracedTransport) Addr() string { return t.inner.Addr() }

func (t *tracedTransport) SetHandler(h transport.Handler) {
	t.inner.SetHandler(func(remote string, f *wire.Frame) {
		op, ok := gossipOp(f)
		if !ok || !sampled(op) {
			h(remote, f)
			return
		}
		sp := t.tr.begin(spanHandle, op, t.node, t.tr.nodeOf[f.From])
		h(remote, f)
		t.tr.end(sp)
	})
}

func (t *tracedTransport) Send(to string, f *wire.Frame) error {
	op, ok := gossipOp(f)
	if !ok || !sampled(op) {
		return t.inner.Send(to, f)
	}
	sp := t.tr.begin(spanSend, op, t.node, t.tr.addrOf[to])
	err := t.inner.Send(to, f)
	t.tr.end(sp)
	return err
}

func (t *tracedTransport) Stats() transport.Stats { return t.inner.Stats() }
func (t *tracedTransport) Close() error           { return t.inner.Close() }

// liveTraceStats is what the span trees of the sampled disseminations yield:
// the three per-hop components along each dissemination's blocking path (the
// chain of sends and handlers that ends at the last node to deliver).
type liveTraceStats struct {
	transitUS     []float64 // Send entry -> peer handler entry
	sendCallUS    []float64 // Send entry -> Send return
	handlerSelfUS []float64 // forwarding handler minus its child Send spans
	trees         int       // disseminations whose tree was rebuilt to the root
}

// parents links every live span to the span that caused it and returns the
// parent index per span (-1 for roots). A send's parent is the span on its
// node that forwarded the message: the publish at the origin, otherwise the
// handler invocation that delivered it (the one whose interval holds the
// deliver callback). A handler's parent is the send that carried the frame.
func parents(spans []span) []int64 {
	type key struct{ op, a, b int32 }
	sendAt := make(map[key]int64)    // (op, from, to) -> send span
	deliverAt := make(map[key]int64) // (op, node) -> deliver time
	causeAt := make(map[key]int64)   // (op, node) -> publish or forwarding handler
	for i, s := range spans {
		switch s.kind {
		case spanSend:
			sendAt[key{s.op, s.node, s.peer}] = int64(i)
		case spanDeliver:
			deliverAt[key{s.op, s.node, 0}] = s.start
		case spanPublish:
			causeAt[key{s.op, s.node, 0}] = int64(i)
		}
	}
	for i, s := range spans {
		if s.kind != spanHandle {
			continue
		}
		at, ok := deliverAt[key{s.op, s.node, 0}]
		if !ok || at < s.start || at > s.end {
			continue // a duplicate: it forwarded nothing
		}
		k := key{s.op, s.node, 0}
		if prev, dup := causeAt[k]; !dup || s.end-s.start > spans[prev].end-spans[prev].start {
			causeAt[k] = int64(i)
		}
	}
	parent := make([]int64, len(spans))
	for i, s := range spans {
		parent[i] = -1
		switch s.kind {
		case spanSend, spanDeliver:
			if p, ok := causeAt[key{s.op, s.node, 0}]; ok && p != int64(i) {
				parent[i] = p
			}
		case spanHandle:
			if p, ok := sendAt[key{s.op, s.peer, s.node}]; ok {
				parent[i] = p
			}
		}
	}
	return parent
}

// analyzeLive walks each sampled dissemination's blocking path from its last
// delivery back to the publish.
func analyzeLive(spans []span, parent []int64) liveTraceStats {
	var st liveTraceStats
	last := make(map[int32]int64) // op -> latest deliver span
	childSend := make(map[int64]int64)
	for i, s := range spans {
		switch s.kind {
		case spanDeliver:
			if j, ok := last[s.op]; !ok || s.start > spans[j].start {
				last[s.op] = int64(i)
			}
		case spanSend:
			if p := parent[i]; p >= 0 {
				childSend[p] += s.end - s.start
			}
		}
	}
	ops := make([]int32, 0, len(last))
	for op := range last {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(a, b int) bool { return ops[a] < ops[b] })
	for _, op := range ops {
		cur := parent[last[op]] // the handler (or publish) that delivered last
		for steps := 0; cur >= 0 && steps < 1024; steps++ {
			s := spans[cur]
			if s.kind == spanPublish {
				st.trees++
				break
			}
			// cur is a forwarding handler; its parent is the send that fed it.
			snd := parent[cur]
			if snd < 0 {
				break
			}
			st.transitUS = append(st.transitUS, float64(s.start-spans[snd].start)/1e3)
			st.sendCallUS = append(st.sendCallUS, float64(spans[snd].end-spans[snd].start)/1e3)
			cur = parent[snd]
			if cur >= 0 && spans[cur].kind == spanHandle {
				self := spans[cur].end - spans[cur].start - childSend[cur]
				st.handlerSelfUS = append(st.handlerSelfUS, float64(self)/1e3)
			}
		}
	}
	sort.Float64s(st.transitUS)
	sort.Float64s(st.sendCallUS)
	sort.Float64s(st.handlerSelfUS)
	return st
}

// traceLine is one span in the trace file: JSON lines, one span each, from
// which a dissemination's tree is rebuilt through parent and msg.
type traceLine struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Kind    string `json:"kind"`
	Op      int32  `json:"op"`
	Msg     string `json:"msg,omitempty"`
	Node    int32  `json:"node"`
	Peer    int32  `json:"peer"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// writeTrace writes the recorded spans as JSON lines.
func (t *tracer) writeTrace(path string, parent []int64) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(file)
	enc := json.NewEncoder(w)
	for i, s := range t.recorded() {
		line := traceLine{ID: int64(i), Parent: -1, Kind: spanKindNames[s.kind], Op: s.op,
			Node: s.node, Peer: s.peer, StartNS: s.start, EndNS: s.end}
		if parent != nil {
			line.Parent = parent[i]
		}
		if id, ok := t.msgIDs[s.op]; ok && s.kind <= spanDeliver {
			line.Msg = id.String()
		}
		if err := enc.Encode(line); err != nil {
			file.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}
