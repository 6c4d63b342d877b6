package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"ringcast/internal/core"
	"ringcast/internal/cyclon"
	"ringcast/internal/ident"
	"ringcast/internal/metrics"
	"ringcast/internal/node"
	"ringcast/internal/transport"
	"ringcast/internal/vicinity"
	"ringcast/internal/view"
	"ringcast/internal/wire"
)

// Micro rows time calls into one layer's public functions at fixed
// iteration counts (median of microIters repetitions, allocations from
// runtime.MemStats deltas). They run in every traced pass, whatever the
// workload, so a change to one layer shows here before it shows end to end.

const microAddr = "127.0.0.1:40000" // never bound or dialed: a codec input

func gossipFrame(body int) *wire.Frame {
	return &wire.Frame{Kind: wire.KindGossip, From: 12345, FromAddr: microAddr,
		Msg: &wire.Message{ID: wire.MsgID{Origin: 777, Seq: 1}, Hop: 3, Body: make([]byte, body)}}
}

func entries(n int, base uint64) []view.Entry {
	out := make([]view.Entry, n)
	for i := range out {
		out[i] = view.Entry{Node: ident.ID(base + uint64(i)*0x9e3779b97f4a7c15), Addr: microAddr, Age: uint32(i)}
	}
	return out
}

func shuffleFrame(kind wire.Kind, n int) *wire.Frame {
	return &wire.Frame{Kind: kind, From: 12345, FromAddr: microAddr, Seq: 99, Entries: entries(n, 1000)}
}

func (mb micro) wire(m map[string]float64) error {
	for _, row := range []struct {
		name  string
		frame *wire.Frame
		iters int
	}{
		{"gossip64", gossipFrame(64), 200000},
		{"gossip4k", gossipFrame(4096), 50000},
		{"shuffle8", shuffleFrame(wire.KindShuffleRequest, 8), 100000},
	} {
		buf, err := wire.Marshal(row.frame)
		if err != nil {
			return err
		}
		mNS, mAllocs := mb.row(row.iters, func(iters int) {
			for i := 0; i < iters; i++ {
				if _, err := wire.Marshal(row.frame); err != nil {
					panic(err)
				}
			}
		})
		uNS, uAllocs := mb.row(row.iters, func(iters int) {
			for i := 0; i < iters; i++ {
				if _, err := wire.Unmarshal(buf); err != nil {
					panic(err)
				}
			}
		})
		m["wire.marshal_"+row.name+"_ns"] = mNS
		m["wire.unmarshal_"+row.name+"_ns"] = uNS
		switch row.name {
		case "gossip64":
			m["wire.marshal_allocs"] = mAllocs
			m["wire.unmarshal_gossip_allocs"] = uAllocs
			m["wire.gossip64_frame_bytes"] = float64(len(buf))
		case "gossip4k":
			m["wire.gossip4k_frame_bytes"] = float64(len(buf))
		case "shuffle8":
			m["wire.unmarshal_shuffle8_allocs"] = uAllocs
		}
	}
	return nil
}

// stubTransport is a Transport that goes nowhere: it captures the handler
// the node installs and counts Sends, so node rows price the node alone.
type stubTransport struct {
	addr    string
	handler transport.Handler
	sends   int
}

func (s *stubTransport) Addr() string                   { return s.addr }
func (s *stubTransport) SetHandler(h transport.Handler) { s.handler = h }
func (s *stubTransport) Send(string, *wire.Frame) error { s.sends++; return nil }
func (s *stubTransport) Stats() transport.Stats         { return transport.Stats{} }
func (s *stubTransport) Close() error                   { return nil }

var _ transport.Transport = (*stubTransport)(nil)

func (mb micro) node(m map[string]float64, seed int64) error {
	stub := &stubTransport{addr: microAddr}
	cfg := node.DefaultConfig()
	cfg.ID = 1 << 40
	cfg.Seed = seed
	delivered := 0
	nd, err := node.New(cfg, stub, func(node.Delivery) { delivered++ })
	if err != nil {
		return err
	}
	defer nd.Close()
	h := stub.handler
	// Fill the views as a join would: 20 r-links and, from them, 2 d-links.
	h(microAddr, &wire.Frame{Kind: wire.KindHelloAck, From: 5, FromAddr: microAddr, Entries: entries(20, 1<<39)})
	if _, _, ok := nd.RingNeighbors(); !ok || len(nd.ViewIDs()) != 20 {
		return fmt.Errorf("node micro: views not filled (%d r-links)", len(nd.ViewIDs()))
	}

	fresh := gossipFrame(64)
	seq := uint64(0)
	ns, allocs := mb.row(20000, func(iters int) {
		for i := 0; i < iters; i++ {
			seq++
			fresh.Msg.ID.Seq = seq
			h(microAddr, fresh)
		}
	})
	m["node.handle_fresh_ns"], m["node.handle_fresh_allocs"] = ns, allocs
	ns, allocs = mb.row(200000, func(iters int) {
		for i := 0; i < iters; i++ {
			h(microAddr, fresh) // seen a moment ago
		}
	})
	m["node.handle_dup_ns"], m["node.handle_dup_allocs"] = ns, allocs
	shuffle := shuffleFrame(wire.KindShuffleRequest, 8)
	ns, allocs = mb.row(20000, func(iters int) {
		for i := 0; i < iters; i++ {
			h(microAddr, shuffle)
		}
	})
	m["node.handle_shuffle_ns"], m["node.handle_shuffle_allocs"] = ns, allocs
	vic := shuffleFrame(wire.KindVicinityRequest, 20)
	ns, allocs = mb.row(20000, func(iters int) {
		for i := 0; i < iters; i++ {
			h(microAddr, vic)
		}
	})
	m["node.handle_vicinity_ns"], m["node.handle_vicinity_allocs"] = ns, allocs
	body := make([]byte, 64)
	ns, allocs = mb.row(20000, func(iters int) {
		for i := 0; i < iters; i++ {
			if _, err := nd.Publish(body); err != nil {
				panic(err)
			}
		}
	})
	m["node.publish_call_ns"], m["node.publish_call_allocs"] = ns, allocs
	ns, _ = mb.row(20000, func(iters int) {
		for i := 0; i < iters; i++ {
			nd.GossipNow()
		}
	})
	m["node.gossip_now_ns"] = ns
	if delivered == 0 || stub.sends == 0 {
		return errors.New("node micro: the node neither delivered nor forwarded")
	}
	return nil
}

func (mb micro) core(m map[string]float64, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	links := core.Links{}
	for _, e := range entries(20, 1<<20) {
		links.R = append(links.R, e.Node)
	}
	links.D = []ident.ID{7, 9}
	ns, allocs := mb.row(200000, func(iters int) {
		for i := 0; i < iters; i++ {
			sink += len(core.RingCast{}.Select(links, links.D[i&1], 3, rng))
		}
	})
	m["core.select_ids_ns"], m["core.select_ids_allocs"] = ns, allocs

	pos := core.PosLinks{D: []int32{7, 9}}
	for i := 0; i < 20; i++ {
		pos.R = append(pos.R, int32(100+i))
	}
	var sc core.PosScratch
	dst := make([]int32, 0, 32)
	ns, allocs = mb.row(500000, func(iters int) {
		for i := 0; i < iters; i++ {
			dst = core.RingCast{}.SelectPos(dst[:0], &sc, pos, pos.D[i&1], 5, rng)
		}
	})
	m["core.select_pos_ns"], m["core.select_pos_allocs"] = ns, allocs
}

func (mb micro) gossip(m map[string]float64, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	cfg := cyclon.DefaultConfig()
	p := cyclon.MustNew(1, "", cfg)
	q := cyclon.MustNew(2, "", cfg)
	for i := 0; i < 40; i++ {
		p.AddContact(ident.ID(i+3), "")
		q.AddContact(ident.ID(i+50), "")
	}
	p.AddContact(2, "")
	ns, allocs := mb.row(50000, func(iters int) {
		for i := 0; i < iters; i++ {
			sh, ok := p.StartShuffle(rng)
			if !ok {
				panic("cyclon micro: empty view")
			}
			p.HandleReply(sh, q.HandleRequest(sh.Sent, rng))
			p.AddContact(sh.Peer.Node, "") // keep the view populated
		}
	})
	m["cyclon.shuffle_roundtrip_ns"], m["cyclon.shuffle_roundtrip_allocs"] = ns, allocs

	v := vicinity.MustNew(1<<32, "", vicinity.DefaultConfig(), vicinity.RingDistance)
	cands, feed := entries(20, 13), entries(20, 7)
	ns, allocs = mb.row(50000, func(iters int) {
		for i := 0; i < iters; i++ {
			v.Merge(cands, feed)
		}
	})
	m["vicinity.merge_ns"], m["vicinity.merge_allocs"] = ns, allocs
}

func (mb micro) metrics(m map[string]float64) {
	d := &metrics.Dissemination{AliveTotal: 1000, Reached: 1000, Virgin: 999, Redundant: 2100,
		CumNotified: []int{1, 4, 13, 40, 120, 350, 760, 960, 998, 1000}}
	var acc metrics.Accumulator
	ns, _ := mb.row(500000, func(iters int) {
		for i := 0; i < iters; i++ {
			acc.Add(d)
		}
	})
	m["metrics.accumulator_add_ns"] = ns
}

// sendAll sends count frames from tr to addr with at most window
// unacknowledged (received counts the peer's handler invocations), retrying
// refused frames, and returns how long the Send calls alone took and how
// many were refused. It returns once every frame has been received.
func sendAll(tr transport.Transport, addr string, f *wire.Frame, count, window int, received *atomic.Int64) (inSend time.Duration, rejects int, err error) {
	base := received.Load()
	for sent := 0; sent < count; {
		if int64(sent)-(received.Load()-base) >= int64(window) {
			runtime.Gosched()
			continue
		}
		t0 := time.Now()
		err := tr.Send(addr, f)
		inSend += time.Since(t0)
		switch {
		case err == nil:
			sent++
		case errors.Is(err, transport.ErrQueueFull):
			rejects++
			runtime.Gosched()
		default:
			return 0, 0, err
		}
	}
	if !waitFor(5*time.Second, func() bool { return received.Load()-base >= int64(count) }) {
		return 0, 0, fmt.Errorf("transport micro: %d of %d frames arrived", received.Load()-base, count)
	}
	return inSend, rejects, nil
}

func (mb micro) transport(m map[string]float64) error {
	frame := gossipFrame(64)

	// In-memory fabric: Send is marshal + unmarshal + inbox hand-off.
	net := transport.NewInMemNetwork()
	a, err := net.Endpoint("a")
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := net.Endpoint("b")
	if err != nil {
		return err
	}
	defer b.Close()
	var got atomic.Int64
	b.SetHandler(func(string, *wire.Frame) { got.Add(1) })
	var sendErr error
	ns, allocs := mb.row(100000, func(iters int) {
		if _, _, err := sendAll(a, "b", frame, iters, 128, &got); err != nil {
			sendErr = err
		}
	})
	if sendErr != nil {
		return sendErr
	}
	m["transport.inmem_send_ns"], m["transport.inmem_send_allocs"] = ns, allocs

	// One loopback TCP pair.
	src, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer src.Close()
	dst, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer dst.Close()
	paced := mb.iters(3000)
	sentAt := make([]atomic.Int64, paced) // Send entry per paced frame, indexed by Frame.Seq
	transit := make([]float64, 0, paced)  // appended by the one inbound connection's goroutine
	var pacing atomic.Bool
	epoch := time.Now()
	var tcpGot atomic.Int64
	dst.SetHandler(func(_ string, f *wire.Frame) {
		if pacing.Load() {
			transit = append(transit, float64(int64(time.Since(epoch))-sentAt[f.Seq].Load())/1e3)
		}
		tcpGot.Add(1)
	})
	// Stream: as fast as the pair takes frames, counting only what arrived.
	stream := mb.iters(100000)
	if _, _, err := sendAll(src, dst.Addr(), frame, 2000, 256, &tcpGot); err != nil { // dial + warm
		return err
	}
	var perS, callNS, perFrame []float64
	for r := 0; r < microIters; r++ {
		before := readMem()
		t0 := time.Now()
		inSend, _, err := sendAll(src, dst.Addr(), frame, stream, 256, &tcpGot)
		if err != nil {
			return err
		}
		el := time.Since(t0)
		after := readMem()
		perS = append(perS, float64(stream)/el.Seconds())
		callNS = append(callNS, float64(inSend.Nanoseconds())/float64(stream))
		perFrame = append(perFrame, float64(after.mallocs-before.mallocs)/float64(stream))
	}
	m["transport.tcp_stream_frames_per_s"] = median(perS)
	m["transport.tcp_send_call_ns"] = median(callNS)
	m["transport.tcp_allocs_per_frame"] = median(perFrame)

	// Transit: one frame every 200 µs, far below the stream rate, so the
	// queue is empty when each frame arrives and nothing is dropped.
	pacing.Store(true)
	pf := gossipFrame(64)
	start := tcpGot.Load()
	for i := 0; i < paced; i++ {
		pf.Seq = uint64(i)
		sentAt[i].Store(int64(time.Since(epoch)))
		if err := src.Send(dst.Addr(), pf); err != nil {
			return err
		}
		time.Sleep(200 * time.Microsecond)
	}
	if !waitFor(5*time.Second, func() bool { return tcpGot.Load()-start >= int64(paced) }) {
		return fmt.Errorf("transport micro: %d of %d paced frames arrived", tcpGot.Load()-start, paced)
	}
	sort.Float64s(transit)
	m["transport.tcp_transit_p50_us"] = quantile(transit, 0.50)
	m["transport.tcp_transit_p99_us"] = quantile(transit, 0.99)

	// Topic mux over a stub base: what routing by topic adds to a Send.
	stub := &stubTransport{addr: microAddr}
	baseNS, _ := mb.row(500000, func(iters int) {
		for i := 0; i < iters; i++ {
			stub.Send(microAddr, frame)
		}
	})
	topic, err := transport.NewMux(stub).Topic("bench")
	if err != nil {
		return err
	}
	muxNS, _ := mb.row(500000, func(iters int) {
		for i := 0; i < iters; i++ {
			if err := topic.Send(microAddr, frame); err != nil {
				panic(err)
			}
		}
	})
	m["transport.mux_send_overhead_ns"] = muxNS - baseNS
	return nil
}

// sink keeps the compiler from discarding a measured call's result.
var sink int

// micro scales the micro rows: div divides every iteration count, 1 for a
// benchmark pass, more for a smoke test.
type micro struct{ div int }

func (mb micro) iters(n int) int { return (n + mb.div - 1) / mb.div }

func (mb micro) row(iters int, fn func(iters int)) (ns, allocs float64) {
	return microRow(mb.iters(iters), fn)
}

// microAll runs every micro row into m.
func microAll(m map[string]float64, seed int64, div int) error {
	mb := micro{div: div}
	if err := mb.wire(m); err != nil {
		return err
	}
	if err := mb.transport(m); err != nil {
		return err
	}
	if err := mb.node(m, seed); err != nil {
		return err
	}
	mb.core(m, seed)
	mb.gossip(m, seed)
	mb.metrics(m)
	return nil
}
