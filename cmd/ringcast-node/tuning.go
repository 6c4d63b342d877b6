package main

// Runtime tuning and observability wiring: the config.Store key catalog,
// the -config JSON file source, the live bindings from accepted updates to
// node and transport setters, and the /metrics telemetry registry. All of
// it is cmd-layer glue — the store itself (internal/config) stays free of
// file IO and signal handling, and the registry (internal/telemetry) knows
// nothing about which counters a node exposes.

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"ringcast/internal/config"
	"ringcast/internal/node"
	"ringcast/internal/telemetry"
	"ringcast/internal/transport"
)

// buildStore registers the runtime-tunable key catalog, seeded from the
// node configuration the flags produced. Bounds mirror the setters they
// feed (SetViewSizes rejects views below the layer's exchange length, so
// the store rejects them upfront and the prior version stays current).
func buildStore(cfg node.Config) (*config.Store, error) {
	s := config.NewStore()
	defs := []config.Def{
		{Name: "gossip.interval", Type: config.TypeDuration, Default: cfg.GossipInterval.String(),
			Bounded: true, Min: float64(time.Millisecond), Max: float64(time.Hour),
			Help: "gossip cycle length T; the timer re-arms immediately"},
		{Name: "gossip.fanout", Type: config.TypeInt, Default: strconv.Itoa(cfg.Fanout),
			Bounded: true, Min: 1, Max: 128,
			Help: "dissemination fanout F; applies at the next cycle boundary"},
		{Name: "cyclon.view", Type: config.TypeInt, Default: strconv.Itoa(cfg.Cyclon.ViewSize),
			Bounded: true, Min: float64(cfg.Cyclon.ShuffleLen), Max: 1024,
			Help: "CYCLON partial-view length; applies at the next cycle boundary"},
		{Name: "vicinity.view", Type: config.TypeInt, Default: strconv.Itoa(cfg.Vicinity.ViewSize),
			Bounded: true, Min: float64(cfg.Vicinity.GossipLen), Max: 1024,
			Help: "VICINITY partial-view length; applies at the next cycle boundary"},
		{Name: "sendq.cap", Type: config.TypeInt, Default: strconv.Itoa(transport.DefaultSendQueueCap),
			Bounded: true, Min: 1, Max: 1 << 20,
			Help: "per-destination send queue capacity, frames"},
		{Name: "sendq.batch", Type: config.TypeInt, Default: strconv.Itoa(transport.DefaultMaxBatchBytes),
			Bounded: true, Min: 1, Max: 1 << 30,
			Help: "writer batch cap, bytes per write call"},
		{Name: "sendq.idle", Type: config.TypeDuration, Default: transport.DefaultWriterIdle.String(),
			Bounded: true, Min: float64(time.Millisecond), Max: float64(time.Hour),
			Help: "writer idle linger before connection teardown"},
	}
	for _, d := range defs {
		if err := s.Register(d); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// applyConfigFile reads path and applies it to the store as one two-phase
// JSON document: a single bad key rejects the whole file and the store
// keeps its prior version. Called at boot and again on every SIGHUP.
func applyConfigFile(s *config.Store, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	_, err = s.ApplyJSON(data)
	return err
}

// bindStore subscribes the runtime to every tunable key, translating
// accepted store updates into the node and transport setters. The initial
// snapshot each subscription delivers re-applies the current value, which
// is idempotent by construction. Setter rejections (a view shrunk below
// its exchange length between validation and delivery cannot happen — the
// bounds match — but the plumbing reports them anyway) are logged, never
// fatal: the store has already committed, and the next update supersedes.
func bindStore(s *config.Store, rt *runtime, tr *transport.TCPTransport, out io.Writer) error {
	complain := func(key string, err error) {
		if err != nil {
			fmt.Fprintf(out, "[config] %s: %v\n", key, err)
		}
	}
	eachNode := func(fn func(*node.Node) error) error {
		for _, nd := range rt.nodes() {
			if err := fn(nd); err != nil {
				return err
			}
		}
		return nil
	}
	bindings := []struct {
		key string
		fn  func(config.Update) error
	}{
		{"gossip.interval", func(u config.Update) error {
			d, err := time.ParseDuration(u.Value)
			if err != nil {
				return err
			}
			return eachNode(func(nd *node.Node) error { return nd.SetGossipInterval(d) })
		}},
		{"gossip.fanout", func(u config.Update) error {
			f, err := strconv.Atoi(u.Value)
			if err != nil {
				return err
			}
			return eachNode(func(nd *node.Node) error { return nd.SetFanout(f) })
		}},
		{"cyclon.view", func(u config.Update) error {
			v, err := strconv.Atoi(u.Value)
			if err != nil {
				return err
			}
			return eachNode(func(nd *node.Node) error { return nd.SetViewSizes(v, 0) })
		}},
		{"vicinity.view", func(u config.Update) error {
			v, err := strconv.Atoi(u.Value)
			if err != nil {
				return err
			}
			return eachNode(func(nd *node.Node) error { return nd.SetViewSizes(0, v) })
		}},
		{"sendq.cap", func(u config.Update) error {
			n, err := strconv.Atoi(u.Value)
			if err != nil {
				return err
			}
			return tr.SetSendQueueCap(n)
		}},
		{"sendq.batch", func(u config.Update) error {
			n, err := strconv.Atoi(u.Value)
			if err != nil {
				return err
			}
			return tr.SetMaxBatchBytes(n)
		}},
		{"sendq.idle", func(u config.Update) error {
			d, err := time.ParseDuration(u.Value)
			if err != nil {
				return err
			}
			return tr.SetWriterIdle(d)
		}},
	}
	for _, b := range bindings {
		b := b
		if _, err := s.Notify(b.key, func(u config.Update) { complain(b.key, b.fn(u)) }); err != nil {
			return err
		}
	}
	return nil
}

// families declares every family the -metrics endpoint exports, once: name,
// type and help text. Node counters carry a topic label (the plain overlay
// publishes under topic "-"); the ringcast_transport_* family is the
// base-socket aggregate; in pub/sub mode ringcast_topic_* adds the per-topic
// mux attribution on top.
var families = []struct{ name, typ, help string }{
	{"ringcast_node_published_total", telemetry.Counter, "messages published locally"},
	{"ringcast_node_delivered_total", telemetry.Counter, "messages delivered to the application"},
	{"ringcast_node_duplicates_total", telemetry.Counter, "duplicate receives suppressed by dedup"},
	{"ringcast_node_forwarded_total", telemetry.Counter, "dissemination forwards sent"},
	{"ringcast_node_send_errors_total", telemetry.Counter, "sends that failed in the transport, each evicting the peer (queue-full rejections are ringcast_node_queue_full_total)"},
	{"ringcast_node_queue_full_total", telemetry.Counter, "forwards rejected by a full local send queue; the peer is kept"},
	{"ringcast_transport_frames_sent_total", telemetry.Counter, "frames handed to the wire, all overlays"},
	{"ringcast_transport_bytes_sent_total", telemetry.Counter, "marshalled bytes sent, all overlays"},
	{"ringcast_transport_drops_total", telemetry.Counter, "frames dropped by backpressure"},
	{"ringcast_transport_rejects_total", telemetry.Counter, "sends rejected at a full queue"},
	{"ringcast_transport_dial_failures_total", telemetry.Counter, "outbound dials that failed"},
	{"ringcast_transport_queue_depth", telemetry.Gauge, "frames currently queued across writers"},
	{"ringcast_transport_writers", telemetry.Gauge, "live writer goroutines"},
	{"ringcast_topic_frames_sent_total", telemetry.Counter, "frames sent, attributed per topic (pub/sub)"},
	{"ringcast_topic_bytes_sent_total", telemetry.Counter, "bytes sent, attributed per topic (pub/sub)"},
	{"ringcast_topic_rejects_total", telemetry.Counter, "queue-full rejects, attributed per topic (pub/sub)"},
	{"ringcast_stray_frames_total", telemetry.Counter, "frames for unknown topics, dropped by the mux"},
	{"ringcast_config_version", telemetry.Gauge, "config store version, bumped per accepted Set"},
	{"ringcast_config_gossip_interval_seconds", telemetry.Gauge, "current gossip cycle length T"},
	{"ringcast_config_fanout", telemetry.Gauge, "current dissemination fanout F"},
	{"ringcast_config_send_queue_cap", telemetry.Gauge, "current per-destination send queue capacity"},
	{"ringcast_epoch", telemetry.Gauge, "incarnation epoch stamped into published message IDs"},
}

// buildRegistry wires the node's counters and the config store's current
// state into a telemetry registry for the -metrics endpoint, under the
// families declared above.
func buildRegistry(rt *runtime, s *config.Store, epoch uint32) *telemetry.Registry {
	r := telemetry.NewRegistry()
	for _, f := range families {
		r.Describe(f.name, f.typ, f.help)
	}
	r.Collect(func() []telemetry.Sample {
		var out []telemetry.Sample
		nds := rt.nodes()
		for i, nd := range nds {
			topic := "-"
			if i < len(rt.topics) {
				topic = rt.topics[i]
			}
			st := nd.Stats()
			lbl := map[string]string{"topic": topic}
			out = append(out,
				telemetry.Sample{Name: "ringcast_node_published_total", Labels: lbl, Value: float64(st.Published)},
				telemetry.Sample{Name: "ringcast_node_delivered_total", Labels: lbl, Value: float64(st.Delivered)},
				telemetry.Sample{Name: "ringcast_node_duplicates_total", Labels: lbl, Value: float64(st.Duplicates)},
				telemetry.Sample{Name: "ringcast_node_forwarded_total", Labels: lbl, Value: float64(st.Forwarded)},
				telemetry.Sample{Name: "ringcast_node_send_errors_total", Labels: lbl, Value: float64(st.SendErrors)},
				telemetry.Sample{Name: "ringcast_node_queue_full_total", Labels: lbl, Value: float64(st.QueueFull)},
			)
		}
		ts := rt.transportStats()
		out = append(out,
			telemetry.Sample{Name: "ringcast_transport_frames_sent_total", Value: float64(ts.FramesSent)},
			telemetry.Sample{Name: "ringcast_transport_bytes_sent_total", Value: float64(ts.BytesSent)},
			telemetry.Sample{Name: "ringcast_transport_drops_total", Value: float64(ts.Drops)},
			telemetry.Sample{Name: "ringcast_transport_rejects_total", Value: float64(ts.Rejects)},
			telemetry.Sample{Name: "ringcast_transport_dial_failures_total", Value: float64(ts.DialFailures)},
			telemetry.Sample{Name: "ringcast_transport_queue_depth", Value: float64(ts.QueueDepth)},
			telemetry.Sample{Name: "ringcast_transport_writers", Value: float64(ts.Writers)},
		)
		if rt.peer != nil {
			for _, tp := range rt.topics {
				if st, ok := rt.peer.TopicStats(tp); ok {
					lbl := map[string]string{"topic": tp}
					out = append(out,
						telemetry.Sample{Name: "ringcast_topic_frames_sent_total", Labels: lbl, Value: float64(st.FramesSent)},
						telemetry.Sample{Name: "ringcast_topic_bytes_sent_total", Labels: lbl, Value: float64(st.BytesSent)},
						telemetry.Sample{Name: "ringcast_topic_rejects_total", Labels: lbl, Value: float64(st.Rejects)},
					)
				}
			}
			out = append(out, telemetry.Sample{Name: "ringcast_stray_frames_total", Value: float64(rt.peer.StrayFrames())})
		}
		fanout, interval, sendqCap := 0, time.Duration(0), int64(0)
		if len(nds) > 0 {
			fanout, interval = nds[0].Fanout(), nds[0].GossipInterval()
		}
		sendqCap = s.Int("sendq.cap")
		out = append(out,
			telemetry.Sample{Name: "ringcast_config_version", Value: float64(s.Version())},
			telemetry.Sample{Name: "ringcast_config_gossip_interval_seconds", Value: interval.Seconds()},
			telemetry.Sample{Name: "ringcast_config_fanout", Value: float64(fanout)},
			telemetry.Sample{Name: "ringcast_config_send_queue_cap", Value: float64(sendqCap)},
			telemetry.Sample{Name: "ringcast_epoch", Value: float64(epoch)},
		)
		return out
	})
	return r
}
