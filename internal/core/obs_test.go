package core

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/obs"
)

// TestObservabilityPipeline drives real traffic with every packet
// sampled and checks the full observability surface: registry counters
// match Stats, every stage histogram saw observations, the flight
// recorder holds at least one complete five-stage lifecycle, and /trace
// draws it as a packet track.
func TestObservabilityPipeline(t *testing.T) {
	reg := obs.NewRegistry()
	r := newRig(t, func(cfg *ServerConfig) {
		cfg.Obs = reg
		cfg.ObsSampleEvery = 1
	})
	r.scene.AddNode(1, geom.V(0, 0), oneRadio(1, 200))
	r.scene.AddNode(2, geom.V(100, 0), oneRadio(1, 200))
	sk := newSink()
	c1 := r.client(1, nil)
	r.client(2, sk)
	const n = 20
	for i := 0; i < n; i++ {
		if err := c1.SendTo(2, 1, 0, []byte("trace-me")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		sk.wait(t, 5*time.Second)
	}

	if got := waitReceived(reg, n); got != n {
		t.Errorf("poem_received_total = %d, want %d", got, n)
	}
	// The writer counts a delivery forwarded after its send returns,
	// which races the sink; a quiesced pipeline has settled every count.
	if !r.server.Quiesce(5 * time.Second) {
		t.Fatal("pipeline did not drain")
	}
	st := r.server.Stats()
	if st.Received != n || st.Forwarded != n {
		t.Errorf("Stats = %+v, want %d received+forwarded", st, n)
	}
	for _, name := range []string{"poem_ingest_ns", "poem_dispatch_ns", "poem_enqueue_ns", "poem_send_ns"} {
		h := reg.FindHistogram(name)
		if h == nil {
			t.Fatalf("%s not registered", name)
		}
		if h.Count() == 0 {
			t.Errorf("%s recorded no observations", name)
		}
	}

	// The writer records the send stage after the socket send, which
	// races the sink callback — poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var complete int
		for _, rec := range obs.PacketTraces(r.server.Recorder().Snapshot()) {
			if rec.Stamp != 0 && rec.Ingest != 0 && rec.Resolve != 0 && rec.Enqueue != 0 && rec.Send != 0 {
				complete++
				if rec.Src != 1 || rec.Relay != 2 {
					t.Fatalf("trace record misattributed: %+v", rec)
				}
				if rec.Ingest < rec.Stamp || rec.Resolve < rec.Ingest ||
					rec.Enqueue < rec.Resolve || rec.Send < rec.Enqueue {
					t.Fatalf("trace stages out of order: %+v", rec)
				}
			}
		}
		if complete > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no complete trace record (%d events recorded)", r.server.Recorder().Recorded())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The debug endpoint serves the same ring as trace-event JSON: the
	// packet track carries the packet's identity.
	w := httptest.NewRecorder()
	obs.Handler(reg, r.server.Recorder(), nil).ServeHTTP(w, httptest.NewRequest("GET", "/trace", nil))
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Pid  int               `json:"pid"`
			Args map[string]uint32 `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatalf("/trace is not trace-event JSON: %v\n%s", err, w.Body.String())
	}
	tracks := 0
	for _, ev := range doc.TraceEvents {
		if ev.Name == "packet" && ev.Pid == 1 {
			tracks++
			if ev.Args["src"] != 1 || ev.Args["relay"] != 2 || ev.Args["dst"] != 2 {
				t.Errorf("/trace packet track misattributed: %+v", ev)
			}
		}
	}
	if tracks == 0 {
		t.Errorf("/trace drew no packet track:\n%s", w.Body.String())
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"poem_received_total", "poem_forwarded_total", "poem_dropped_total",
		"poem_noroute_total", "poem_queue_drops_total", "poem_stamp_clamped_total",
		"poem_clients", "poem_scheduled", "poem_clock_seconds",
		"poem_scene_nodes", "poem_scene_view_rebuilds_total",
		"poem_record_packets_total", "poem_record_scenes_total",
		"poem_ingest_ns_p99", "poem_dispatch_ns_bucket", "poem_send_ns_count",
		"poem_flight_recorder_events_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics output missing %q", want)
		}
	}
	if strings.Contains(out, "NaN") {
		t.Error("NaN in /metrics output")
	}
}

// TestObsSamplingDisabled pins the negative setting: ObsSampleEvery < 0
// turns stage timing and tracing off entirely while counters keep
// running.
func TestObsSamplingDisabled(t *testing.T) {
	reg := obs.NewRegistry()
	r := newRig(t, func(cfg *ServerConfig) {
		cfg.Obs = reg
		cfg.ObsSampleEvery = -1
	})
	r.scene.AddNode(1, geom.V(0, 0), oneRadio(1, 200))
	r.scene.AddNode(2, geom.V(100, 0), oneRadio(1, 200))
	sk := newSink()
	c1 := r.client(1, nil)
	r.client(2, sk)
	if err := c1.SendTo(2, 1, 0, []byte("untimed")); err != nil {
		t.Fatal(err)
	}
	sk.wait(t, 5*time.Second)
	if got := waitReceived(reg, 1); got != 1 {
		t.Errorf("poem_received_total = %d, want 1", got)
	}
	if h := reg.FindHistogram("poem_ingest_ns"); h.Count() != 0 {
		t.Errorf("ingest histogram observed %d with sampling disabled", h.Count())
	}
	for _, ev := range r.server.Recorder().Snapshot() {
		switch ev.Kind {
		case obs.EvPktIngest, obs.EvPktResolve, obs.EvPktEnqueue, obs.EvPktSend:
			t.Errorf("flight recorder holds packet event %+v with sampling disabled", ev)
		}
	}
}

// waitReceived polls poem_received_total until it reaches want (or 5 s
// pass) and returns its value. Ingest commits the received counters
// last, after the schedule push, so a delivery can reach its sink
// before the counter of its own packet moves.
func waitReceived(reg *obs.Registry, want uint64) uint64 {
	c := reg.Counter("poem_received_total", "")
	for deadline := time.Now().Add(5 * time.Second); c.Load() < want && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	return c.Load()
}
