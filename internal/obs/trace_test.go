package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

// tracePacket records the four stage events of one packet with the
// given identity, stage times at base+0..40, and returns its trace id.
func tracePacket(r *Recorder, base int64, src, relay, seq uint32) uint32 {
	id := r.TraceIngest(base+10, base)
	r.TraceResolve(id, base+20, src, 2)
	r.TraceEnqueue(id, 1, base+30, 3, 4, seq)
	r.TraceSend(id, 1, base+40, relay, 77)
	return id
}

// TestTracerLifecycle pins the packet join: the four stage events of a
// sampled packet, interleaved with incidents and another packet's
// stages, come back as one record carrying every field; a packet that
// left the pipeline early (no send) is not a record.
func TestTracerLifecycle(t *testing.T) {
	r := NewRecorder(64)
	r.Record(EvBatchFire, 0, 5, 1, 1)
	id := r.TraceIngest(110, 100)
	dropped := r.TraceIngest(111, 101)
	r.TraceResolve(id, 120, 1, 0xffffffff)
	r.TraceResolve(dropped, 121, 5, 6)
	r.Record(EvQueueDrop, 0, 125, 6, 0)
	r.TraceEnqueue(id, 3, 130, 9, 0xbeef, 42)
	r.TraceSend(id, 3, 140, 2, 1500)

	recs := PacketTraces(r.Snapshot())
	want := TraceRecord{
		ID: id, Src: 1, Dst: 0xffffffff, Relay: 2, Channel: 9, Flow: 0xbeef, Seq: 42, Size: 1500,
		Stamp: 100, Ingest: 110, Resolve: 120, Enqueue: 130, Send: 140,
	}
	if len(recs) != 1 || recs[0] != want {
		t.Fatalf("records = %+v, want [%+v]", recs, want)
	}
	if id != 2 {
		t.Errorf("trace id %d, want 2 (the ingest event's sequence)", id)
	}
}

// TestTracerRingWrap: once the ring laps a packet's ingest event the
// later stages have nothing to join to, so only the packets still whole
// in the ring come back, oldest first.
func TestTracerRingWrap(t *testing.T) {
	r := NewRecorder(16) // four packets of four events each
	for seq := uint32(1); seq <= 5; seq++ {
		tracePacket(r, int64(seq)*1000, 1, 2, seq)
	}
	r.TraceResolve(r.TraceIngest(9000, 9000), 9001, 1, 2) // laps packet 2's ingest
	recs := PacketTraces(r.Snapshot())
	if len(recs) != 3 {
		t.Fatalf("len = %d, want 3: %+v", len(recs), recs)
	}
	for i, want := range []uint32{3, 4, 5} {
		if recs[i].Seq != want {
			t.Errorf("recs[%d].Seq = %d, want %d (oldest first)", i, recs[i].Seq, want)
		}
	}
}

// TestTracerZeroAlloc: the stages a sampled packet records on the hot
// path allocate nothing.
func TestTracerZeroAlloc(t *testing.T) {
	r := NewRecorder(64)
	if allocs := testing.AllocsPerRun(1000, func() {
		tracePacket(r, 100, 1, 2, 3)
	}); allocs != 0 {
		t.Errorf("trace lifecycle allocates %v per packet, want 0", allocs)
	}
}

// traceDoc is the subset of the trace-event format the tests read.
type traceDoc struct {
	TraceEvents []struct {
		Name string             `json:"name"`
		Ph   string             `json:"ph"`
		Pid  int                `json:"pid"`
		Tid  int64              `json:"tid"`
		Ts   float64            `json:"ts"`
		Dur  float64            `json:"dur"`
		Args map[string]float64 `json:"args"`
	} `json:"traceEvents"`
}

// TestWriteTracePackets pins the packet half of the export: a complete
// packet is one track (pid 1, tid = trace id) with a "packet" span
// carrying its identity and four stage spans nested inside it; a
// partial trace draws nothing.
func TestWriteTracePackets(t *testing.T) {
	r := NewRecorder(64)
	r.Record(EvViewRebuild, -1, 1000, 1, 0)
	id := tracePacket(r, 2000, 7, 8, 99)
	r.TraceIngest(5000, 5000) // dropped at ingest: partial
	var b strings.Builder
	if err := WriteTrace(&b, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var doc traceDoc
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, b.String())
	}
	if len(doc.TraceEvents) != 6 {
		t.Fatalf("%d trace events, want 1 incident + 5 packet spans:\n%s", len(doc.TraceEvents), b.String())
	}
	if ev := doc.TraceEvents[0]; ev.Name != "view_rebuild" || ev.Pid != 0 {
		t.Fatalf("incident %+v", ev)
	}
	pkt := doc.TraceEvents[1]
	if pkt.Name != "packet" || pkt.Pid != 1 || pkt.Tid != int64(id) || pkt.Ts != 2 || pkt.Dur != 0.04 {
		t.Fatalf("packet span %+v", pkt)
	}
	for k, want := range map[string]float64{"src": 7, "dst": 2, "relay": 8, "ch": 3, "flow": 4, "seq": 99, "size": 77} {
		if pkt.Args[k] != want {
			t.Errorf("packet arg %s = %v, want %v", k, pkt.Args[k], want)
		}
	}
	for i, name := range []string{"wire", "resolve", "schedule", "send"} {
		st := doc.TraceEvents[2+i]
		if st.Name != name || st.Tid != int64(id) || st.Ph != "X" || st.Dur != 0.01 ||
			st.Ts < pkt.Ts || st.Ts+st.Dur > pkt.Ts+pkt.Dur+1e-9 {
			t.Errorf("stage %d = %+v, want %q nested in the packet span", i, st, name)
		}
	}
}
