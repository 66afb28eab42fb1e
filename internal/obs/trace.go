package obs

// Packet-lifecycle tracing: a sampled packet is followed through the
// five stages of the §3.2 pipeline —
//
//	client stamp → server ingest → dispatch resolve → queue enqueue → writer send
//
// — as four events in the flight recorder (the stamp rides the ingest
// event). The ingest event's sequence is the packet's trace id; the
// pipeline carries it in the schedule item and the send-queue entry,
// and each later stage records one event keyed by it. Nothing is
// claimed and nothing needs releasing: a packet dropped mid-pipeline
// simply leaves a partial trace, which the join below skips. Together
// with the stage histograms this answers "where does time go inside
// the server" for individual packets, not just in aggregate, and on
// the same timeline as the scheduler's incidents.

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
)

// TraceIngest records a sampled packet's ingest stage (at: ingest time,
// stamp: the client's send stamp, both emulation ns) and returns its
// trace id. The id is 0 — the packet goes untraced — in the one case in
// 2³² where the claimed sequence truncates to 0.
func (r *Recorder) TraceIngest(at, stamp int64) uint32 {
	return uint32(r.Record(EvPktIngest, -1, at, 0, stamp))
}

// TraceResolve records the resolve stage of trace id.
func (r *Recorder) TraceResolve(id uint32, at int64, src, dst uint32) {
	r.Record(EvPktResolve, -1, at, int64(id), int64(uint64(src)<<32|uint64(dst)))
}

// TraceEnqueue records the enqueue stage of trace id on the delivering
// shard.
func (r *Recorder) TraceEnqueue(id uint32, shard int, at int64, channel, flow uint16, seq uint32) {
	r.Record(EvPktEnqueue, shard, at, int64(id),
		int64(uint64(channel)<<48|uint64(flow)<<32|uint64(seq)))
}

// TraceSend records the final stage of trace id: relay is the concrete
// receiver the writer shipped it to.
func (r *Recorder) TraceSend(id uint32, shard int, at int64, relay, size uint32) {
	r.Record(EvPktSend, shard, at, int64(id), int64(uint64(relay)<<32|uint64(size)))
}

// TraceRecord is one packet's lifecycle, joined from its stage events.
type TraceRecord struct {
	ID      uint32 `json:"id"` // trace id: the ingest event's sequence
	Src     uint32 `json:"src"`
	Dst     uint32 `json:"dst"`
	Relay   uint32 `json:"relay"` // concrete receiver the packet was sent to
	Channel uint16 `json:"channel"`
	Flow    uint16 `json:"flow"`
	Seq     uint32 `json:"seq"`
	Size    uint32 `json:"size"`

	// Stage timestamps, emulation-clock ns.
	Stamp   int64 `json:"stamp"`   // client's parallel send stamp
	Ingest  int64 `json:"ingest"`  // server received the packet
	Resolve int64 `json:"resolve"` // dispatch view resolved, targets selected
	Enqueue int64 `json:"enqueue"` // handed to the addressee's send queue
	Send    int64 `json:"send"`    // writer put it on the wire
}

// PacketTraces joins the packet-stage events of a snapshot (oldest
// first) into one record per sampled packet whose four stage events are
// all present, in trace-id order. A packet dropped mid-pipeline, or
// whose ingest the ring has already overwritten, is left out.
func PacketTraces(events []Event) []TraceRecord {
	type partial struct {
		rec  TraceRecord
		seen uint8 // bit k: stage EvPktIngest+k recorded
	}
	byID := make(map[uint32]*partial)
	var order []*partial
	for _, ev := range events {
		if ev.Kind == EvPktIngest {
			if id := uint32(ev.Seq); id != 0 {
				p := &partial{rec: TraceRecord{ID: id, Ingest: ev.At, Stamp: ev.B}, seen: 1}
				byID[id] = p
				order = append(order, p)
			}
			continue
		}
		if !ev.Kind.packetStage() {
			continue
		}
		p := byID[uint32(ev.A)]
		if p == nil {
			continue
		}
		b := uint64(ev.B)
		switch ev.Kind {
		case EvPktResolve:
			p.rec.Resolve, p.rec.Src, p.rec.Dst = ev.At, uint32(b>>32), uint32(b)
		case EvPktEnqueue:
			p.rec.Enqueue, p.rec.Channel, p.rec.Flow, p.rec.Seq = ev.At, uint16(b>>48), uint16(b>>32), uint32(b)
		case EvPktSend:
			p.rec.Send, p.rec.Relay, p.rec.Size = ev.At, uint32(b>>32), uint32(b)
		}
		p.seen |= 1 << (ev.Kind - EvPktIngest)
	}
	out := make([]TraceRecord, 0, len(order))
	for _, p := range order {
		if p.seen == 0xf {
			out = append(out, p.rec)
		}
	}
	return out
}

// WriteTrace renders events as chrome://tracing "trace event format"
// JSON (load it in chrome://tracing or Perfetto). Incidents are process
// 0: batch fires become complete events spanning [due, fire] — the
// bar's length *is* the lag — everything else an instant event, on one
// row (tid) per shard, server-wide events on tid -1. Every packet with
// a complete trace (PacketTraces) is process 1, on its own row named by
// its trace id: one "packet" span carrying src, dst, relay, ch, flow,
// seq and size as args, with its four stage spans — wire, resolve,
// schedule, send — nested inside. A client stamp running ahead of the
// server clock starts the packet at its ingest instead.
func WriteTrace(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")
	sep := ""
	for _, ev := range events {
		if ev.Kind.packetStage() {
			continue
		}
		bw.WriteString(sep)
		sep = ","
		// Timestamps are microseconds in the trace format; At is ns.
		switch ev.Kind {
		case EvBatchFire:
			// Span from when the batch was due to when it fired.
			fmt.Fprintf(bw,
				"{\"name\":%q,\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"ts\":%d,\"dur\":%d,\"args\":{\"seq\":%d,\"lag_ns\":%d,\"batch\":%d}}",
				ev.Kind.String(), ev.Shard, (ev.At-ev.A)/1e3, ev.A/1e3, ev.Seq, ev.A, ev.B)
		default:
			fmt.Fprintf(bw,
				"{\"name\":%q,\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":%d,\"ts\":%d,\"args\":{\"seq\":%d,\"a\":%d,\"b\":%d}}",
				ev.Kind.String(), ev.Shard, ev.At/1e3, ev.Seq, ev.A, ev.B)
		}
	}
	for _, p := range PacketTraces(events) {
		bw.WriteString(sep)
		sep = ","
		start := min(p.Stamp, p.Ingest)
		fmt.Fprintf(bw,
			"{\"name\":\"packet\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%s,\"dur\":%s,\"args\":{\"src\":%d,\"dst\":%d,\"relay\":%d,\"ch\":%d,\"flow\":%d,\"seq\":%d,\"size\":%d}}",
			p.ID, micros(start), span(start, p.Send),
			p.Src, p.Dst, p.Relay, p.Channel, p.Flow, p.Seq, p.Size)
		for _, st := range [...]struct {
			name     string
			from, to int64
		}{
			{"wire", start, p.Ingest},
			{"resolve", p.Ingest, p.Resolve},
			{"schedule", p.Resolve, p.Enqueue},
			{"send", p.Enqueue, p.Send},
		} {
			fmt.Fprintf(bw, ",{\"name\":%q,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%s,\"dur\":%s}",
				st.name, p.ID, micros(st.from), span(st.from, st.to))
		}
	}
	bw.WriteString("]}\n")
	return bw.Flush()
}

// micros formats emulation ns as trace-format microseconds. Packet
// stages are often sub-µs apart, so they keep the fraction.
func micros(ns int64) string { return strconv.FormatFloat(float64(ns)/1e3, 'f', 3, 64) }

// span is the µs duration from→to, floored at zero.
func span(from, to int64) string { return micros(max(to-from, 0)) }
