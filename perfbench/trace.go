package main

import (
	"sort"
	"sync/atomic"
	"time"
)

// Span names. Each span is recorded by the benchmark around its own
// call into one layer of the emulator.
const (
	spGenSend    = iota // a generator's Send/SendTo/Broadcast call or UDP write
	spDeliver           // OnPacket callback or UDP sink read, parent: the packet's gen.send
	spSceneOp           // one scene mutation call
	spClientDial        // one core.Dial
	spUDPWrite          // generator socket write into a gateway binding
	spUDPRead           // sink socket read of a gateway egress datagram
	spQuiesce           // waiting for the emulator to drain after traffic
	numSpans
)

var spanNames = [numSpans]string{"gen.send", "deliver", "scene.op", "client.dial", "udp.write", "udp.read", "quiesce"}

// span is one timed call. id ties a packet's deliver span to the
// gen.send span that caused it (parents are resolved when the run ends,
// so the hot path stores no pointers).
type span struct {
	name       uint8
	start, end int64 // ns since the tracer started
	id         uint64
}

// tracer keeps spans in a fixed in-memory array; nothing is written
// until the run ends. A nil tracer records nothing.
type tracer struct {
	base    time.Time
	spans   []span
	n       atomic.Int64
	dropped atomic.Uint64
}

func newTracer(capacity int) *tracer {
	return &tracer{base: time.Now(), spans: make([]span, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// add records a finished span; safe from any goroutine.
func (t *tracer) add(name uint8, start, end int64, id uint64) {
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return
	}
	t.spans[i] = span{name: name, start: start, end: end, id: id}
}

// recorded returns the spans kept.
func (t *tracer) recorded() []span {
	n := t.n.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// traceSummary is what the traced run reports: per-name durations and
// self times, and the send→deliver latency through parent links.
type traceSummary struct {
	dur, self     [numSpans]samples
	sendToDeliver samples
	orphans       int // deliver spans whose gen.send span was not recorded
}

// summarize resolves parents (a deliver's parent is the gen.send or
// udp.write span carrying the same packet id) and computes each span's
// self time: its duration minus the part of it covered by its children.
func summarize(spans []span) traceSummary {
	var s traceSummary
	parent := make(map[uint64]int, len(spans)/2)
	for i, sp := range spans {
		if sp.name == spGenSend || sp.name == spUDPWrite {
			parent[sp.id] = i
		}
	}
	children := make(map[int][][2]int64)
	for _, sp := range spans {
		if sp.name != spDeliver && sp.name != spUDPRead {
			continue
		}
		p, ok := parent[sp.id]
		if !ok {
			s.orphans++
			continue
		}
		children[p] = append(children[p], [2]int64{sp.start, sp.end})
		s.sendToDeliver = append(s.sendToDeliver, float64(sp.start-spans[p].start))
	}
	for i, sp := range spans {
		d := sp.end - sp.start
		s.dur[sp.name] = append(s.dur[sp.name], float64(d))
		s.self[sp.name] = append(s.self[sp.name], float64(d-covered(sp, children[i])))
	}
	return s
}

// covered is how much of sp's interval the union of kids overlaps.
func covered(sp span, kids [][2]int64) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i][0] < kids[j][0] })
	var total int64
	curS, curE := int64(-1), int64(-1)
	flush := func() {
		if curE > curS {
			total += curE - curS
		}
	}
	for _, k := range kids {
		s, e := k[0], k[1]
		if s < sp.start {
			s = sp.start
		}
		if e > sp.end {
			e = sp.end
		}
		if e <= s {
			continue
		}
		if s > curE {
			flush()
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	flush()
	return total
}
