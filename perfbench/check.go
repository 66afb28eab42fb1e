package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/radio"
)

// chanModel is what the benchmark knows about a channel's link model
// from outside: the constant delay and bandwidth that fix every
// delivery's due time.
type chanModel struct {
	delay time.Duration
	bps   float64
}

// due is when the modelled channel says a packet of size payload bytes,
// intended for sending at intended, arrives: intended + delay +
// (28 + payload)·8/bps, the emulator's per-destination formula.
func (m chanModel) due(intended int64, payload int) int64 {
	bits := float64(28+payload) * 8
	return intended + int64(m.delay) + int64(bits/m.bps*float64(time.Second))
}

// checker receives every delivery the workload observes, checks it and
// measures its lateness. Violations are counted by kind; the first few
// are kept verbatim for the report.
type checker struct {
	now    func() int64 // receiver clock (emulation ns)
	scale  float64      // emulation clock rate; lateness is reported in wall time
	models map[radio.ChannelID]chanModel
	tr     atomic.Pointer[tracer] // set for the traced half of a traced run

	lateness hist     // wall ns, whole run
	windows  windowed // wall ns, per window of consecutive deliveries
	received atomic.Uint64
	bytes    atomic.Uint64

	corrupt   atomic.Uint64
	reordered atomic.Uint64 // duplicates included: a repeat is not strictly increasing
	unknown   atomic.Uint64 // delivery on a channel with no known model

	// waiter lets a closed-loop generator sleep until deliveries free
	// window space: receivers signal when it is set.
	waiting atomic.Bool
	wake    chan struct{}

	mu     sync.Mutex
	errors []string
}

func newChecker(now func() int64, scale float64) *checker {
	c := &checker{now: now, scale: scale, models: map[radio.ChannelID]chanModel{}, wake: make(chan struct{}, 1)}
	return c
}

func (c *checker) violation(format string, args ...any) {
	c.mu.Lock()
	if len(c.errors) < 8 {
		c.errors = append(c.errors, fmt.Sprintf(format, args...))
	}
	c.mu.Unlock()
}

// sink is one receiving endpoint (a VMN's client or a UDP socket). Its
// observe method runs on that endpoint's single receive goroutine, so
// its own state needs no lock; totals are read after quiesce through
// the checker's atomics.
type sink struct {
	c    *checker
	id   radio.NodeID
	last map[uint64]uint32 // flowKey → last sequence number seen
}

func (c *checker) newSink(id radio.NodeID, senders int) *sink {
	return &sink{c: c, id: id, last: make(map[uint64]uint32, senders)}
}

// observe checks one delivery of payload from src on ch/flow.
func (s *sink) observe(src radio.NodeID, ch radio.ChannelID, flow uint16, payload []byte) {
	c := s.c
	now := c.now()
	tr := c.tr.Load()
	var t0 int64
	if tr != nil {
		t0 = tr.now()
	}
	intended, seq, ok := parsePayload(payload, src, flow)
	if !ok {
		c.corrupt.Add(1)
		c.violation("corrupt payload at n%d from n%d flow %d (%d bytes)", s.id, src, flow, len(payload))
	} else {
		key := flowKey(src, flow)
		if last, seen := s.last[key]; seen && seq <= last {
			c.reordered.Add(1)
			c.violation("n%d got seq %d from n%d flow %d after %d", s.id, seq, src, flow, last)
		}
		s.last[key] = seq
		m, known := c.models[ch]
		if !known {
			c.unknown.Add(1)
			c.violation("delivery on unmodelled channel %d", ch)
		} else {
			late := float64(now-m.due(intended, len(payload))) / c.scale
			c.lateness.add(int(s.id), int64(late))
			c.windows.add(int64(late))
		}
		if tr != nil {
			tr.add(spDeliver, t0, tr.now(), packetID(src, flow, seq))
		}
	}
	c.bytes.Add(uint64(len(payload)))
	c.received.Add(1)
	if c.waiting.Load() {
		select {
		case c.wake <- struct{}{}:
		default:
		}
	}
}

// bad is the number of deliveries that failed a check.
func (c *checker) bad() uint64 {
	return c.corrupt.Load() + c.reordered.Load() + c.unknown.Load()
}

// ledger is one correctness check at quiesce: want and got must agree.
type ledger struct {
	name      string
	want, got uint64
}

// verify records every ledger that does not close and returns how many
// operations it lost or invented.
func (c *checker) verify(ls ...ledger) uint64 {
	var off uint64
	for _, l := range ls {
		if l.want != l.got {
			c.violation("%s: want %d, got %d", l.name, l.want, l.got)
			if l.want > l.got {
				off += l.want - l.got
			} else {
				off += l.got - l.want
			}
		}
	}
	return off
}

// failures returns the recorded violations.
func (c *checker) failures() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.errors...)
}
