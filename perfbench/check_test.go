package main

import (
	"testing"
	"time"

	"repro/internal/radio"
)

// delivery is one packet as a sink would see it.
type delivery struct {
	src     radio.NodeID
	flow    uint16
	payload []byte
}

// stream generates n well-formed deliveries from node 1 on flow 1.
func stream(n int) []delivery {
	out := make([]delivery, n)
	for i := range out {
		p := make([]byte, 64)
		fillTail(p)
		stampPayload(p, int64(i)*1000, uint32(i+1), 1, 1)
		out[i] = delivery{src: 1, flow: 1, payload: p}
	}
	return out
}

// feed runs deliveries through a fresh checker and closes the
// received-vs-expected ledger as the workloads do at quiesce.
func feed(ds []delivery, expected uint64) (bad, off uint64) {
	c := newChecker(func() int64 { return int64(time.Hour) }, 1)
	c.models[1] = chanModel{delay: time.Millisecond, bps: 1e6}
	s := c.newSink(2, 1)
	for _, d := range ds {
		s.observe(d.src, 1, d.flow, d.payload)
	}
	off = c.verify(ledger{"received vs expected", expected, c.received.Load()})
	return c.bad(), off
}

// TestCheckerCatchesSabotage feeds the checker a clean stream, then the
// same stream reordered, duplicated, corrupted and with a delivery
// missing, and expects each sabotage to be caught.
func TestCheckerCatchesSabotage(t *testing.T) {
	const n = 50
	if bad, off := feed(stream(n), n); bad != 0 || off != 0 {
		t.Fatalf("clean stream flagged: bad=%d off=%d", bad, off)
	}
	cases := map[string]func([]delivery) []delivery{
		"reordered": func(ds []delivery) []delivery {
			ds[10], ds[11] = ds[11], ds[10]
			return ds
		},
		"duplicated": func(ds []delivery) []delivery {
			return append(ds[:21], ds[20:]...)
		},
		"corrupted": func(ds []delivery) []delivery {
			ds[30].payload[40] ^= 0x01
			return ds
		},
		"truncated": func(ds []delivery) []delivery {
			ds[31].payload = ds[31].payload[:10]
			return ds
		},
		"misattributed": func(ds []delivery) []delivery {
			ds[5].src = 3
			return ds
		},
		"missing": func(ds []delivery) []delivery {
			return append(ds[:40], ds[41:]...)
		},
	}
	for name, sabotage := range cases {
		bad, off := feed(sabotage(stream(n)), n)
		if bad == 0 && off == 0 {
			t.Errorf("%s stream passed the checker", name)
		}
	}
}

// TestLatenessFromDue checks the due-time arithmetic against the
// emulator's formula: intended + delay + (28 + payload)·8/bps.
func TestLatenessFromDue(t *testing.T) {
	m := chanModel{delay: 2 * time.Millisecond, bps: 8e6} // 1 byte per µs
	if got, want := m.due(1000, 72), int64(1000+2e6+100e3); got != want {
		t.Fatalf("due = %d, want %d", got, want)
	}
}

// TestScheduleDigest checks, for every workload's input generator, that
// one seed always generates the same schedule and two seeds generate
// different ones.
func TestScheduleDigest(t *testing.T) {
	gens := map[string]func(seed int64) []event{
		"tcp_pair":         func(seed int64) []event { return tcpEvents(seed, time.Second) },
		"storm_inproc":     stormInput,
		"churn_multiradio": func(seed int64) []event { return churnEvents(seed, time.Second) },
		"relay_fed_udp":    func(seed int64) []event { return relayEvents(seed, time.Second) },
	}
	for name, gen := range gens {
		a, again, other := digest(gen(7)), digest(gen(7)), digest(gen(8))
		if a != again {
			t.Errorf("%s: same seed, different digests", name)
		}
		if a == other {
			t.Errorf("%s: different seeds, same digest", name)
		}
	}
}

// TestWindowedMedian checks that only full windows count and that the
// median over windows ignores one outlying window.
func TestWindowedMedian(t *testing.T) {
	var w windowed
	w.per = 100
	for win := 0; win < 5; win++ {
		v := int64(1000)
		if win == 2 {
			v = 1e9 // a stalled window
		}
		for i := 0; i < 100; i++ {
			w.add(v)
		}
	}
	w.add(5) // a partial sixth window
	q, used := w.medianQuantiles(0.5)
	if used != 5 {
		t.Fatalf("used %d windows, want 5", used)
	}
	if q[0] < 990 || q[0] > 1010 {
		t.Fatalf("median of window medians = %v, want about 1000", q[0])
	}
}
