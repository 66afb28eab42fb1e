package core

// Tests for the on-demand session writer: the sendQueue starts a writer
// only once its gate is open, the writer exits when it finds the queue
// empty, a push racing that exit never strands an entry, and a server
// whose traffic has settled holds no writer goroutines at all.

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/radio"
	"repro/internal/wire"
)

// drainWriter wires q to a test writer that pops batches of up to
// batchCap entries and hands each to consume. It returns the writer
// WaitGroup and a count of writer starts.
func drainWriter(q *sendQueue, batchCap int, consume func([]outMsg)) (*sync.WaitGroup, *atomic.Int32) {
	wg := new(sync.WaitGroup)
	starts := new(atomic.Int32)
	q.wg = wg
	q.writer = func() {
		defer wg.Done()
		starts.Add(1)
		batch := make([]outMsg, 0, batchCap)
		for {
			b := q.popBatch(batch)
			if len(b) == 0 {
				return
			}
			consume(b)
			q.done(len(b))
		}
	}
	return wg, starts
}

func (q *sendQueue) isRunning() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.running
}

// Entries pushed before the gate opens wait for it: register relies on
// this to put the HelloAck on the wire ahead of any queued event.
func TestSendQueueWriterWaitsForGate(t *testing.T) {
	q := newSendQueue(8, nil, 0)
	var got []uint32
	wg, starts := drainWriter(q, 4, func(b []outMsg) {
		for _, m := range b {
			got = append(got, m.pkt.Seq)
		}
	})
	for i := uint32(1); i <= 3; i++ {
		q.push(outMsg{kind: outData, pkt: wire.Packet{Seq: i}})
	}
	if q.isRunning() || starts.Load() != 0 {
		t.Fatal("a writer started before the gate opened")
	}
	if d := q.depth(); d != 3 {
		t.Fatalf("depth %d before the gate, want 3", d)
	}
	if !q.openGate() {
		t.Fatal("openGate on a live queue reported closed")
	}
	wg.Wait()
	if n := starts.Load(); n != 1 {
		t.Fatalf("%d writers started for one backlog, want 1", n)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("writer shipped %v, want [1 2 3]", got)
	}
	// A closed queue keeps its gate shut.
	q2 := newSendQueue(8, nil, 0)
	drainWriter(q2, 4, func([]outMsg) {})
	q2.close()
	if q2.openGate() {
		t.Fatal("openGate on a closed queue reported open")
	}
}

// The writer exits as soon as the queue is empty, and the next push
// starts a fresh one.
func TestSendQueueWriterExitsWhenEmpty(t *testing.T) {
	q := newSendQueue(8, nil, 0)
	var shipped atomic.Int32
	wg, starts := drainWriter(q, 4, func(b []outMsg) { shipped.Add(int32(len(b))) })
	q.openGate()
	if q.isRunning() {
		t.Fatal("an empty queue started a writer")
	}
	q.push(outMsg{kind: outData, pkt: wire.Packet{Seq: 1}})
	wg.Wait() // returns only once the writer has exited
	if q.isRunning() || q.depth() != 0 || shipped.Load() != 1 {
		t.Fatalf("after drain: running=%v depth=%d shipped=%d", q.isRunning(), q.depth(), shipped.Load())
	}
	q.push(outMsg{kind: outData, pkt: wire.Packet{Seq: 2}})
	wg.Wait()
	if n := starts.Load(); n != 2 || shipped.Load() != 2 {
		t.Fatalf("starts=%d shipped=%d, want a second writer for the second push", n, shipped.Load())
	}
}

// Many producers push while writers keep finding the queue empty and
// exiting. Every entry must be shipped exactly once, in per-producer
// order, and by at most one writer at a time: last is deliberately
// unsynchronized, so two concurrent writers would trip the race
// detector as well as the order check.
func TestSendQueuePushRacingExitStrandsNothing(t *testing.T) {
	const producers, each = 8, 2000
	q := newSendQueue(producers*each, nil, 0)
	last := make([]uint32, producers)
	var shipped atomic.Int64
	var order atomic.Int32
	wg, starts := drainWriter(q, 4, func(b []outMsg) {
		for _, m := range b {
			p := m.pkt.Src
			if m.pkt.Seq != last[p]+1 {
				order.Add(1)
			}
			last[p] = m.pkt.Seq
		}
		shipped.Add(int64(len(b)))
	})
	q.openGate()
	var prod sync.WaitGroup
	for p := 0; p < producers; p++ {
		prod.Add(1)
		go func(p int) {
			defer prod.Done()
			for i := 1; i <= each; i++ {
				q.push(outMsg{kind: outData, pkt: wire.Packet{Src: radio.NodeID(p), Seq: uint32(i)}})
				// Trickle, so the writer keeps draining the queue dry and
				// exiting while pushes land around its exit.
				runtime.Gosched()
				if i%100 == 0 {
					time.Sleep(50 * time.Microsecond)
				}
			}
		}(p)
	}
	prod.Wait()
	wg.Wait() // every writer has exited: nothing may be left behind
	if n := shipped.Load(); n != producers*each {
		t.Fatalf("shipped %d of %d entries (depth %d): an entry was stranded", n, producers*each, q.depth())
	}
	if d := q.depth(); d != 0 || q.isRunning() {
		t.Fatalf("depth %d running %v after every writer exited", d, q.isRunning())
	}
	if n := order.Load(); n != 0 {
		t.Fatalf("%d entries left out of per-producer order", n)
	}
	if q.drops.Load() != 0 {
		t.Fatalf("unexpected drops: %d", q.drops.Load())
	}
	t.Logf("%d writer starts for %d entries", starts.Load(), producers*each)
}

// writerGoroutines counts live session writers from a full goroutine
// dump.
func writerGoroutines() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), ").sessionWriter(")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// Once traffic to every session has been delivered, no writer
// goroutine remains: an idle session costs its reader and nothing else.
func TestNoWritersRemainAfterTraffic(t *testing.T) {
	forEachShardCount(t, testNoWritersRemainAfterTraffic)
}

func testNoWritersRemainAfterTraffic(t *testing.T, shards int) {
	r := newRig(t, func(c *ServerConfig) { c.Shards = shards })
	r.scene.SetLinkModel(1, uniformModel(0))
	const n = 8
	sinks := make([]*sink, n)
	clients := make([]*Client, n)
	for i := 0; i < n; i++ {
		id := radio.NodeID(i + 1)
		r.scene.AddNode(id, geom.V(float64(10*i), 0), oneRadio(1, 500))
		sinks[i] = newSink()
		clients[i] = r.client(id, sinks[i])
	}
	// Every client broadcasts a burst: each session receives from all
	// the others, so every session's writer runs at least once.
	const burst = 20
	for _, c := range clients {
		for s := 1; s <= burst; s++ {
			if err := c.Send(wire.Packet{Dst: radio.Broadcast, Channel: 1, Seq: uint32(s)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := (n - 1) * burst
	fedWaitFor(t, func() bool {
		for _, sk := range sinks {
			if sk.count() < want {
				return false
			}
		}
		return true
	}, "every broadcast to be delivered")
	deadline := time.Now().Add(5 * time.Second)
	for writerGoroutines() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if w := writerGoroutines(); w != 0 {
		t.Fatalf("%d writer goroutines remain after traffic settled", w)
	}
	for _, sh := range r.server.shards {
		sh.mu.RLock()
		for id, sess := range sh.sessions {
			if sess.q.isRunning() || sess.q.depth() != 0 {
				t.Errorf("session %v: running=%v depth=%d after traffic settled",
					id, sess.q.isRunning(), sess.q.depth())
			}
		}
		sh.mu.RUnlock()
	}
}
