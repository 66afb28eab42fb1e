package core

// BenchmarkDispatchParallel measures the §3.2 scheduling hot path —
// ingest: neighbor+model resolution through the lock-free epoch
// snapshot, link-model evaluation, and the schedule push — with many
// sessions sending concurrently. The schedule is a discard queue so
// the benchmark isolates the dispatch stage from scanner/writer
// throughput. Reported metrics: pkt/s and allocs/op (0 on the steady
// state).
//
// Baseline numbers live in BENCH_dispatch.json at the repo root (its
// "locked" arm is a historical record of the retired mutex read path);
// refresh with:
//
//	go test ./internal/core -run='^$' -bench=DispatchParallel -benchmem

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/radio"
	"repro/internal/scene"
	"repro/internal/sched"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// discardQueue sinks schedule pushes; the dispatch benches use it so
// heap maintenance isn't what gets measured.
type discardQueue struct{}

func (discardQueue) Push(sched.Item)                           {}
func (discardQueue) PopDue(vclock.Time) (sched.Item, bool)     { return sched.Item{}, false }
func (discardQueue) PopDueBatch(vclock.Time, []sched.Item) int { return 0 }
func (discardQueue) NextDue() (vclock.Time, bool)              { return 0, false }
func (discardQueue) Len() int                                  { return 0 }

// newDispatchBench builds a server of `shards` shards, each with its own
// discard queue, over a populated scene: `nodes` VMNs in a row on
// channel 1, spaced so each hears a handful of neighbors.
func newDispatchBench(tb testing.TB, nodes, shards int) *Server {
	tb.Helper()
	clk := vclock.NewManual(vclock.FromSeconds(100))
	sc := scene.New(radio.NewIndexed(120), clk, 1)
	for id := 0; id < nodes; id++ {
		err := sc.AddNode(radio.NodeID(id), geom.V(float64(id)*40, 0),
			[]radio.Radio{{Channel: 1, Range: 120}})
		if err != nil {
			tb.Fatal(err)
		}
	}
	cfg := ServerConfig{Clock: clk, Scene: sc, Seed: 1, Shards: shards}
	srv, err := newServer(cfg, func() sched.Queue { return discardQueue{} })
	if err != nil {
		tb.Fatal(err)
	}
	return srv
}

func benchSession(id radio.NodeID, srv *Server) *session {
	return &session{
		id:  id,
		rng: rand.New(rand.NewSource(int64(id) + 1)),
		q:   newSendQueue(0, srv, id),
	}
}

func BenchmarkDispatchParallel(b *testing.B) {
	const nodes = 32
	for _, mode := range []struct {
		name   string
		shards int
	}{
		{"snapshot", 1},
		// The schedule-push half of the hot path spread over 4 shard
		// queues: on multi-core hosts concurrent sessions stop
		// serializing on one scanner mutex.
		{"snapshot-shards=4", 4},
	} {
		b.Run(mode.name, func(b *testing.B) {
			srv := newDispatchBench(b, nodes, mode.shards)
			var next int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				// One session per benchmark goroutine, like one per client.
				id := radio.NodeID(int(next) % nodes)
				next++
				sess := benchSession(id, srv)
				pkt := wire.Packet{
					Src: id, Dst: radio.Broadcast, Channel: 1,
					Stamp: vclock.FromSeconds(100), Payload: make([]byte, 64),
				}
				for pb.Next() {
					pkt.Seq++
					srv.ingest(sess, pkt)
				}
			})
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pkt/s")
		})
	}
}

// TestIngestSteadyStateAllocFree pins the acceptance criterion: on the
// steady-state forwarding path (recording off, schedule warm) ingest
// performs zero heap allocations for the neighbor/model lookup and
// target selection — at the default sampling rate and with every packet
// sampled, stage-timed and traced into the flight recorder.
func TestIngestSteadyStateAllocFree(t *testing.T) {
	for _, arm := range []struct {
		name        string
		sampleEvery uint32
	}{
		{"default", DefaultObsSampleEvery},
		{"ObsSampleEvery=1", 1},
	} {
		t.Run(arm.name, func(t *testing.T) {
			srv := newDispatchBench(t, 16, 1)
			srv.sampleEvery.Store(arm.sampleEvery)
			sess := benchSession(3, srv)
			pkt := wire.Packet{
				Src: 3, Dst: radio.Broadcast, Channel: 1,
				Stamp: vclock.FromSeconds(100), Payload: make([]byte, 64),
			}
			srv.ingest(sess, pkt) // warm the scratch buffer
			recorded := srv.ring.Recorded()
			allocs := testing.AllocsPerRun(500, func() {
				srv.ingest(sess, pkt)
			})
			if allocs != 0 {
				t.Errorf("ingest allocates %v per packet on the steady state, want 0", allocs)
			}
			if srv.Stats().Received == 0 {
				t.Fatal("ingest did not run")
			}
			if arm.sampleEvery == 1 && srv.ring.Recorded()-recorded < 2*500 {
				t.Fatalf("only %d flight-recorder events for 501 sampled packets",
					srv.ring.Recorded()-recorded)
			}
		})
	}
}
