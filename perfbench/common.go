package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/linkmodel"
	"repro/internal/radio"
	"repro/internal/scene"
	"repro/internal/wire"
)

// model builds a link model whose due times the benchmark can compute
// from outside: constant delay, constant bandwidth.
func model(loss linkmodel.LossModel, m chanModel) (linkmodel.Model, error) {
	return linkmodel.New(loss, linkmodel.ConstantBandwidth{Bps: m.bps}, linkmodel.ConstantDelay{D: m.delay})
}

// dialAll connects n clients through a bounded worker pool, timing each
// core.Dial. dial(i) must return client i.
func (b *bench) dialAll(n int, dial func(i int) (*core.Client, error)) ([]*core.Client, error) {
	clients := make([]*core.Client, n)
	durs := make([]float64, n)
	workers := 4 * runtime.GOMAXPROCS(0)
	if workers > 64 {
		workers = 64
	}
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var firstErr atomic.Pointer[error]
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || firstErr.Load() != nil {
					return
				}
				var t0 int64
				if b.tr != nil {
					t0 = b.tr.now()
				}
				start := time.Now()
				c, err := dial(i)
				durs[i] = float64(time.Since(start))
				if err != nil {
					err = fmt.Errorf("dial client %d: %w", i, err)
					firstErr.CompareAndSwap(nil, &err)
					return
				}
				if b.tr != nil {
					b.tr.add(spClientDial, t0, b.tr.now(), uint64(i))
				}
				clients[i] = c
			}
		}()
	}
	wg.Wait()
	if e := firstErr.Load(); e != nil {
		closeClients(clients)
		return nil, *e
	}
	b.dials = append(b.dials, durs...)
	return clients, nil
}

func closeClients(cs []*core.Client) {
	var wg sync.WaitGroup
	sem := make(chan struct{}, 64) // bounds concurrent teardowns
	for _, c := range cs {
		if c == nil {
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(c *core.Client) {
			defer wg.Done()
			c.Close()
			<-sem
		}(c)
	}
	wg.Wait()
}

// onPacket adapts a sink to the client callback.
func (s *sink) onPacket(p wire.Packet) { s.observe(p.Src, p.Channel, p.Flow, p.Payload) }

// sampler polls the emulator while traffic flows for figures only a
// live reading shows: the deepest schedule and gateway egress backlog.
// While the generator runs it also marks deliveries and process CPU
// every quarter second, so throughput and CPU per delivery can be reported
// as medians over intervals.
type sampler struct {
	stop    chan struct{}
	done    chan struct{}
	genDone atomic.Bool
}

type mark struct {
	at   time.Time
	recv uint64
	cpu  time.Duration
}

const markEvery = 250 * time.Millisecond

func (b *bench) startSampler(servers []*core.Server, gws []*gateway.Gateway) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	chk := b.chk
	go func() {
		defer close(s.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		marks := []mark{{time.Now(), chk.received.Load(), cpuTime()}}
		defer func() {
			for i := 1; i < len(marks); i++ {
				d, c := marks[i].recv-marks[i-1].recv, marks[i].cpu-marks[i-1].cpu
				if d == 0 {
					continue
				}
				b.rates = append(b.rates, float64(d)/marks[i].at.Sub(marks[i-1].at).Seconds())
				b.cpuPer = append(b.cpuPer, float64(c)/float64(time.Microsecond)/float64(d))
			}
		}()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
			if !s.genDone.Load() && time.Since(marks[len(marks)-1].at) >= markEvery {
				marks = append(marks, mark{time.Now(), chk.received.Load(), cpuTime()})
			}
			depth := 0
			for _, srv := range servers {
				depth += srv.Stats().Scheduled
			}
			if depth > b.depthMax {
				b.depthMax = depth
			}
			for _, g := range gws {
				for _, l := range g.Stats() {
					settled := l.Written + l.EgressDropped + l.Late + l.NoPeer + l.WriteErr + l.Abandoned
					if l.Delivered > settled && l.Delivered-settled > b.egressMax {
						b.egressMax = l.Delivered - settled
					}
				}
			}
		}
	}()
	return s
}

// generated tells the sampler the generator has finished: the drain
// that follows is not a throughput interval.
func (s *sampler) generated() { s.genDone.Store(true) }

// halt stops the sampler and waits for it; its figures are safe to read
// afterwards.
func (s *sampler) halt() {
	close(s.stop)
	<-s.done
}

// settle waits until the servers have ingested sent packets, their
// pipelines are quiescent, and the clients have received everything the
// servers forwarded. A timeout is a correctness failure the ledgers at
// finish report; settle itself only bounds the wait.
func (b *bench) settle(servers []*core.Server, sent uint64) {
	var t0 int64
	tr := b.chk.tr.Load()
	if tr != nil {
		t0 = tr.now()
	}
	received := func() (n uint64) {
		for _, srv := range servers {
			n += srv.Stats().Received
		}
		return n
	}
	waitFor(30*time.Second, func() bool { return received() >= sent })
	for _, srv := range servers {
		srv.Quiesce(30 * time.Second)
	}
	forwarded := func() (n uint64) {
		for _, srv := range servers {
			n += srv.Stats().Forwarded
		}
		return n
	}
	waitFor(10*time.Second, func() bool { return b.chk.received.Load() >= forwarded() })
	if tr != nil {
		tr.add(spQuiesce, t0, tr.now(), 0)
	}
}

// waitFor polls cond until it holds or timeout passes.
func waitFor(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
	return true
}

// sceneOp runs one timed scene mutation.
func (b *bench) sceneOp(op uint8, id radio.NodeID, fn func()) {
	tr := b.chk.tr.Load()
	var t0 int64
	if tr != nil {
		t0 = tr.now()
	}
	start := time.Now()
	fn()
	b.sceneOps[op] = append(b.sceneOps[op], float64(time.Since(start)))
	if tr != nil {
		tr.add(spSceneOp, t0, tr.now(), uint64(id))
	}
}

// serverLedgers are the checks every in-process or TCP workload closes
// at quiesce: the conservation ledger, client receipt against the
// server's forwards, and — on lossless static topologies — receipt
// against what the topology implies. It returns the failed operations.
func (b *bench) serverLedgers(servers []*core.Server, expected uint64, exact bool) uint64 {
	var st core.ServerStats
	for _, srv := range servers {
		s := srv.Stats()
		st.Received += s.Received
		st.Entered += s.Entered
		st.Forwarded += s.Forwarded
		st.Dropped += s.Dropped
		st.NoRoute += s.NoRoute
		st.StampClamped += s.StampClamped
		st.QueueDrops += s.QueueDrops
		st.Abandoned += s.Abandoned
	}
	got := b.chk.received.Load()
	b.info = append(b.info, fmt.Sprintf("ledger received=%d entered=%d forwarded=%d linkdrops=%d noroute=%d clamped=%d queuedrops=%d abandoned=%d client-received=%d",
		st.Received, st.Entered, st.Forwarded, st.Dropped, st.NoRoute, st.StampClamped, st.QueueDrops, st.Abandoned, got))
	ls := []ledger{
		{"conservation: entered vs forwarded+queuedrops+abandoned", st.Entered, st.Forwarded + st.QueueDrops + st.Abandoned},
		{"client-received vs forwarded", st.Forwarded, got},
	}
	if exact {
		ls = append(ls, ledger{"received vs topology-implied deliveries", expected, got})
	}
	return b.chk.verify(ls...) + st.QueueDrops + st.Abandoned
}

// goroutineCount records goroutines per session with every session
// live: the count above the pre-setup baseline divided by sessions.
func (b *bench) goroutineCount(base, sessions int) {
	b.goroutines = float64(runtime.NumGoroutine()-base) / float64(sessions)
}

// sceneHas reports whether every id is in the scene.
func sceneHas(sc *scene.Scene, ids ...radio.NodeID) bool {
	for _, id := range ids {
		if !sc.HasNode(id) {
			return false
		}
	}
	return true
}

// runOps applies the scene mutations among events on their own
// goroutine, each at its scheduled offset from start, so a slow
// mutation delays neither the traffic generator nor the lateness it
// measures. The returned function waits for the goroutine to finish.
func runOps(events []event, offset time.Duration, start time.Time, apply func(event)) (wait func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, e := range events {
			if e.op == 0 {
				continue
			}
			if d := time.Until(start.Add(e.at - offset)); d > 0 {
				time.Sleep(d)
			}
			apply(e)
		}
	}()
	return func() { <-done }
}
