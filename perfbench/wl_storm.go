package main

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/linkmodel"
	"repro/internal/mbuf"
	"repro/internal/radio"
	"repro/internal/scene"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// storm_inproc: the poem-exp load grid — a large population of
// in-process sessions (clock scale 200, one channel, range 3.5 grid
// cells, 64-byte payloads, no recording) driven closed loop by
// one generator goroutine that keeps a fixed window of expected
// deliveries in flight. Deep due-runs and per-session writer wake-ups
// dominate: sched batch firing, shard scanners, the send queues with
// their writer goroutines and mbuf refcount fan-out. The wire codec,
// TCP and recording are bypassed.
const (
	stormSessions = 10000
	stormWindow   = 1024    // expected deliveries in flight
	stormScale    = 200     // emulation clock rate
	stormPicks    = 1 << 16 // sender draws, cycled
	stormRing     = 1 << 14 // payload buffers, reused round robin
	stormSpacing  = 10.0
	stormRange    = 35.0
)

var stormModel = chanModel{delay: time.Millisecond, bps: 1e9}

type storm struct {
	clk       *vclock.System
	srv       *core.Server
	lis       *transport.InprocListener
	serveDone chan struct{}
	pool      *mbuf.Pool
	clients   []*core.Client

	deg      []uint64 // topology-implied deliveries per broadcast, by node index
	picks    []event
	next     int
	ring     [][]byte
	seq      []uint32
	sent     uint64
	expected uint64
	sendErrs uint64
}

// gridDegrees counts, for every node of an n-node grid, the other nodes
// within range — what the topology implies a broadcast reaches.
func gridDegrees(n int, spacing, rng float64) []uint64 {
	side := gridSide(n)
	reach := int(rng / spacing)
	deg := make([]uint64, n)
	for i := 0; i < n; i++ {
		x, y := i%side, i/side
		for dy := -reach; dy <= reach; dy++ {
			for dx := -reach; dx <= reach; dx++ {
				if dx == 0 && dy == 0 {
					continue
				}
				nx, ny := x+dx, y+dy
				if nx < 0 || ny < 0 || nx >= side || ny*side+nx >= n {
					continue
				}
				if float64(dx*dx+dy*dy)*spacing*spacing <= rng*rng {
					deg[i]++
				}
			}
		}
	}
	return deg
}

// stormInput generates the closed-loop sender draws, cycled through in
// order.
func stormInput(seed int64) []event {
	rng := rand.New(rand.NewSource(seed))
	picks := make([]event, stormPicks)
	for i := range picks {
		picks[i] = event{src: int32(rng.Intn(stormSessions)), dst: -1, ch: 1, size: 64}
	}
	return picks
}

func gridSide(n int) int {
	side := 1
	for side*side < n {
		side++
	}
	return side
}

func setupStorm(b *bench, in []event, final bool) (env, error) {
	base := runtime.NumGoroutine()
	w := &storm{clk: vclock.NewSystem(stormScale), pool: mbuf.NewPool()}
	b.window = 20000
	b.chk = newChecker(func() int64 { return int64(w.clk.Now()) }, stormScale)
	b.chk.models[1] = stormModel

	w.picks = in
	w.deg = gridDegrees(stormSessions, stormSpacing, stormRange)
	w.seq = make([]uint32, stormSessions)
	w.ring = make([][]byte, stormRing)
	for i := range w.ring {
		w.ring[i] = make([]byte, 64)
		fillTail(w.ring[i])
	}

	sc := scene.New(radio.NewIndexed(64), w.clk, b.seed)
	m, err := model(linkmodel.NoLoss{}, stormModel)
	if err != nil {
		return nil, err
	}
	if err := sc.SetLinkModel(1, m); err != nil {
		return nil, err
	}
	side := gridSide(stormSessions)
	nodes := make([]scene.NodeSpec, stormSessions)
	for i := range nodes {
		nodes[i] = scene.NodeSpec{
			ID:     radio.NodeID(i + 1),
			Pos:    geom.V(float64(i%side)*stormSpacing, float64(i/side)*stormSpacing),
			Radios: []radio.Radio{{Channel: 1, Range: stormRange}},
		}
	}
	if err := sc.AddNodes(nodes); err != nil {
		return nil, err
	}
	w.srv, err = core.NewServer(core.ServerConfig{
		Clock: w.clk, Scene: sc, Seed: b.seed,
		// A destination absorbs every in-range sender's burst before its
		// writer runs on a saturated host; the queue bound is not what
		// this workload measures.
		SendQueueDepth: 1 << 14,
		TickStep:       10 * time.Second, // static scene
	})
	if err != nil {
		return nil, err
	}
	w.lis = transport.NewInprocListener()
	w.serveDone = make(chan struct{})
	go func() { defer close(w.serveDone); w.srv.Serve(transport.PoolIngress(w.lis, w.pool)) }()
	sinks := make([]*sink, stormSessions)
	for i := range sinks {
		sinks[i] = b.chk.newSink(radio.NodeID(i+1), int(w.deg[i])+1)
	}
	w.clients, err = b.dialAll(stormSessions, func(i int) (*core.Client, error) {
		return core.Dial(core.ClientConfig{
			ID: radio.NodeID(i + 1), Dial: w.lis.Dialer(), LocalClock: w.clk,
			SyncRounds: 1, OnPacket: sinks[i].onPacket,
		})
	})
	if err != nil {
		return w, err
	}
	if final {
		b.goroutineCount(base, stormSessions)
		b.info = append(b.info, shardLine("storm", w.srv))
	}
	return w, nil
}

func (w *storm) traffic(b *bench, d time.Duration) {
	smp := b.startSampler([]*core.Server{w.srv}, nil)
	tr := b.chk.tr.Load()
	chk := b.chk
	stop := make(chan struct{})
	stalled := watchWindow(chk, stop)
	defer close(stop)
	deadline := time.Now().Add(d)
	for k := 0; ; k++ {
		if k&63 == 0 && time.Now().After(deadline) {
			break
		}
		for w.expected-chk.received.Load() >= stormWindow && !stalled.Load() {
			chk.waiting.Store(true)
			if w.expected-chk.received.Load() >= stormWindow {
				<-chk.wake
			}
			chk.waiting.Store(false)
		}
		if stalled.Load() {
			chk.violation("storm: window never drained (%d expected, %d received)", w.expected, chk.received.Load())
			break
		}
		e := w.picks[w.next%len(w.picks)]
		buf := w.ring[w.next%len(w.ring)]
		w.next++
		w.seq[e.src]++
		src := radio.NodeID(e.src + 1)
		intended := int64(w.clk.Now())
		stampPayload(buf, intended, w.seq[e.src], src, 1)
		var t0 int64
		if tr != nil {
			t0 = tr.now()
		}
		err := w.clients[e.src].Broadcast(1, 1, buf)
		if tr != nil {
			tr.add(spGenSend, t0, tr.now(), packetID(src, 1, w.seq[e.src]))
		}
		if err != nil {
			w.sendErrs++
			chk.violation("broadcast n%d: %v", src, err)
			continue
		}
		w.sent++
		w.expected += w.deg[e.src]
	}
	smp.generated()
	b.settle([]*core.Server{w.srv}, w.sent)
	smp.halt()
}

// watchWindow flags a closed-loop generator whose window has not moved
// for two seconds — deliveries were lost — and wakes it so the run ends
// with a failure instead of hanging.
func watchWindow(chk *checker, stop <-chan struct{}) *atomic.Bool {
	stalled := new(atomic.Bool)
	go func() {
		t := time.NewTicker(250 * time.Millisecond)
		defer t.Stop()
		last, idle := chk.received.Load(), 0
		for {
			select {
			case <-stop:
				return
			case <-t.C:
			}
			if now := chk.received.Load(); now != last || !chk.waiting.Load() {
				last, idle = now, 0
				continue
			}
			if idle++; idle >= 8 {
				stalled.Store(true)
				select {
				case chk.wake <- struct{}{}:
				default:
				}
				return
			}
		}
	}()
	return stalled
}

func (w *storm) finish(b *bench) {
	b.attempted = w.expected + w.sendErrs
	b.failed += w.sendErrs + b.serverLedgers([]*core.Server{w.srv}, w.expected, true)
	sample := w.clients
	if len(sample) > 1000 {
		sample = sample[:1000]
	}
	b.serverLayers(parts{servers: []*core.Server{w.srv}, pools: []*mbuf.Pool{w.pool}, clients: sample, scale: stormScale})
}

func (w *storm) close(b *bench) {
	closeClients(w.clients)
	w.lis.Close()
	w.srv.Close()
	<-w.serveDone
	live := w.pool.Live()
	b.putLayer("mbuf.live_after_close", float64(live), 0)
	if live != 0 {
		b.chk.violation("mbuf: %d pooled buffers live after close", live)
		b.failed++
	}
}
