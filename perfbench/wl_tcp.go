package main

import (
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/linkmodel"
	"repro/internal/mbuf"
	"repro/internal/radio"
	"repro/internal/record"
	"repro/internal/scene"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// tcp_pair: the paper's deployment path with no fan-out. Two VMNs in
// real time (scale 1), each behind its own TCP loopback session, send
// open-loop Poisson unicast to each other with recording on, as poemd
// always records. Per-packet cost dominates: client encode, TCP, pooled
// decode, ingest, a shallow schedule, writer writev and the record
// append. The 4096-byte draws take the direct-iovec path (≥ 2 KiB) and
// several mbuf size classes. Each payload size is its own flow, so the
// per-flow order check holds even though larger packets have longer
// serialization times.
const (
	tcpRate = 40000 // packets per second, both directions together
)

var tcpSizes = []int{16, 64, 512, 1400, 4096}

var tcpModel = chanModel{delay: time.Millisecond, bps: 100e6}

type tcpPair struct {
	clk       *vclock.System
	srv       *core.Server
	lis       transport.Listener
	serveDone chan struct{}
	pool      *mbuf.Pool
	clients   []*core.Client
	sinks     [2]*sink

	events   []event
	next     int           // first event not yet sent
	offset   time.Duration // schedule time consumed by earlier phases
	seq      [2][5]uint32
	bufs     [5][]byte
	sent     uint64
	sendErrs uint64
}

func setupTCPPair(b *bench, in []event, final bool) (env, error) {
	base := runtime.NumGoroutine()
	w := &tcpPair{clk: vclock.NewSystem(1), pool: mbuf.NewPool()}
	b.window = 4000
	b.chk = newChecker(func() int64 { return int64(w.clk.Now()) }, 1)
	b.chk.models[1] = tcpModel

	w.events = in
	for i, s := range tcpSizes {
		w.bufs[i] = make([]byte, s)
		fillTail(w.bufs[i])
	}

	sc := scene.New(radio.NewIndexed(64), w.clk, b.seed)
	m, err := model(linkmodel.NoLoss{}, tcpModel)
	if err != nil {
		return nil, err
	}
	if err := sc.SetLinkModel(1, m); err != nil {
		return nil, err
	}
	for i := 0; i < 2; i++ {
		if err := sc.AddNode(radio.NodeID(i+1), geom.V(float64(i)*50, 0), []radio.Radio{{Channel: 1, Range: 100}}); err != nil {
			return nil, err
		}
	}
	w.srv, err = core.NewServer(core.ServerConfig{
		Clock: w.clk, Scene: sc, Store: record.NewStore(), Seed: b.seed,
		// 256 entries (the default) absorb 25 ms at this rate; a stall of
		// the host longer than that would show as drop-oldest evictions,
		// the overload policy, which is not what this workload measures.
		// poemd -sendqueue 4096 is the same setting.
		SendQueueDepth: 4096,
	})
	if err != nil {
		return nil, err
	}
	w.lis, err = transport.ListenTCPWithPool("127.0.0.1:0", w.pool)
	if err != nil {
		w.srv.Close()
		return nil, err
	}
	w.serveDone = make(chan struct{})
	go func() { defer close(w.serveDone); w.srv.Serve(w.lis) }()
	for i := range w.sinks {
		w.sinks[i] = b.chk.newSink(radio.NodeID(i+1), len(tcpSizes))
	}
	w.clients, err = b.dialAll(2, func(i int) (*core.Client, error) {
		return core.Dial(core.ClientConfig{
			ID: radio.NodeID(i + 1), Dial: transport.TCPDialer(w.lis.Addr()),
			LocalClock: w.clk, OnPacket: w.sinks[i].onPacket,
		})
	})
	if err != nil {
		return w, err
	}
	if final {
		b.goroutineCount(base, 2)
		b.info = append(b.info, shardLine("tcp", w.srv))
	}
	return w, nil
}

// tcpEvents generates open-loop Poisson unicast over d: a random
// direction and a random payload size class per packet.
func tcpEvents(seed int64, d time.Duration) []event {
	rng := rand.New(rand.NewSource(seed))
	var events []event
	for _, at := range poissonTimes(rng, tcpRate, d) {
		src := int32(rng.Intn(2))
		events = append(events, event{at: at, src: src, dst: 1 - src, ch: 1, size: uint16(rng.Intn(len(tcpSizes)))})
	}
	return events
}

func (w *tcpPair) traffic(b *bench, d time.Duration) {
	smp := b.startSampler([]*core.Server{w.srv}, nil)
	tr := b.chk.tr.Load()
	start := time.Now()
	emuStart := int64(w.clk.Now())
	for ; w.next < len(w.events) && w.events[w.next].at < w.offset+d; w.next++ {
		e := w.events[w.next]
		rel := e.at - w.offset
		if wait := time.Until(start.Add(rel)); wait > 0 {
			time.Sleep(wait)
		}
		// The payload carries the time the packet is handed to the
		// emulator; how late that is against the schedule is the
		// generator's lag, reported on its own (see METRICS.md).
		intended := int64(w.clk.Now())
		b.gen.add(0, intended-(emuStart+int64(rel)))
		flow := uint16(e.size) + 1
		w.seq[e.src][e.size]++
		seq := w.seq[e.src][e.size]
		src := radio.NodeID(e.src + 1)
		buf := w.bufs[e.size]
		stampPayload(buf, intended, seq, src, flow)
		var t0 int64
		if tr != nil {
			t0 = tr.now()
		}
		err := w.clients[e.src].SendTo(radio.NodeID(e.dst+1), 1, flow, buf)
		if tr != nil {
			tr.add(spGenSend, t0, tr.now(), packetID(src, flow, seq))
		}
		if err != nil {
			w.sendErrs++
			b.chk.violation("send n%d: %v", src, err)
			continue
		}
		w.sent++
	}
	smp.generated()
	w.offset += d
	if wait := time.Until(start.Add(d)); wait > 0 {
		time.Sleep(wait)
	}
	b.settle([]*core.Server{w.srv}, w.sent)
	smp.halt()
}

func (w *tcpPair) finish(b *bench) {
	b.attempted = w.sent + w.sendErrs
	b.failed += w.sendErrs + b.serverLedgers([]*core.Server{w.srv}, w.sent, true)
	b.serverLayers(parts{servers: []*core.Server{w.srv}, pools: []*mbuf.Pool{w.pool}, clients: w.clients, scale: 1, overTCP: true})
}

func (w *tcpPair) close(b *bench) {
	closeClients(w.clients)
	if w.lis != nil {
		w.lis.Close()
	}
	w.srv.Close()
	if w.serveDone != nil {
		<-w.serveDone
	}
	live := w.pool.Live()
	b.putLayer("mbuf.live_after_close", float64(live), 0)
	if live != 0 {
		b.chk.violation("mbuf: %d pooled buffers live after close", live)
		b.failed++
	}
}
