package main

import (
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/linkmodel"
	"repro/internal/mbuf"
	"repro/internal/mobility"
	"repro/internal/radio"
	"repro/internal/scene"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// churn_multiradio: scene writes beside lock-free dispatch reads. A
// thousand in-process VMNs in real time on four channels with two
// radios each; a fifth of them move on the default 100 ms mobility
// tick, and channel 4 loses packets by distance. Operator mutations at
// a fixed rate (MoveNode, SetRange, SetRadios in turn, on static nodes)
// run on their own goroutine beside open-loop Poisson broadcast
// traffic. Every mutation rebuilds its channel views, so this covers
// view rebuilds per mutation and per tick, the indexed neighbour table
// and the link-model dice, while the schedule stays shallow and TCP is
// bypassed. The topology changes under the traffic, so receipt is
// checked against the server's own ledger rather than a precomputed
// count.
const (
	churnNodes    = 1000
	churnChannels = 4
	churnRate     = 4000 // broadcasts per second
	churnOpsRate  = 20   // scene mutations per second
	churnRange    = 120.0
	churnSide     = 1485.0
	churnRing     = 1 << 14
)

var churnModel = chanModel{delay: 2 * time.Millisecond, bps: 11e6}

type churn struct {
	clk       *vclock.System
	sc        *scene.Scene
	srv       *core.Server
	lis       *transport.InprocListener
	serveDone chan struct{}
	pool      *mbuf.Pool
	clients   []*core.Client

	radios   [][]radio.Radio // initial radio set, by node index
	events   []event
	next     int
	offset   time.Duration
	ring     [][]byte
	seq      []uint32
	sent     uint64
	ops      int
	sendErrs uint64
}

func setupChurn(b *bench, in []event, final bool) (env, error) {
	base := runtime.NumGoroutine()
	w := &churn{clk: vclock.NewSystem(1), pool: mbuf.NewPool()}
	b.window = 2000
	b.chk = newChecker(func() int64 { return int64(w.clk.Now()) }, 1)

	region := geom.R(0, 0, churnSide, churnSide)
	w.sc = scene.New(radio.NewIndexed(churnRange), w.clk, b.seed)
	for ch := radio.ChannelID(1); ch <= churnChannels; ch++ {
		var loss linkmodel.LossModel = linkmodel.NoLoss{}
		if ch == churnChannels {
			dl, err := linkmodel.NewDistanceLoss(0, 0.5, churnRange/3, churnRange)
			if err != nil {
				return nil, err
			}
			loss = dl
		}
		m, err := model(loss, churnModel)
		if err != nil {
			return nil, err
		}
		if err := w.sc.SetLinkModel(ch, m); err != nil {
			return nil, err
		}
		b.chk.models[ch] = churnModel
	}
	nodes := churnPlacement(b.seed)
	w.events = in
	w.radios = make([][]radio.Radio, churnNodes)
	for i := range nodes {
		w.radios[i] = nodes[i].Radios
	}
	if err := w.sc.AddNodes(nodes); err != nil {
		return nil, err
	}
	walk := mobility.Waypoint{MinSpeed: 5, MaxSpeed: 20, Pause: mobility.Constant(1), Region: region}
	for i := range nodes {
		if churnMobile(i) {
			w.sc.SetMobility(nodes[i].ID, walk)
		}
	}
	w.seq = make([]uint32, churnNodes*(churnChannels+1))
	w.ring = make([][]byte, churnRing)
	for i := range w.ring {
		w.ring[i] = make([]byte, 64)
		fillTail(w.ring[i])
	}

	var err error
	w.srv, err = core.NewServer(core.ServerConfig{Clock: w.clk, Scene: w.sc, Seed: b.seed})
	if err != nil {
		return nil, err
	}
	w.lis = transport.NewInprocListener()
	w.serveDone = make(chan struct{})
	go func() { defer close(w.serveDone); w.srv.Serve(transport.PoolIngress(w.lis, w.pool)) }()
	sinks := make([]*sink, churnNodes)
	for i := range sinks {
		sinks[i] = b.chk.newSink(radio.NodeID(i+1), 64)
	}
	w.clients, err = b.dialAll(churnNodes, func(i int) (*core.Client, error) {
		return core.Dial(core.ClientConfig{
			ID: radio.NodeID(i + 1), Dial: w.lis.Dialer(), LocalClock: w.clk,
			SyncRounds: 1, OnPacket: sinks[i].onPacket,
		})
	})
	if err != nil {
		return w, err
	}
	if final {
		b.goroutineCount(base, churnNodes)
		b.info = append(b.info, shardLine("churn", w.srv))
	}
	return w, nil
}

// churnMobile reports whether node index i moves: one node in five.
func churnMobile(i int) bool { return i%5 == 0 }

// churnPlacement generates the node positions and radio sets from seed.
func churnPlacement(seed int64) []scene.NodeSpec {
	rng := rand.New(rand.NewSource(seed))
	nodes := make([]scene.NodeSpec, churnNodes)
	for i := range nodes {
		c1 := radio.ChannelID(rng.Intn(churnChannels) + 1)
		c2 := radio.ChannelID((int(c1)+rng.Intn(churnChannels-1))%churnChannels + 1)
		nodes[i] = scene.NodeSpec{
			ID:     radio.NodeID(i + 1),
			Pos:    geom.V(rng.Float64()*churnSide, rng.Float64()*churnSide),
			Radios: []radio.Radio{{Channel: c1, Range: churnRange}, {Channel: c2, Range: churnRange}},
		}
	}
	return nodes
}

// churnEvents generates Poisson broadcasts over d from random nodes on
// one of their channels, merged with mutations at a fixed rate on
// static nodes.
func churnEvents(seed int64, d time.Duration) []event {
	nodes := churnPlacement(seed)
	var static []int32
	for i := range nodes {
		if !churnMobile(i) {
			static = append(static, int32(i))
		}
	}
	rng := rand.New(rand.NewSource(^seed)) // a stream apart from the placement's
	var events []event
	for _, at := range poissonTimes(rng, churnRate, d) {
		src := rng.Intn(churnNodes)
		events = append(events, event{at: at, src: int32(src), dst: -1,
			ch: uint8(nodes[src].Radios[rng.Intn(2)].Channel), size: 64})
	}
	gap := time.Second / churnOpsRate
	for k := 0; time.Duration(k)*gap < d; k++ {
		events = append(events, event{at: time.Duration(k)*gap + gap/2,
			src: static[rng.Intn(len(static))], dst: -1, op: uint8(k%3 + 1),
			size: uint16(rng.Intn(1 << 16))})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].at < events[j].at })
	return events
}

func (w *churn) traffic(b *bench, d time.Duration) {
	smp := b.startSampler([]*core.Server{w.srv}, nil)
	tr := b.chk.tr.Load()
	start := time.Now()
	emuStart := int64(w.clk.Now())
	end := w.next
	for end < len(w.events) && w.events[end].at < w.offset+d {
		end++
	}
	opsDone := runOps(w.events[w.next:end], w.offset, start, func(e event) { w.mutate(b, e) })
	for ; w.next < end; w.next++ {
		e := w.events[w.next]
		if e.op != 0 {
			continue
		}
		rel := e.at - w.offset
		if wait := time.Until(start.Add(rel)); wait > 0 {
			time.Sleep(wait)
		}
		// The payload carries the time the packet is handed to the
		// emulator; how late that is against the schedule is the
		// generator's lag, reported on its own (see METRICS.md).
		intended := int64(w.clk.Now())
		b.gen.add(0, intended-(emuStart+int64(rel)))
		src := radio.NodeID(e.src + 1)
		ch := radio.ChannelID(e.ch)
		flow := uint16(ch) // one stream per (sender, channel)
		k := int(e.src)*(churnChannels+1) + int(ch)
		w.seq[k]++
		buf := w.ring[w.next%len(w.ring)]
		stampPayload(buf, intended, w.seq[k], src, flow)
		var t0 int64
		if tr != nil {
			t0 = tr.now()
		}
		err := w.clients[e.src].Broadcast(ch, flow, buf)
		if tr != nil {
			tr.add(spGenSend, t0, tr.now(), packetID(src, flow, w.seq[k]))
		}
		if err != nil {
			w.sendErrs++
			b.chk.violation("broadcast n%d: %v", src, err)
			continue
		}
		w.sent++
	}
	opsDone()
	smp.generated()
	w.offset += d
	if wait := time.Until(start.Add(d)); wait > 0 {
		time.Sleep(wait)
	}
	b.settle([]*core.Server{w.srv}, w.sent)
	smp.halt()
}

// mutate applies one operator mutation; e.size seeds its parameters so
// they are part of the generated input.
func (w *churn) mutate(b *bench, e event) {
	id := radio.NodeID(e.src + 1)
	r := rand.New(rand.NewSource(int64(e.size)))
	switch e.op {
	case opMove:
		pos := geom.V(r.Float64()*churnSide, r.Float64()*churnSide)
		b.sceneOp(opMove, id, func() { w.sc.MoveNode(id, pos) })
	case opRange:
		rad := w.radios[e.src][r.Intn(2)]
		rng := churnRange * (0.75 + r.Float64()/2)
		b.sceneOp(opRange, id, func() { w.sc.SetRange(id, rad.Channel, rng) })
	case opRadios:
		radios := []radio.Radio{
			{Channel: w.radios[e.src][0].Channel, Range: churnRange * (0.75 + r.Float64()/2)},
			{Channel: w.radios[e.src][1].Channel, Range: churnRange * (0.75 + r.Float64()/2)},
		}
		b.sceneOp(opRadios, id, func() { w.sc.SetRadios(id, radios) })
	}
	w.ops++
}

func (w *churn) finish(b *bench) {
	var st core.ServerStats = w.srv.Stats()
	b.attempted = st.Entered + uint64(w.ops) + w.sendErrs
	b.failed += w.sendErrs + b.serverLedgers([]*core.Server{w.srv}, 0, false)
	sample := w.clients
	if len(sample) > 1000 {
		sample = sample[:1000]
	}
	b.serverLayers(parts{servers: []*core.Server{w.srv}, pools: []*mbuf.Pool{w.pool}, clients: sample, scale: 1, ops: w.ops})
}

func (w *churn) close(b *bench) {
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
