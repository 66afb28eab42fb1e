package main

import (
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/geom"
	"repro/internal/linkmodel"
	"repro/internal/mbuf"
	"repro/internal/radio"
	"repro/internal/scene"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// relay_fed_udp: real traffic across a federation. Two in-process
// peers joined by TCP trunks over loopback, each with an embedded
// gateway. The generator writes framed UDP datagrams into node A's
// binding on peer 0; node B, owned by peer 1, is in range, so every
// packet crosses the trunk and leaves B's binding for a sink socket.
// The coordinator (peer 0) mutates filler nodes at a low fixed rate and
// the benchmark times how long the follower's scene takes to reflect
// each mutation. Without this workload gateway ingress and egress, the
// trunk batching, cross-peer ingest and the replication stream go
// unmeasured. Each payload size is its own flow (framed bindings carry
// the flow), so per-flow order holds despite size-dependent
// serialization.
const (
	relayRate    = 4000 // datagrams per second
	relayOpsRate = 20   // coordinator mutations per second
	relayFillers = 8
)

var relaySizes = []int{64, 512}

var relayModel = chanModel{delay: time.Millisecond, bps: 100e6}

type relay struct {
	clk        *vclock.System
	scenes     [2]*scene.Scene
	srvs       [2]*core.Server
	lis        [2]transport.Listener
	pools      [2]*mbuf.Pool
	gws        [2]*gateway.Gateway
	serveDone  [2]chan struct{}
	a, bNode   radio.NodeID
	fillers    []radio.NodeID
	out, sinkC *net.UDPConn
	sink       *sink
	sinkWG     sync.WaitGroup
	sinkGot    uint64            // datagrams the sink read; written by the sink goroutine, read after it exits
	applied    chan radio.NodeID // filler changes the follower's scene applied

	events  []event
	next    int
	offset  time.Duration
	seq     [3]uint32
	frames  [3][]byte
	sent    uint64
	ops     int
	writeEr uint64
}

// ownedBy returns the first id at or after from that peer p owns.
func ownedBy(p int, from radio.NodeID) radio.NodeID {
	for core.PeerIndex(from, 2) != p {
		from++
	}
	return from
}

func setupRelay(b *bench, in []event, final bool) (env, error) {
	base := runtime.NumGoroutine()
	w := &relay{clk: vclock.NewSystem(1)}
	b.window = 500
	b.chk = newChecker(func() int64 { return int64(w.clk.Now()) }, 1)
	b.chk.models[1] = relayModel

	w.a = ownedBy(0, 1)
	w.bNode = ownedBy(1, 1)
	next := radio.NodeID(100)
	for i := 0; i < relayFillers; i++ {
		next = ownedBy(i%2, next)
		w.fillers = append(w.fillers, next)
		next++
	}
	w.events = in

	// Listeners first: every peer's address must be known before any
	// server is configured with the peer list.
	var peers []core.PeerSpec
	for p := 0; p < 2; p++ {
		w.pools[p] = mbuf.NewPool()
		l, err := transport.ListenTCPWithPool("127.0.0.1:0", w.pools[p])
		if err != nil {
			return w, err
		}
		w.lis[p] = l
		peers = append(peers, core.PeerSpec{Addr: l.Addr()})
	}
	for p := 0; p < 2; p++ {
		w.scenes[p] = scene.New(radio.NewIndexed(64), w.clk, b.seed)
		m, err := model(linkmodel.NoLoss{}, relayModel)
		if err != nil {
			return w, err
		}
		// Link models are configuration, not replicated state: each peer
		// sets its own, as peers sharing a config file would.
		for ch := radio.ChannelID(1); ch <= 2; ch++ {
			if err := w.scenes[p].SetLinkModel(ch, m); err != nil {
				return w, err
			}
		}
		srv, err := core.NewServer(core.ServerConfig{
			Clock: w.clk, Scene: w.scenes[p], Seed: b.seed,
			Peers: peers, Self: p, ClusterID: "perfbench",
		})
		if err != nil {
			return w, err
		}
		w.srvs[p] = srv
		w.serveDone[p] = make(chan struct{})
		go func(p int) { defer close(w.serveDone[p]); w.srvs[p].Serve(w.lis[p]) }(p)
	}
	// Nodes enter through the coordinator and replicate to the follower.
	co := w.scenes[0]
	if err := co.AddNode(w.a, geom.V(0, 0), []radio.Radio{{Channel: 1, Range: 100}}); err != nil {
		return w, err
	}
	if err := co.AddNode(w.bNode, geom.V(50, 0), []radio.Radio{{Channel: 1, Range: 100}}); err != nil {
		return w, err
	}
	for i, id := range w.fillers {
		if err := co.AddNode(id, geom.V(1000+float64(i)*30, 1000), []radio.Radio{{Channel: 2, Range: 40}}); err != nil {
			return w, err
		}
	}
	all := append([]radio.NodeID{w.a, w.bNode}, w.fillers...)
	if !waitFor(10*time.Second, func() bool { return sceneHas(w.scenes[1], all...) }) {
		return w, fmt.Errorf("scene never replicated to the follower")
	}
	w.applied = make(chan radio.NodeID, 64) // mutations run one at a time; this only absorbs stragglers
	w.scenes[1].Subscribe(func(e scene.Event) {
		if e.Kind == scene.NodeMoved || e.Kind == scene.RadiosChanged {
			select {
			case w.applied <- e.Node:
			default:
			}
		}
	})

	var err error
	w.sinkC, err = net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return w, err
	}
	_ = w.sinkC.SetReadBuffer(4 << 20) // best effort: a smaller buffer only risks loss the ledgers count
	bindings := [2]gateway.Binding{
		{Listen: "127.0.0.1:0", Node: w.a, Channel: 1, Framed: true},
		{Listen: "127.0.0.1:0", Node: w.bNode, Channel: 1, Framed: true, Peer: w.sinkC.LocalAddr().String()},
	}
	for p := 0; p < 2; p++ {
		t0 := time.Now()
		w.gws[p], err = gateway.New(gateway.Config{
			Bindings: []gateway.Binding{bindings[p]}, Dial: transport.TCPDialer(w.lis[p].Addr()),
			LocalClock: w.clk, Pool: w.pools[p], Obs: w.srvs[p].Obs(),
			Monitor: w.srvs[p].Fidelity(), Shards: w.srvs[p].Shards(),
		})
		// A binding's core.Dial happens inside gateway.New.
		b.dials = append(b.dials, float64(time.Since(t0)))
		if err != nil {
			return w, err
		}
	}
	w.out, err = net.DialUDP("udp", nil, w.gws[0].Addr(0).(*net.UDPAddr))
	if err != nil {
		return w, err
	}
	_ = w.out.SetWriteBuffer(4 << 20) // best effort, as above
	for i, s := range relaySizes {
		f := gateway.AppendHeader(nil, w.bNode, 1, uint16(i+1))
		w.frames[i] = append(f, make([]byte, s)...)
		fillTail(w.frames[i][gateway.HeaderSize:])
	}
	w.sink = b.chk.newSink(w.bNode, len(relaySizes))
	w.sinkWG.Add(1)
	go w.readSink(b.chk)
	if final {
		b.goroutineCount(base, 2)
		b.info = append(b.info, shardLine("peer0", w.srvs[0]), shardLine("peer1", w.srvs[1]))
	}
	return w, nil
}

// relayEvents generates open-loop Poisson datagrams over d, merged with
// coordinator mutations at a fixed rate on random filler nodes.
func relayEvents(seed int64, d time.Duration) []event {
	rng := rand.New(rand.NewSource(seed))
	var pkts, ops []event
	for _, at := range poissonTimes(rng, relayRate, d) {
		pkts = append(pkts, event{at: at, ch: 1, size: uint16(rng.Intn(len(relaySizes)))})
	}
	gap := time.Second / relayOpsRate
	for k := 0; time.Duration(k)*gap < d; k++ {
		ops = append(ops, event{at: time.Duration(k)*gap + gap/3, src: int32(rng.Intn(relayFillers)),
			op: uint8(k%3 + 1), size: uint16(rng.Intn(1 << 16))})
	}
	return mergeEvents(pkts, ops)
}

// mergeEvents merges two time-sorted event lists.
func mergeEvents(x, y []event) []event {
	out := make([]event, 0, len(x)+len(y))
	for len(x) > 0 || len(y) > 0 {
		if len(y) == 0 || (len(x) > 0 && x[0].at <= y[0].at) {
			out, x = append(out, x[0]), x[1:]
		} else {
			out, y = append(out, y[0]), y[1:]
		}
	}
	return out
}

// readSink is the UDP sink: every datagram is a framed egress from B's
// binding, carrying A as its emulated source.
func (w *relay) readSink(chk *checker) {
	defer w.sinkWG.Done()
	buf := make([]byte, 64<<10)
	for {
		n, err := w.sinkC.Read(buf)
		if err != nil {
			return
		}
		tr := chk.tr.Load()
		var t0 int64
		if tr != nil {
			t0 = tr.now()
		}
		w.sinkGot++
		p := buf[:n]
		if n < gateway.HeaderSize {
			chk.corrupt.Add(1)
			chk.violation("sink: %d-byte datagram", n)
			continue
		}
		src, ch, flow := headerFields(p)
		w.sink.observe(src, ch, flow, p[gateway.HeaderSize:])
		if tr != nil {
			_, seq, _ := parsePayload(p[gateway.HeaderSize:], src, flow)
			tr.add(spUDPRead, t0, tr.now(), packetID(src, flow, seq))
		}
	}
}

// headerFields decodes a gateway frame header (big endian: magic,
// node, channel, flow).
func headerFields(p []byte) (radio.NodeID, radio.ChannelID, uint16) {
	be32 := func(b []byte) uint32 { return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3]) }
	be16 := func(b []byte) uint16 { return uint16(b[0])<<8 | uint16(b[1]) }
	return radio.NodeID(be32(p[2:6])), radio.ChannelID(be16(p[6:8])), be16(p[8:10])
}

func (w *relay) traffic(b *bench, d time.Duration) {
	smp := b.startSampler(w.srvs[:], w.gws[:])
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
		flow := uint16(e.size) + 1
		w.seq[e.size]++
		f := w.frames[e.size]
		stampPayload(f[gateway.HeaderSize:], intended, w.seq[e.size], w.a, flow)
		var t0 int64
		if tr != nil {
			t0 = tr.now()
		}
		_, err := w.out.Write(f)
		if tr != nil {
			tr.add(spUDPWrite, t0, tr.now(), packetID(w.a, flow, w.seq[e.size]))
		}
		if err != nil {
			w.writeEr++
			b.chk.violation("udp write: %v", err)
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
	w.settle(b)
	smp.halt()
}

// settle waits until every datagram sent has reached the sink, or the
// pipeline has visibly stopped moving, then quiesces both peers.
func (w *relay) settle(b *bench) {
	tr := b.chk.tr.Load()
	var t0 int64
	if tr != nil {
		t0 = tr.now()
	}
	last, idle := b.chk.received.Load(), 0
	waitFor(30*time.Second, func() bool {
		got := b.chk.received.Load()
		if got >= w.sent {
			return true
		}
		if got == last {
			idle++
		} else {
			last, idle = got, 0
		}
		return idle > 5000 // about a second without progress
	})
	for _, srv := range w.srvs {
		srv.Quiesce(10 * time.Second)
	}
	if tr != nil {
		tr.add(spQuiesce, t0, tr.now(), 0)
	}
}

// mutate applies one coordinator mutation to a filler node and times
// how long the follower's scene takes to reflect it: the follower's
// scene announces every applied change to its subscribers, and the
// node's state is then read back through Scene.Node.
func (w *relay) mutate(b *bench, e event) {
	id := w.fillers[e.src]
	r := rand.New(rand.NewSource(int64(e.size)))
	co, fo := w.scenes[0], w.scenes[1]
	var applied func() bool
	switch e.op {
	case opMove:
		pos := geom.V(1000+r.Float64()*300, 1000+r.Float64()*300)
		b.sceneOp(opMove, id, func() { co.MoveNode(id, pos) })
		applied = func() bool { n, ok := fo.Node(id); return ok && n.Pos == pos }
	case opRange:
		rng := 20 + r.Float64()*40
		b.sceneOp(opRange, id, func() { co.SetRange(id, 2, rng) })
		applied = func() bool { n, ok := fo.Node(id); return ok && len(n.Radios) == 1 && n.Radios[0].Range == rng }
	case opRadios:
		rads := []radio.Radio{{Channel: 2, Range: 20 + r.Float64()*40}}
		b.sceneOp(opRadios, id, func() { co.SetRadios(id, rads) })
		applied = func() bool { n, ok := fo.Node(id); return ok && len(n.Radios) == 1 && n.Radios[0] == rads[0] }
	}
	w.ops++
	start := time.Now()
	timeout := time.After(5 * time.Second)
	for {
		select {
		case got := <-w.applied:
			if got != id || !applied() {
				continue
			}
			b.replLag = append(b.replLag, float64(time.Since(start)))
			return
		case <-timeout:
			b.chk.violation("replication: follower never applied mutation %d on n%d", e.op, id)
			b.failed++
			return
		}
	}
}

func (w *relay) finish(b *bench) {
	var entered, forwarded, drops, abandoned, remote, recv, dropped uint64
	for _, srv := range w.srvs {
		st := srv.Stats()
		entered += st.Entered
		forwarded += st.Forwarded
		drops += st.QueueDrops
		abandoned += st.Abandoned
		cs := srv.Cluster()
		remote += cs.RemoteEntries
		recv += cs.RecvEntries
		dropped += cs.TrunkDropped
	}
	in, eg := w.gws[0].Stats()[0], w.gws[1].Stats()[0]
	// The sink has everything it will get; stop its reader.
	if err := w.sinkC.SetReadDeadline(time.Now()); err != nil {
		w.sinkC.Close()
	}
	w.sinkWG.Wait()
	co := w.srvs[0].Cluster()
	fo := w.srvs[1].Cluster()
	converged := uint64(1)
	for _, id := range w.fillers {
		a, _ := w.scenes[0].Node(id)
		f, _ := w.scenes[1].Node(id)
		if a.Pos != f.Pos || len(a.Radios) != len(f.Radios) || (len(a.Radios) > 0 && a.Radios[0] != f.Radios[0]) {
			converged = 0
		}
	}
	b.attempted = w.sent + w.writeEr + uint64(w.ops)
	b.failed += w.writeEr + drops + abandoned + in.Shed + eg.Late + eg.EgressDropped + b.chk.verify(
		ledger{"cluster conservation: entered vs forwarded+queuedrops+abandoned", entered, forwarded + drops + abandoned},
		ledger{"trunk transit: remote entries vs received+dropped", remote, recv + dropped},
		ledger{"gateway ingress: datagrams sent vs read", w.sent, in.Ingress},
		ledger{"gateway ingress ledger", in.Ingress, in.Accepted + in.Shed + in.BadFrame + in.Oversize + in.SendErr},
		ledger{"emulated deliveries vs accepted (lossless, in range)", in.Accepted, forwarded},
		ledger{"gateway egress: delivered vs forwarded", forwarded, eg.Delivered},
		ledger{"gateway egress ledger", eg.Delivered, eg.Written + eg.EgressDropped + eg.Late + eg.NoPeer + eg.WriteErr + eg.Abandoned},
		ledger{"sink received vs written", eg.Written, w.sinkGot},
		ledger{"follower applied vs coordinator sequence", co.RepSeq, fo.AppliedSeq},
		ledger{"follower scene converged", 1, converged},
	)
	b.putLayer("transport.trunk_entries_per_batch", ratio(remote, in.Accepted), in.Accepted)
	b.serverLayers(parts{servers: w.srvs[:], pools: w.pools[:], gws: w.gws[:], scale: 1, overTCP: true, ops: w.ops})
}

func (w *relay) close(b *bench) {
	if w.out != nil {
		w.out.Close()
	}
	if w.sinkC != nil {
		w.sinkC.Close()
		w.sinkWG.Wait()
	}
	for p := 0; p < 2; p++ {
		if w.gws[p] != nil {
			w.gws[p].Close()
		}
	}
	for p := 0; p < 2; p++ {
		if w.lis[p] != nil {
			w.lis[p].Close()
		}
		if w.srvs[p] != nil {
			w.srvs[p].Close()
			<-w.serveDone[p]
		}
	}
	var live int64
	for _, pl := range w.pools {
		if pl != nil {
			live += pl.Live()
		}
	}
	b.putLayer("mbuf.live_after_close", float64(live), 0)
	if live != 0 {
		b.chk.violation("mbuf: %d pooled buffers live after close", live)
		b.failed++
	}
}
