package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/linkmodel"
	"repro/internal/radio"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// Tests for the per-session delivery pipeline: in-order forwarding,
// slow-client isolation (drop-oldest backpressure), bounded goroutine
// count, stamp clamping, and the sync timeout. The order and goroutine
// tests are regressions against the old goroutine-per-packet send path,
// which raced sends on the connection lock and spawned one goroutine
// per in-flight delivery.

// uniformModel is a deterministic zero-loss link: every delivery gets
// the same delay, so schedule order equals send order.
func uniformModel(d time.Duration) linkmodel.Model {
	return linkmodel.Model{
		Loss:      linkmodel.NoLoss{},
		Bandwidth: linkmodel.ConstantBandwidth{Bps: 1e9},
		Delay:     linkmodel.ConstantDelay{D: d},
	}
}

// rawSession dials the listener and completes only the Hello handshake:
// a client that is alive at the transport level but never reads, the
// worst-case slow consumer.
func rawSession(t *testing.T, lis *transport.InprocListener, id radio.NodeID) transport.Conn {
	t.Helper()
	conn, err := lis.Dial()
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(&wire.Hello{Ver: wire.Version, ProposedID: id}); err != nil {
		t.Fatal(err)
	}
	m, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.(*wire.HelloAck); !ok {
		t.Fatalf("handshake reply %v, want HelloAck", m.Type())
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// stallSends wraps the server's listener so that, for the VMNs in ids,
// every server-side Send after the HelloAck blocks until the connection
// closes. The client is wedged by construction: its writer parks in
// Send on the first message, however much the transport would buffer.
func stallSends(ids ...radio.NodeID) func(transport.Listener) transport.Listener {
	return func(l transport.Listener) transport.Listener {
		return stallListener{Listener: l, ids: ids}
	}
}

type stallListener struct {
	transport.Listener
	ids []radio.NodeID
}

func (l stallListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &stallConn{Conn: c, ids: l.ids, closed: make(chan struct{})}, nil
}

// stallConn passes traffic through until the Hello names one of ids;
// from then on Send lets only the HelloAck through.
type stallConn struct {
	transport.Conn
	ids    []radio.NodeID
	stall  atomic.Bool
	closed chan struct{}
	once   sync.Once
}

func (c *stallConn) Recv() (wire.Msg, error) {
	m, err := c.Conn.Recv()
	if h, ok := m.(*wire.Hello); ok {
		for _, id := range c.ids {
			if h.ProposedID == id {
				c.stall.Store(true)
			}
		}
	}
	return m, err
}

func (c *stallConn) Send(m wire.Msg) error {
	if _, ack := m.(*wire.HelloAck); c.stall.Load() && !ack {
		<-c.closed
		wire.ReleaseMsg(m)
		return transport.ErrClosed
	}
	return c.Conn.Send(m)
}

func (c *stallConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// Deliveries to one client must arrive in schedule order. With a
// uniform link delay the schedule order is the send order, so the
// received Seq sequence must be strictly increasing — the old
// goroutine-per-packet path raced concurrent sends and reordered them.
func TestDeliveryOrderMatchesSchedule(t *testing.T) {
	forEachShardCount(t, testDeliveryOrderMatchesSchedule)
}

func testDeliveryOrderMatchesSchedule(t *testing.T, shards int) {
	const n = 500
	// The send queue holds the whole burst: this test pins ordering, and
	// the burst fires faster than a slow (e.g. race-instrumented) writer
	// drains, which would otherwise let drop-oldest discard part of it.
	// Drops under overload are TestSlowClientDoesNotStallOthers' subject.
	r := newRig(t, func(c *ServerConfig) { c.Shards = shards; c.SendQueueDepth = n })
	r.scene.SetLinkModel(1, uniformModel(time.Millisecond))
	r.scene.AddNode(1, geom.V(0, 0), oneRadio(1, 200))
	r.scene.AddNode(2, geom.V(50, 0), oneRadio(1, 200))

	var mu sync.Mutex
	var got []uint32
	all := make(chan struct{})
	c2cfg := ClientConfig{
		ID: 2, Dial: r.lis.Dialer(), LocalClock: r.clk,
		OnPacket: func(p wire.Packet) {
			mu.Lock()
			got = append(got, p.Seq)
			if len(got) == n {
				close(all)
			}
			mu.Unlock()
		},
	}
	c2, err := Dial(c2cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	c1 := r.client(1, nil)
	for i := 1; i <= n; i++ {
		if err := c1.Send(wire.Packet{Dst: 2, Channel: 1, Seq: uint32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-all:
	case <-time.After(10 * time.Second):
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("only %d/%d delivered", len(got), n)
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("out-of-order delivery at %d: seq %d after %d", i, got[i], got[i-1])
		}
	}
}

// A wedged client must only backpressure itself: its queue fills and
// drops oldest, while other sessions keep receiving both packets and
// radios notifications. Under the old shared event loop, one blocked
// conn.Send stalled scene events for every client.
func TestSlowClientDoesNotStallOthers(t *testing.T) {
	forEachShardCount(t, testSlowClientDoesNotStallOthers)
}

func testSlowClientDoesNotStallOthers(t *testing.T, shards int) {
	r := newRigServing(t, func(c *ServerConfig) { c.SendQueueDepth = 8; c.Shards = shards }, stallSends(2))
	r.scene.SetLinkModel(1, uniformModel(0))
	r.scene.AddNode(1, geom.V(0, 0), oneRadio(1, 200))
	r.scene.AddNode(2, geom.V(50, 0), oneRadio(1, 200))
	r.scene.AddNode(3, geom.V(0, 50), oneRadio(1, 200))

	rawSession(t, r.lis, 2) // VMN2 never reads, and its server-side Send blocks
	sk := newSink()
	c3, err := Dial(ClientConfig{ID: 3, Dial: r.lis.Dialer(), LocalClock: r.clk, OnPacket: sk.on})
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	c1 := r.client(1, nil)

	// Flood the wedged client far past its queue depth so the
	// drop-oldest policy must engage.
	const flood = 900
	for i := 1; i <= flood; i++ {
		if err := c1.Send(wire.Packet{Dst: 2, Channel: 1, Seq: uint32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	fedWaitFor(t, func() bool { return r.server.Stats().Received == flood }, "the flood to be ingested")
	deadline := time.Now().Add(10 * time.Second)
	for r.server.Stats().QueueDrops == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if st := r.server.Stats(); st.QueueDrops == 0 {
		t.Fatalf("no queue drops after flooding a wedged client: %+v", st)
	}
	// The healthy session still gets traffic, promptly.
	if err := c1.Send(wire.Packet{Dst: 3, Channel: 1, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	sk.wait(t, 5*time.Second)
	// Scene events for healthy clients flow even while VMN2's writer is
	// wedged mid-Send and its own notification sits in its queue.
	r.scene.SetRadios(2, []radio.Radio{{Channel: 5, Range: 200}})
	r.scene.SetRadios(3, []radio.Radio{{Channel: 7, Range: 200}})
	evDeadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(evDeadline) {
		if rs := c3.Radios(); len(rs) == 1 && rs[0].Channel == 7 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if rs := c3.Radios(); len(rs) != 1 || rs[0].Channel != 7 {
		t.Fatalf("healthy client starved of radios event: %v", rs)
	}
	// Let the scanner fire every delivery before sampling. Received
	// commits after ingest has scheduled a packet, so once it counts
	// every packet sent, an empty schedule means everything has fired.
	fedWaitFor(t, func() bool { return r.server.Stats().Received == flood+1 }, "every packet to be ingested")
	drainDeadline := time.Now().Add(10 * time.Second)
	for r.server.Stats().Scheduled > 0 && time.Now().Before(drainDeadline) {
		time.Sleep(time.Millisecond)
	}
	if sch := r.server.Stats().Scheduled; sch > 0 {
		t.Fatalf("schedule never drained: %d pending", sch)
	}
	// Per-session accounting: the wedged session owns the drops and
	// reports a backed-up queue.
	for _, ss := range r.server.SessionStats() {
		switch ss.ID {
		case 2:
			if ss.QueueDrops == 0 {
				t.Errorf("session 2: no drops recorded: %+v", ss)
			}
			if ss.QueueDepth == 0 {
				t.Errorf("session 2: queue reported empty while wedged: %+v", ss)
			}
		case 3:
			if ss.QueueDrops != 0 {
				t.Errorf("session 3 charged with drops: %+v", ss)
			}
		}
	}
}

// Goroutine count under load must be O(connected clients), not
// O(in-flight packets): the old path parked one goroutine per delivery
// on the wedged connection's write lock.
func TestGoroutineCountBounded(t *testing.T) {
	forEachShardCount(t, testGoroutineCountBounded)
}

func testGoroutineCountBounded(t *testing.T, shards int) {
	r := newRigServing(t, func(c *ServerConfig) { c.SendQueueDepth = 16; c.Shards = shards }, stallSends(2))
	r.scene.SetLinkModel(1, uniformModel(0))
	r.scene.AddNode(1, geom.V(0, 0), oneRadio(1, 200))
	r.scene.AddNode(2, geom.V(50, 0), oneRadio(1, 200))
	rawSession(t, r.lis, 2) // never reads; its server-side Send blocks
	c1 := r.client(1, nil)

	before := runtime.NumGoroutine()
	const flood = 1000
	for i := 1; i <= flood; i++ {
		if err := c1.Send(wire.Packet{Dst: 2, Channel: 1, Seq: uint32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Wait until the schedule has fired everything at the sessions:
	// every packet ingested (so scheduled), then the schedule empty.
	fedWaitFor(t, func() bool { return r.server.Stats().Received == flood }, "the flood to be ingested")
	deadline := time.Now().Add(10 * time.Second)
	for r.server.Stats().Scheduled > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if sch := r.server.Stats().Scheduled; sch > 0 {
		t.Fatalf("schedule never drained: %d pending", sch)
	}
	after := runtime.NumGoroutine()
	// At most one writer per session plus scanner/ticker noise; the old
	// path would sit at ~flood extra goroutines here.
	if grew := after - before; grew > 50 {
		t.Fatalf("goroutine count grew by %d under load (before %d, after %d)", grew, before, after)
	}
	if drops := r.server.Stats().QueueDrops; drops == 0 {
		t.Errorf("flood did not exercise the drop path: %+v", r.server.Stats())
	}
}

// A client stamping packets far in the future must be clamped to
// now+MaxStampSkew so it cannot park traffic arbitrarily deep in the
// schedule.
func TestFutureStampClamped(t *testing.T) {
	r := newRig(t, func(c *ServerConfig) { c.MaxStampSkew = 100 * time.Millisecond })
	r.scene.SetLinkModel(1, uniformModel(0))
	r.scene.AddNode(1, geom.V(0, 0), oneRadio(1, 200))
	r.scene.AddNode(2, geom.V(50, 0), oneRadio(1, 200))
	sk := newSink()
	r.client(2, sk)
	raw := rawSession(t, r.lis, 1)
	pkt := wire.Packet{Src: 1, Dst: 2, Channel: 1, Seq: 1, Stamp: r.clk.Now().Add(time.Hour)}
	if err := raw.Send(&wire.Data{Pkt: pkt}); err != nil {
		t.Fatal(err)
	}
	// Unclamped, the delivery sits an emulated hour out (72s wall at
	// 50×); clamped it is due within ~100 emulated ms.
	p := sk.wait(t, 5*time.Second)
	if p.Seq != 1 {
		t.Fatalf("got %+v", p)
	}
	if st := r.server.Stats(); st.StampClamped != 1 {
		t.Errorf("StampClamped = %d, want 1", st.StampClamped)
	}
}

// The sync round timeout is configurable and aborts a dead exchange
// promptly instead of holding the 5s default.
func TestSyncTimeoutConfigurable(t *testing.T) {
	lis := transport.NewInprocListener()
	defer lis.Close()
	// A fake server that acks the handshake and then swallows all sync
	// requests.
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			m, err := conn.Recv()
			if err != nil {
				return
			}
			if h, ok := m.(*wire.Hello); ok {
				conn.Send(&wire.HelloAck{Assigned: h.ProposedID})
			}
		}
	}()
	start := time.Now()
	_, err := Dial(ClientConfig{
		ID: 1, Dial: lis.Dialer(), LocalClock: vclock.NewSystem(1),
		SyncRounds: 1, SyncTimeout: 100 * time.Millisecond,
	})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("sync against a mute server succeeded")
	}
	if elapsed > 3*time.Second {
		t.Fatalf("sync timeout not honored: took %v", elapsed)
	}
}
