package core

// The registration handshake and the client session loop against
// arbitrary frame streams on a pooled connection: whatever arrives, the
// server must not panic, every pooled frame buffer must come back, and
// the conservation ledger must close.

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/mbuf"
	"repro/internal/radio"
	"repro/internal/scene"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// A TrunkBatch on a client session is not a client message: the session
// loop ignores it, but on a pooled listener it still owns its frame
// buffer, which must be released. (Regression: the loop dropped it on
// the floor and the buffer stayed live forever.)
func TestClientSessionReleasesUnexpectedPooledMsg(t *testing.T) {
	pool := mbuf.NewPool()
	pool.SetLeakCheck(true)
	clk := vclock.NewSystem(50)
	sc := scene.New(radio.NewIndexed(250), clk, 1)
	sc.AddNode(1, geom.V(0, 0), []radio.Radio{{Channel: 1, Range: 200}})
	srv, err := NewServer(ServerConfig{Clock: clk, Scene: sc, Shards: *flagShards})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := transport.ListenTCPWithPool("127.0.0.1:0", pool)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); srv.Serve(lis) }()

	conn, err := transport.DialTCP(lis.Addr())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []wire.Msg{
		&wire.Hello{Ver: wire.Version, ProposedID: 1},
		&wire.TrunkBatch{Entries: []wire.TrunkEntry{{Due: clk.Now(), To: 1,
			Pkt: wire.Packet{Src: 1, Dst: 1, Channel: 1, Payload: []byte("stray")}}}},
		&wire.Bye{},
	} {
		if err := conn.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	// The server closes the connection once it has read the Bye.
	stop := time.AfterFunc(10*time.Second, func() { conn.Close() })
	defer stop.Stop()
	for {
		if _, err := conn.Recv(); err != nil {
			break
		}
	}
	conn.Close()
	lis.Close()
	srv.Close()
	<-done
	if live := pool.Live(); live != 0 {
		t.Fatalf("%d pooled buffers still live after Close, want 0", live)
	}
}

// streamConn is a pooled server-side connection that reads its frames
// from a byte stream, the way a TCP conn on ListenTCPWithPool decodes
// a socket, and discards what the server sends.
type streamConn struct {
	r    *bytes.Reader
	pool *mbuf.Pool
}

func (c *streamConn) Recv() (wire.Msg, error) { return wire.ReadMsgPooled(c.r, c.pool) }
func (c *streamConn) Send(m wire.Msg) error   { wire.ReleaseMsg(m); return nil }
func (c *streamConn) Close() error            { return nil }
func (c *streamConn) Label() string           { return "stream" }

// frames encodes msgs back to back.
func frames(tb testing.TB, msgs ...wire.Msg) []byte {
	tb.Helper()
	var b []byte
	for _, m := range msgs {
		var err error
		if b, err = wire.AppendFrame(b, m); err != nil {
			tb.Fatal(err)
		}
	}
	return b
}

// FuzzSessionStream pushes a fuzzed frame stream through a pooled conn
// into a live server — Hello variants, Data, TrunkHello, TrunkBatch,
// SyncReq, Bye and garbage — and checks, after Close, that nothing
// leaked: no pooled buffer is live and Entered == Forwarded +
// QueueDrops + Abandoned.
func FuzzSessionStream(f *testing.F) {
	hello := &wire.Hello{Ver: wire.Version, ProposedID: 1}
	data := func(dst radio.NodeID) *wire.Data {
		return &wire.Data{Pkt: wire.Packet{Src: 1, Dst: dst, Channel: 1, Seq: 7, Payload: []byte("fuzz")}}
	}
	batch := &wire.TrunkBatch{Entries: []wire.TrunkEntry{{Due: 1, To: 2,
		Pkt: wire.Packet{Src: 1, Dst: 2, Channel: 1, Payload: []byte("stray")}}}}
	f.Add(frames(f, hello, batch, &wire.Bye{})) // the session-loop leak
	f.Add(frames(f, hello, data(radio.Broadcast), &wire.SyncReq{TC1: 5}, data(2), data(9), &wire.Bye{}))
	f.Add(frames(f, &wire.TrunkHello{Ver: wire.Version, Cluster: "poem"}, batch))
	f.Add(frames(f, data(2), hello))
	f.Add(frames(f, batch, hello))
	f.Add(frames(f, &wire.Hello{Ver: wire.Version + 1, ProposedID: 1}))
	f.Add(frames(f, &wire.Hello{Ver: wire.Version, ProposedID: 77}, data(2)))
	f.Add(append(frames(f, hello, data(2)), 0, 0, 0, 9, 0xff, 1, 2))
	f.Add([]byte{0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, stream []byte) {
		pool := mbuf.NewPool()
		clk := vclock.NewManual(vclock.FromSeconds(10))
		sc := scene.New(radio.NewIndexed(250), clk, 1)
		sc.AddNode(1, geom.V(0, 0), []radio.Radio{{Channel: 1, Range: 200}})
		sc.AddNode(2, geom.V(50, 0), []radio.Radio{{Channel: 1, Range: 200}})
		srv, err := NewServer(ServerConfig{Clock: clk, Scene: sc, Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		srv.Start()
		srv.handle(&streamConn{r: bytes.NewReader(stream), pool: pool})
		srv.Close()
		if live := pool.Live(); live != 0 {
			t.Fatalf("%d pooled buffers live after Close", live)
		}
		st := srv.Stats()
		if st.Entered != st.Forwarded+st.QueueDrops+st.Abandoned {
			t.Fatalf("ledger open: entered %d != forwarded %d + queue drops %d + abandoned %d",
				st.Entered, st.Forwarded, st.QueueDrops, st.Abandoned)
		}
	})
}
