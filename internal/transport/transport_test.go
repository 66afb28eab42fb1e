package transport

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/vclock"
	"repro/internal/wire"
)

// harness runs the same battery against both transports.
type harness struct {
	name string
	dial func(t *testing.T) (client, server Conn, cleanup func())
}

func harnesses() []harness {
	return []harness{
		{
			name: "inproc",
			dial: func(t *testing.T) (Conn, Conn, func()) {
				l := NewInprocListener()
				var server Conn
				done := make(chan struct{})
				go func() {
					defer close(done)
					s, err := l.Accept()
					if err != nil {
						t.Error(err)
						return
					}
					server = s
				}()
				client, err := l.Dial()
				if err != nil {
					t.Fatal(err)
				}
				<-done
				return client, server, func() { client.Close(); l.Close() }
			},
		},
		{
			name: "tcp",
			dial: func(t *testing.T) (Conn, Conn, func()) {
				l, err := ListenTCP("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				var server Conn
				done := make(chan struct{})
				go func() {
					defer close(done)
					s, err := l.Accept()
					if err != nil {
						t.Error(err)
						return
					}
					server = s
				}()
				client, err := DialTCP(l.Addr())
				if err != nil {
					t.Fatal(err)
				}
				<-done
				return client, server, func() { client.Close(); server.Close(); l.Close() }
			},
		},
	}
}

func TestSendRecvBothDirections(t *testing.T) {
	for _, h := range harnesses() {
		t.Run(h.name, func(t *testing.T) {
			client, server, cleanup := h.dial(t)
			defer cleanup()
			if err := client.Send(&wire.SyncReq{TC1: 42}); err != nil {
				t.Fatal(err)
			}
			m, err := server.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if sr, ok := m.(*wire.SyncReq); !ok || sr.TC1 != 42 {
				t.Fatalf("server got %#v", m)
			}
			if err := server.Send(&wire.SyncReply{TC1: 42, TS2: 43, TS3: 44}); err != nil {
				t.Fatal(err)
			}
			m, err = client.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if rp, ok := m.(*wire.SyncReply); !ok || rp.TS3 != 44 {
				t.Fatalf("client got %#v", m)
			}
		})
	}
}

func TestOrderingPreserved(t *testing.T) {
	for _, h := range harnesses() {
		t.Run(h.name, func(t *testing.T) {
			client, server, cleanup := h.dial(t)
			defer cleanup()
			const n = 200
			go func() {
				for i := 0; i < n; i++ {
					client.Send(&wire.Data{Pkt: wire.Packet{Seq: uint32(i)}})
				}
			}()
			for i := 0; i < n; i++ {
				m, err := server.Recv()
				if err != nil {
					t.Fatal(err)
				}
				if d := m.(*wire.Data); d.Pkt.Seq != uint32(i) {
					t.Fatalf("out of order: got %d want %d", d.Pkt.Seq, i)
				}
			}
		})
	}
}

func TestConcurrentSenders(t *testing.T) {
	for _, h := range harnesses() {
		t.Run(h.name, func(t *testing.T) {
			client, server, cleanup := h.dial(t)
			defer cleanup()
			const senders, per = 8, 50
			var wg sync.WaitGroup
			for s := 0; s < senders; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						if err := client.Send(&wire.Data{Pkt: wire.Packet{Flow: uint16(s), Seq: uint32(i)}}); err != nil {
							t.Errorf("send: %v", err)
							return
						}
					}
				}(s)
			}
			seen := make(map[uint16]uint32)
			for i := 0; i < senders*per; i++ {
				m, err := server.Recv()
				if err != nil {
					t.Fatal(err)
				}
				d := m.(*wire.Data)
				// Per-flow FIFO must hold even with interleaving.
				if d.Pkt.Seq != seen[d.Pkt.Flow] {
					t.Fatalf("flow %d: got seq %d want %d", d.Pkt.Flow, d.Pkt.Seq, seen[d.Pkt.Flow])
				}
				seen[d.Pkt.Flow]++
			}
			wg.Wait()
		})
	}
}

func TestCloseUnblocksRecv(t *testing.T) {
	for _, h := range harnesses() {
		t.Run(h.name, func(t *testing.T) {
			client, server, cleanup := h.dial(t)
			defer cleanup()
			errc := make(chan error, 1)
			go func() {
				_, err := server.Recv()
				errc <- err
			}()
			time.Sleep(5 * time.Millisecond)
			client.Close()
			select {
			case err := <-errc:
				if err == nil {
					t.Error("Recv returned nil error after close")
				}
			case <-time.After(2 * time.Second):
				t.Fatal("Recv never unblocked")
			}
		})
	}
}

func TestSendAfterClose(t *testing.T) {
	for _, h := range harnesses() {
		t.Run(h.name, func(t *testing.T) {
			client, _, cleanup := h.dial(t)
			defer cleanup()
			client.Close()
			// The error may surface on the first or a subsequent send
			// (TCP buffers); it must surface within a few attempts.
			var err error
			for i := 0; i < 10 && err == nil; i++ {
				err = client.Send(&wire.Bye{})
				time.Sleep(time.Millisecond)
			}
			if err == nil {
				t.Error("send after close never failed")
			}
		})
	}
}

func TestInprocDrainAfterClose(t *testing.T) {
	client, server := Pipe()
	client.Send(&wire.SyncReq{TC1: 1})
	client.Send(&wire.SyncReq{TC1: 2})
	client.Close()
	// Queued messages remain readable, then EOF.
	for want := 1; want <= 2; want++ {
		m, err := server.Recv()
		if err != nil {
			t.Fatalf("drain %d: %v", want, err)
		}
		if got := int64(m.(*wire.SyncReq).TC1); got != int64(want) {
			t.Errorf("drain %d: got TC1=%v", want, got)
		}
	}
	if _, err := server.Recv(); err != io.EOF {
		t.Errorf("after drain: %v, want EOF", err)
	}
}

func TestListenerCloseUnblocksAccept(t *testing.T) {
	l := NewInprocListener()
	errc := make(chan error, 1)
	go func() {
		_, err := l.Accept()
		errc <- err
	}()
	time.Sleep(time.Millisecond)
	l.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("Accept: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Accept never unblocked")
	}
	if _, err := l.Dial(); !errors.Is(err, ErrClosed) {
		t.Errorf("Dial after close: %v", err)
	}
}

func TestTCPListenerAddr(t *testing.T) {
	l, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.Addr() == "" || l.Addr() == "127.0.0.1:0" {
		t.Errorf("Addr = %q", l.Addr())
	}
	if _, err := DialTCP("127.0.0.1:1"); err == nil {
		t.Error("dial to closed port succeeded")
	}
}

func TestManyInprocClients(t *testing.T) {
	l := NewInprocListener()
	defer l.Close()
	const n = 20
	go func() {
		for i := 0; i < n; i++ {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func(c Conn) {
				for {
					m, err := c.Recv()
					if err != nil {
						return
					}
					c.Send(m) // echo
				}
			}(c)
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := l.Dial()
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			if err := c.Send(&wire.SyncReq{TC1: 7}); err != nil {
				t.Error(err)
				return
			}
			m, err := c.Recv()
			if err != nil || m.(*wire.SyncReq).TC1 != 7 {
				t.Errorf("echo failed: %v %v", m, err)
			}
		}(i)
	}
	wg.Wait()
}

func TestFaultyDelay(t *testing.T) {
	client, server := Pipe()
	f := NewFaulty(client, 1)
	f.SendDelay = 10 * time.Millisecond
	start := time.Now()
	if err := f.Send(&wire.Bye{}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Errorf("send returned too fast: %v", elapsed)
	}
	if _, err := server.Recv(); err != nil {
		t.Fatal(err)
	}
}

func TestFaultyDrop(t *testing.T) {
	client, server := Pipe()
	f := NewFaulty(client, 42)
	f.DropProb = 1.0
	for i := 0; i < 5; i++ {
		if err := f.Send(&wire.SyncReq{TC1: 1}); err != nil {
			t.Fatal(err)
		}
	}
	client.Close()
	if _, err := server.Recv(); err != io.EOF {
		t.Errorf("dropped messages arrived: %v", err)
	}
}

func TestFaultyFailAfter(t *testing.T) {
	client, _ := Pipe()
	f := NewFaulty(client, 1)
	f.FailAfter = 3
	for i := 0; i < 3; i++ {
		if err := f.Send(&wire.Bye{}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err := f.Send(&wire.Bye{}); !errors.Is(err, ErrClosed) {
		t.Errorf("FailAfter: %v", err)
	}
}

func TestLabels(t *testing.T) {
	client, server := Pipe()
	if client.Label() == "" || server.Label() == "" {
		t.Error("empty labels")
	}
	f := NewFaulty(client, 1)
	if f.Label() != fmt.Sprintf("faulty(%s)", client.Label()) {
		t.Errorf("faulty label: %q", f.Label())
	}
}

func BenchmarkTransports(b *testing.B) {
	bench := func(b *testing.B, client, server Conn) {
		msg := &wire.Data{Pkt: wire.Packet{Src: 1, Dst: 2, Payload: make([]byte, 256)}}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < b.N; i++ {
				if _, err := server.Recv(); err != nil {
					b.Error(err)
					return
				}
			}
		}()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := client.Send(msg); err != nil {
				b.Fatal(err)
			}
		}
		<-done
	}
	b.Run("inproc", func(b *testing.B) {
		client, server := Pipe()
		defer client.Close()
		bench(b, client, server)
	})
	b.Run("tcp", func(b *testing.B) {
		l, err := ListenTCP("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer l.Close()
		var server Conn
		accepted := make(chan struct{})
		go func() {
			server, _ = l.Accept()
			close(accepted)
		}()
		client, err := DialTCP(l.Addr())
		if err != nil {
			b.Fatal(err)
		}
		defer client.Close()
		<-accepted
		bench(b, client, server)
	})
}

// The pipe ring grows on demand. Interleaving sends and receives keeps
// the head moving, so every growth step copies a wrapped ring; FIFO
// must hold across all of them, and the ring must stop at pipeDepth.
func TestPipeQueueGrowsPreservingFIFO(t *testing.T) {
	q := newPipeQueue()
	if len(q.ring) != 0 {
		t.Fatalf("fresh pipe ring holds %d slots, want 0", len(q.ring))
	}
	next, want := 0, 0
	recv := func() {
		t.Helper()
		m, ok := q.recv()
		if !ok {
			t.Fatal("recv on an open pipe failed")
		}
		if got := int(m.(*wire.SyncReq).TC1); got != want {
			t.Fatalf("recv %d, want %d (ring %d slots, head %d)", got, want, len(q.ring), q.head)
		}
		want++
	}
	// Net growth of 3 per round walks the backlog up to a full ring.
	for len(q.ring) < pipeDepth {
		for i := 0; i < 7; i++ {
			if !q.send(&wire.SyncReq{TC1: vclock.Time(next)}) {
				t.Fatal("send on an open pipe failed")
			}
			next++
		}
		for i := 0; i < 4; i++ {
			recv()
		}
	}
	for q.n > 0 {
		recv()
	}
	if len(q.ring) != pipeDepth || want != next {
		t.Fatalf("ring %d slots, received %d of %d", len(q.ring), want, next)
	}
}

// send still blocks once pipeDepth messages wait, and resumes when the
// receiver takes one.
func TestPipeQueueSendBlocksAtDepth(t *testing.T) {
	q := newPipeQueue()
	for i := 0; i < pipeDepth; i++ {
		q.send(&wire.SyncReq{TC1: vclock.Time(i)})
	}
	sent := make(chan bool)
	go func() { sent <- q.send(&wire.SyncReq{TC1: pipeDepth}) }()
	select {
	case <-sent:
		t.Fatal("send past pipeDepth did not block")
	case <-time.After(20 * time.Millisecond):
	}
	if m, ok := q.recv(); !ok || m.(*wire.SyncReq).TC1 != 0 {
		t.Fatalf("recv = %v, %v; want the oldest message", m, ok)
	}
	if !<-sent {
		t.Fatal("blocked send failed once space freed")
	}
	if q.n != pipeDepth || len(q.ring) != pipeDepth {
		t.Fatalf("n=%d ring=%d, want both at pipeDepth", q.n, len(q.ring))
	}
}

// Close semantics are unchanged by the growable ring: a blocked sender
// fails, queued messages stay readable, then recv reports closed, and
// later sends fail.
func TestPipeQueueCloseSemantics(t *testing.T) {
	q := newPipeQueue()
	for i := 0; i < pipeDepth; i++ {
		q.send(&wire.SyncReq{TC1: vclock.Time(i)})
	}
	blocked := make(chan bool)
	go func() { blocked <- q.send(&wire.SyncReq{}) }()
	time.Sleep(5 * time.Millisecond)
	q.close()
	if <-blocked {
		t.Fatal("a send blocked across close succeeded")
	}
	for i := 0; i < pipeDepth; i++ {
		m, ok := q.recv()
		if !ok || int(m.(*wire.SyncReq).TC1) != i {
			t.Fatalf("drain after close: recv %d = %v, %v", i, m, ok)
		}
	}
	if _, ok := q.recv(); ok {
		t.Fatal("recv on a closed, drained pipe succeeded")
	}
	if q.send(&wire.SyncReq{}) {
		t.Fatal("send after close succeeded")
	}
	// A pipe closed before it ever grew drains to closed at once.
	q2 := newPipeQueue()
	q2.close()
	if _, ok := q2.recv(); ok || q2.send(&wire.SyncReq{}) {
		t.Fatal("a never-used closed pipe accepted traffic")
	}
}
