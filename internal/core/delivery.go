package core

// Delivery: §3.2 steps 5–6. Each shard's scanner fires due items into
// the addressee's bounded send queue (deliver); a writer goroutine,
// started by the queue when entries arrive and gone once it has drained
// them, performs the socket writes (sessionWriter/writeBatch).

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/record"
	"repro/internal/sched"
	"repro/internal/transport"
	"repro/internal/wire"
)

// deliver is §3.2 step 6: at the scheduled time the packet is handed
// to the addressee's outbound queue. It runs on this shard's scanner
// goroutine and never blocks — the session's writer performs the
// socket write, so the scanner cannot be stalled by a slow client, and
// the goroutine count stays O(sessions with traffic in flight + shards)
// rather than O(in-flight packets). Because the scanner fires items in
// due order and the queue is FIFO, deliveries to a client leave in
// schedule order; ingest routes every item for this destination to
// this one shard, so no other scanner can interleave.
//
// There is deliberately no server-closed check here: Close shuts the
// sessions down before stopping the shard scanners, and a delivery
// into a closed (or missing) session accounts itself abandoned — the
// closed sendQueue rejects the push and settles the buffer and the
// abandoned counter itself. Keeping the front's mutex off this path is
// what lets N scanners run without sharing a lock.
func (sh *shard) deliver(it sched.Item) {
	s := sh.srv
	if h := s.deliverHook.Load(); h != nil {
		(*h)(it)
	}
	sess := sh.lookup(it.To)
	if sess == nil {
		it.Pkt.Buf.Free() // this delivery's buffer reference dies with it
		s.mAbandoned.Inc()
		return // the client left between scheduling and departure
	}
	if sess.q.full() {
		// Distinguish "the writer has not been scheduled yet" (a burst
		// outran it — common on few cores) from "the client is wedged"
		// (its writer is parked in conn.Send and not runnable). Yielding
		// lets a healthy writer drain before we resort to dropping;
		// against a wedged one the queue is still full afterwards and
		// drop-oldest engages as intended.
		runtime.Gosched()
	}
	// A traced item marks a sampled packet: time the enqueue stage and
	// record how far past its due time the departure fired.
	var t0 time.Time
	if it.Trace != 0 {
		t0 = time.Now()
		nowEmu := s.cfg.Clock.Now()
		// The scanner can fire an item marginally before Due (scaled-clock
		// rounding in vclock.System.Wait); lag is defined as how *late* a
		// departure fired, so clamp at zero rather than feeding a negative
		// duration into the histogram.
		lag := time.Duration(nowEmu - it.Due)
		if lag < 0 {
			lag = 0
		}
		s.hDeliverLag.Observe(lag)
		s.ring.TraceEnqueue(it.Trace, sh.idx, int64(nowEmu),
			uint16(it.Pkt.Channel), it.Pkt.Flow, it.Pkt.Seq)
	}
	sess.q.push(outMsg{kind: outData, pkt: it.Pkt, trace: it.Trace})
	if it.Trace != 0 {
		s.hEnqueue.Observe(time.Since(t0))
	}
}

// maxFlushBatch bounds how many queue entries the session writer drains
// per flush. 64 keeps worst-case writev iovec counts and head-of-line
// latency bounded while still amortizing the syscall across a burst.
const maxFlushBatch = 64

// writerScratch is one running writer's batch buffers. Writers come
// and go with traffic, so the buffers are pooled rather than held by
// every session (and kept off the goroutine stack, which would grow
// every writer's).
type writerScratch struct {
	batch []outMsg   // popped entries, cap maxFlushBatch
	msgs  []wire.Msg // the batch as wire messages
}

var writerScratchPool = sync.Pool{New: func() any {
	return &writerScratch{
		batch: make([]outMsg, 0, maxFlushBatch),
		msgs:  make([]wire.Msg, 0, maxFlushBatch),
	}
}}

// sessionWriter is the session's sending goroutine: it drains the queue
// in FIFO order, performs the actual writes, and exits once the queue
// is empty (the next push starts a new one). One writer per session at
// most means a wedged client backpressures only itself — its writer
// stays parked in Send while everyone else's keep draining. The writer
// pops entries in batches and ships each batch as one vectored write
// when the transport supports it — under fan-out the queue refills
// faster than the kernel accepts frames, so a batch is usually waiting
// by the time Send returns, and coalescing it collapses n syscalls into
// one.
func (s *Server) sessionWriter(sess *session) {
	defer s.wg.Done()
	sc := writerScratchPool.Get().(*writerScratch)
	defer func() {
		clear(sc.batch[:cap(sc.batch)]) // don't pin radio slices in the pool
		writerScratchPool.Put(sc)
	}()
	for {
		// Popped entries are "in flight" until their counters are settled
		// — forwarded on success, abandoned on a failed send — so a drain
		// check never observes the gap between pop and accounting.
		batch := sess.q.popBatch(sc.batch)
		if len(batch) == 0 {
			return // drained, or the session is over
		}
		err := s.writeBatch(sess, batch, sc)
		sess.q.done(len(batch))
		if err != nil {
			// The connection is dead. Exit with running still set, so no
			// new writer retries it; the session's close abandons
			// whatever is queued by then.
			return
		}
	}
}

// sendAll ships msgs on conn — one vectored write when the connection
// batches — and returns how many reached the wire. Pooled messages are
// consumed on every path (the Conn contract); the unsent tail after a
// per-message error is released here so both transports present the
// same all-consumed guarantee to the accounting below.
func sendAll(conn transport.Conn, msgs []wire.Msg) (int, error) {
	if bs, ok := conn.(transport.BatchSender); ok && len(msgs) > 1 {
		return bs.SendBatch(msgs)
	}
	for i, m := range msgs {
		if err := conn.Send(m); err != nil {
			for _, rest := range msgs[i+1:] {
				wire.ReleaseMsg(rest)
			}
			return i, err
		}
	}
	return len(msgs), nil
}

// writeBatch ships a popped batch to the session's client and settles
// each entry's accounting: forwarded for entries that reached the wire,
// abandoned for data entries behind a send error (the session is dying —
// the caller exits the writer).
func (s *Server) writeBatch(sess *session, batch []outMsg, sc *writerScratch) error {
	var t0 time.Time
	traced := false
	for i := range batch {
		if batch[i].trace != 0 {
			traced = true
			break
		}
	}
	if traced {
		t0 = time.Now()
	}
	msgs := sc.msgs[:0]
	for i := range batch {
		m := &batch[i]
		switch m.kind {
		case outRadios:
			msgs = append(msgs, &wire.Event{Kind: wire.EventRadios, Radios: m.radios})
		case outData:
			// The queue's buffer reference rides the pooled wrapper from
			// here on; Send consumes it whether or not the write succeeds.
			msgs = append(msgs, wire.AcquireData(m.pkt))
		}
	}
	sent, err := sendAll(sess.conn, msgs)
	for i := range msgs {
		msgs[i] = nil // the transport owns (or has retired) every message
	}
	sc.msgs = msgs[:0]
	s.hFlushBatch.Observe(time.Duration(len(batch)))

	if traced && sent > 0 {
		s.hSend.Observe(time.Since(t0))
	}
	for i := range batch {
		m := &batch[i]
		if m.kind != outData {
			continue
		}
		if i >= sent {
			// Died between pop and wire: the transport already released
			// the buffer, the ledger still needs the loss recorded.
			s.mAbandoned.Inc()
			continue
		}
		if m.trace != 0 {
			// Final stage: the packet is on the wire, to this receiver.
			s.ring.TraceSend(m.trace, ShardIndex(sess.id, len(s.shards)),
				int64(s.cfg.Clock.Now()), uint32(sess.id), uint32(m.pkt.Size()))
		}
		s.mForwarded.Inc()
		sess.forwarded.Add(1)
		if s.cfg.Store != nil {
			s.cfg.Store.AddPacket(record.Packet{
				Kind: record.PacketOut, At: s.cfg.Clock.Now(), Stamp: m.pkt.Stamp,
				Src: m.pkt.Src, Dst: m.pkt.Dst, Relay: sess.id, Channel: m.pkt.Channel,
				Flow: m.pkt.Flow, Seq: m.pkt.Seq, Size: uint32(m.pkt.Size()),
			})
		}
	}
	return err
}
