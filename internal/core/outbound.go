package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/radio"
	"repro/internal/wire"
)

// DefaultSendQueueDepth bounds each session's outbound delivery queue
// when ServerConfig.SendQueueDepth is zero. The depth trades memory per
// client against how deep a burst a slow reader can absorb before the
// drop-oldest policy engages.
const DefaultSendQueueDepth = 256

// outKind discriminates the two message classes a session writer ships.
type outKind uint8

const (
	outData   outKind = iota // a forwarded packet (wire.Data)
	outRadios                // a scene notification (wire.Event)
)

// outMsg is one entry in a session's outbound queue.
type outMsg struct {
	kind   outKind
	pkt    wire.Packet   // outData: the packet due now
	radios []radio.Radio // outRadios: the VMN's new radio set
	trace  uint32        // outData: obs trace id (0 = untraced)
}

// sendQueue is the bounded per-session outbound queue of the §3.2
// sending stage. Producers (the scanner's dispatch and the scene event
// subscription) never block: when the queue is full the oldest *data*
// entry is discarded — late packets are the least valuable, while radio
// notifications must survive so the client's channel view stays
// current.
//
// The writer that drains the queue runs only while there is something
// to drain: push starts it when an entry arrives and none is running,
// and it exits as soon as it finds the queue empty. At most one writer
// runs at a time and it pops in FIFO order, which is what guarantees
// per-client deliveries leave in schedule order — while an idle session
// holds no goroutine at all.
type sendQueue struct {
	mu     sync.Mutex
	buf    []outMsg // ring storage, grown on demand up to cap
	head   int      // index of the oldest entry
	n      int      // live entries
	limit  int      // hard bound on n
	closed bool

	// open gates the writer: no writer starts before it is set, so
	// register can put the HelloAck on the wire ahead of anything
	// queued. running is true while a writer owns the drain.
	open    bool
	running bool
	// writer is the drain loop push starts on its own goroutine, built
	// once per session so a start allocates nothing; wg tracks it for
	// Server.Close. Both are set before the session becomes visible.
	writer func()
	wg     *sync.WaitGroup

	// inflight counts entries the writer has popped but not finished
	// processing (forwarded-or-abandoned, counters included). depth
	// includes it, so "every session's depth()==0" means every accepted
	// delivery has been fully accounted — the drain condition the chaos
	// harness's conservation check quiesces on.
	inflight int

	drops atomic.Uint64 // entries discarded by the slow-client policy

	// srv receives the server-wide drop and abandon counts, and each
	// policy drop as an event in its flight recorder; id names the
	// session there. nil in queue unit tests.
	srv *Server
	id  radio.NodeID
}

func newSendQueue(limit int, srv *Server, id radio.NodeID) *sendQueue {
	if limit <= 0 {
		limit = DefaultSendQueueDepth
	}
	return &sendQueue{limit: limit, srv: srv, id: id}
}

// countDrop charges one policy discard to the session and the server,
// and timestamps it into the flight recorder: around an incident, which
// sessions were shedding (and when) is exactly what a trace is for.
func (q *sendQueue) countDrop() {
	q.drops.Add(1)
	if s := q.srv; s != nil {
		s.mQueueDrops.Inc()
		s.ring.Record(obs.EvQueueDrop, ShardIndex(q.id, len(s.shards)),
			int64(s.cfg.Clock.Now()), int64(q.id), 0)
	}
}

// countAbandoned charges one data delivery that died with its session
// (closed-queue push, entries pending at close, or a failed final
// send). Packet conservation needs every accepted delivery to end in
// exactly one of forwarded / queue-dropped / abandoned.
func (q *sendQueue) countAbandoned() {
	if q.srv != nil {
		q.srv.mAbandoned.Inc()
	}
}

// push enqueues m, evicting the oldest data entry when full. It never
// blocks; the return value reports whether m itself was accepted (false
// only when the queue is closed or m is data and the queue holds
// nothing but radio notifications).
func (q *sendQueue) push(m outMsg) bool {
	q.mu.Lock()
	if q.closed {
		// The session is over; the delivery dies here. Its buffer must
		// still be released and — for data — the loss accounted, or the
		// conservation ledger would leak one packet per kill race.
		m.pkt.Buf.Free() // nil-safe: notifications carry no buffer
		if m.kind == outData {
			q.countAbandoned()
		}
		q.mu.Unlock()
		return false
	}
	if q.n == q.limit {
		if !q.dropOldestDataLocked() {
			// Full of radio notifications (pathological: limit sessions
			// would need limit scene changes queued). Data yields to
			// them; a notification displaces the oldest one.
			if m.kind == outData {
				q.countDrop()
				m.pkt.Buf.Free()
				q.mu.Unlock()
				return false
			}
			q.dropHeadLocked()
		}
	}
	q.appendLocked(m)
	q.startLocked()
	q.mu.Unlock()
	return true
}

// startLocked launches the writer when the gate is open, entries wait
// and no writer is running. Callers hold q.mu and have checked that the
// queue is not closed: Server.Close closes every queue before its
// wg.Wait, so each wg.Add here happens before that Wait.
func (q *sendQueue) startLocked() {
	if !q.open || q.running || q.n == 0 {
		return
	}
	q.running = true
	q.wg.Add(1)
	go q.writer()
}

// openGate lets writers run — register calls it once the HelloAck is on
// the wire — and starts one for anything queued meanwhile. It reports
// false when the queue is already closed.
func (q *sendQueue) openGate() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	q.open = true
	q.startLocked()
	return true
}

// appendLocked stores m at the tail, growing the ring toward limit.
func (q *sendQueue) appendLocked(m outMsg) {
	if q.n == len(q.buf) {
		grow := len(q.buf) * 2
		if grow == 0 {
			grow = 16
		}
		if grow > q.limit {
			grow = q.limit
		}
		nb := make([]outMsg, grow)
		for i := 0; i < q.n; i++ {
			nb[i] = q.buf[(q.head+i)%len(q.buf)]
		}
		q.buf, q.head = nb, 0
	}
	q.buf[(q.head+q.n)%len(q.buf)] = m
	q.n++
}

// dropOldestDataLocked discards the oldest data entry, reporting false
// when the queue holds none.
func (q *sendQueue) dropOldestDataLocked() bool {
	for i := 0; i < q.n; i++ {
		idx := (q.head + i) % len(q.buf)
		if q.buf[idx].kind != outData {
			continue
		}
		// Rotate the victim to the head — the notifications before it
		// shift up one slot, keeping their order — then evict the head:
		// O(depth) but only on the overflow path.
		victim := q.buf[idx]
		for j := i; j > 0; j-- {
			cur := (q.head + j) % len(q.buf)
			prev := (q.head + j - 1) % len(q.buf)
			q.buf[cur] = q.buf[prev]
		}
		q.buf[q.head] = victim
		q.dropHeadLocked()
		return true
	}
	return false
}

func (q *sendQueue) dropHeadLocked() {
	head := &q.buf[q.head]
	// Only data evictions are policy drops: QueueDrops feeds the
	// conservation ledger (Entered == Forwarded + QueueDrops +
	// Abandoned), and a displaced radio notification never entered it.
	// Charging it here would inflate QueueDrops past the packets that
	// actually died and the ledger would never balance again.
	if head.kind == outData {
		q.countDrop()
	}
	head.pkt.Buf.Free() // nil-safe: notifications carry no buffer
	*head = outMsg{}
	q.head = (q.head + 1) % len(q.buf)
	q.n--
}

// popBatch drains up to cap(batch) entries into batch without
// releasing the lock between them; they count as in flight until
// done(n) settles them. It never blocks: an empty result means the
// queue is empty or closed, and the calling writer must exit — running
// is cleared under the same lock, so a push that lands after this
// starts a fresh writer and no entry is ever stranded. Batching is what
// turns the writer's per-packet syscall into one writev per burst:
// under fan-out the queue holds several deliveries by the time the
// writer runs, and popping them together costs one lock acquisition
// instead of n.
func (q *sendQueue) popBatch(batch []outMsg) []outMsg {
	batch = batch[:0]
	q.mu.Lock()
	if q.closed || q.n == 0 {
		q.running = false
		q.mu.Unlock()
		return batch
	}
	for q.n > 0 && len(batch) < cap(batch) {
		batch = append(batch, q.buf[q.head])
		q.buf[q.head] = outMsg{}
		q.head = (q.head + 1) % len(q.buf)
		q.n--
	}
	q.inflight += len(batch) // cleared by done() once accounted
	q.mu.Unlock()
	return batch
}

// done marks n popped entries fully processed (their counters updated).
func (q *sendQueue) done(n int) {
	q.mu.Lock()
	q.inflight -= n
	q.mu.Unlock()
}

// close marks the queue dead and abandons whatever is still buffered; a
// running writer finds it closed at its next pop and exits. Idempotent: shutdown may run from both
// the session handler and server Close, and the abandonment accounting
// must happen exactly once.
func (q *sendQueue) close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.closed = true
	for i := 0; i < q.n; i++ {
		m := &q.buf[(q.head+i)%len(q.buf)]
		m.pkt.Buf.Free()
		if m.kind == outData {
			q.countAbandoned()
		}
		*m = outMsg{}
	}
	q.head, q.n = 0, 0
	q.mu.Unlock()
}

// depth is the number of queued entries plus any popped entry the
// writer has not finished accounting yet.
func (q *sendQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n + q.inflight
}

// full reports whether the next push would evict.
func (q *sendQueue) full() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n == q.limit
}
