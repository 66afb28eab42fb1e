// Package sched implements the PoEm server's forwarding schedule
// (paper §3.2, steps 4–6): packets that survived the link model's drop
// decision are queued with their computed departure time t_forward; a
// scanning goroutine watches the schedule and fires a sender the moment
// the emulation clock reaches each departure.
//
// Two queue organizations are provided: a binary heap (the server's
// schedule) and an insertion-sorted list (the naive "queues for
// schedules" of the paper's §5, kept for the A1 ablation benchmark).
// Both satisfy Queue and deliver items in (Due, push-order) sequence.
package sched

import (
	"sort"

	"repro/internal/radio"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// Item is one scheduled departure: forward packet Pkt to client To at
// emulation time Due.
type Item struct {
	Due vclock.Time
	To  radio.NodeID
	Pkt wire.Packet

	// Trace carries the packet's obs trace id through the
	// schedule (0 = untraced). A broadcast attaches it only to the first
	// scheduled target, so exactly one delivery completes the record.
	Trace uint32

	seq uint64 // assigned by the queue; stabilizes equal-Due ordering
}

// Queue is a time-ordered schedule. Implementations are not safe for
// concurrent use; the Scanner serializes access.
type Queue interface {
	// Push inserts an item.
	Push(it Item)
	// PopDue removes and returns the earliest item whose Due ≤ now.
	PopDue(now vclock.Time) (Item, bool)
	// PopDueBatch removes up to len(buf) due items into buf and returns
	// how many it wrote. The sequence written is exactly what repeated
	// PopDue calls would have yielded — (Due, seq) order preserved — so
	// the batch scanner drains a burst in one lock acquisition without
	// changing fire order.
	PopDueBatch(now vclock.Time, buf []Item) int
	// NextDue reports the earliest departure time, if any.
	NextDue() (vclock.Time, bool)
	// Len returns the number of queued items.
	Len() int
}

// ---------------------------------------------------------------------------
// Binary heap (default)

// HeapQueue is a binary min-heap on (Due, seq). The sift loops are
// hand-rolled over []Item rather than going through container/heap:
// the standard interface passes elements as interface{} values, which
// boxes a ~100-byte Item onto the heap on every Push *and* every Pop —
// two allocations per scheduled packet on the hottest path the server
// has. The manual version moves Items in place and allocates only when
// the backing slice grows.
type HeapQueue struct {
	h    []Item
	next uint64
}

// NewHeap returns an empty HeapQueue.
func NewHeap() *HeapQueue { return &HeapQueue{} }

// less orders the heap by (Due, seq): due time first, push order as the
// tie-break so equal departures fire in FIFO order.
func (q *HeapQueue) less(i, j int) bool {
	if q.h[i].Due != q.h[j].Due {
		return q.h[i].Due < q.h[j].Due
	}
	return q.h[i].seq < q.h[j].seq
}

func (q *HeapQueue) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			return
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

func (q *HeapQueue) siftDown(i int) {
	n := len(q.h)
	for {
		least := i
		if l := 2*i + 1; l < n && q.less(l, least) {
			least = l
		}
		if r := 2*i + 2; r < n && q.less(r, least) {
			least = r
		}
		if least == i {
			return
		}
		q.h[i], q.h[least] = q.h[least], q.h[i]
		i = least
	}
}

// Push implements Queue.
func (q *HeapQueue) Push(it Item) {
	it.seq = q.next
	q.next++
	q.h = append(q.h, it)
	q.siftUp(len(q.h) - 1)
}

// PopDue implements Queue.
func (q *HeapQueue) PopDue(now vclock.Time) (Item, bool) {
	if len(q.h) == 0 || q.h[0].Due > now {
		return Item{}, false
	}
	it := q.h[0]
	n := len(q.h) - 1
	q.h[0] = q.h[n]
	q.h[n] = Item{} // release payload memory
	q.h = q.h[:n]
	if n > 0 {
		q.siftDown(0)
	}
	return it, true
}

// PopDueBatch implements Queue. Each pop is one sift-down; there is no
// cheaper bulk extraction from a binary heap, so the batch win here is
// purely the caller's — one lock cycle for the whole run of due items.
func (q *HeapQueue) PopDueBatch(now vclock.Time, buf []Item) int {
	n := 0
	for n < len(buf) {
		it, ok := q.PopDue(now)
		if !ok {
			break
		}
		buf[n] = it
		n++
	}
	return n
}

// NextDue implements Queue.
func (q *HeapQueue) NextDue() (vclock.Time, bool) {
	if len(q.h) == 0 {
		return 0, false
	}
	return q.h[0].Due, true
}

// Len implements Queue.
func (q *HeapQueue) Len() int { return len(q.h) }

// ---------------------------------------------------------------------------
// Insertion-sorted list

// ListQueue keeps items in a slice sorted ascending by (Due, seq).
// Push is O(n), pop is O(1) amortized. This mirrors the "queues for
// schedules" of the paper's preliminary implementation (§5) and loses
// to the heap as the schedule deepens — the A1 ablation quantifies it.
type ListQueue struct {
	items []Item
	head  int
	next  uint64
}

// NewList returns an empty ListQueue.
func NewList() *ListQueue { return &ListQueue{} }

// Push implements Queue.
func (q *ListQueue) Push(it Item) {
	it.seq = q.next
	q.next++
	live := q.items[q.head:]
	// Binary search for the insertion point among live items.
	i := sort.Search(len(live), func(i int) bool {
		if live[i].Due != it.Due {
			return live[i].Due > it.Due
		}
		return live[i].seq > it.seq
	})
	q.items = append(q.items, Item{})
	copy(q.items[q.head+i+1:], q.items[q.head+i:])
	q.items[q.head+i] = it
}

// PopDue implements Queue.
func (q *ListQueue) PopDue(now vclock.Time) (Item, bool) {
	if q.head >= len(q.items) || q.items[q.head].Due > now {
		return Item{}, false
	}
	it := q.items[q.head]
	q.items[q.head] = Item{}
	q.head++
	q.maybeCompact()
	return it, true
}

// PopDueBatch implements Queue. The list is kept sorted, so the due
// items are one contiguous prefix: a single binary search bounds it and
// one copy extracts it.
func (q *ListQueue) PopDueBatch(now vclock.Time, buf []Item) int {
	live := q.items[q.head:]
	if len(live) == 0 || len(buf) == 0 || live[0].Due > now {
		return 0
	}
	k := sort.Search(len(live), func(i int) bool { return live[i].Due > now })
	if k > len(buf) {
		k = len(buf)
	}
	copy(buf, live[:k])
	for i := 0; i < k; i++ {
		live[i] = Item{} // release payload memory
	}
	q.head += k
	q.maybeCompact()
	return k
}

// maybeCompact reclaims the consumed prefix once it dominates the
// backing array.
func (q *ListQueue) maybeCompact() {
	if q.head > 256 && q.head*2 > len(q.items) {
		n := copy(q.items, q.items[q.head:])
		for i := n; i < len(q.items); i++ {
			q.items[i] = Item{}
		}
		q.items = q.items[:n]
		q.head = 0
	}
}

// NextDue implements Queue.
func (q *ListQueue) NextDue() (vclock.Time, bool) {
	if q.head >= len(q.items) {
		return 0, false
	}
	return q.items[q.head].Due, true
}

// Len implements Queue.
func (q *ListQueue) Len() int { return len(q.items) - q.head }
