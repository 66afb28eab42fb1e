package main

import (
	"math"
	"math/bits"
	"sort"
	"sync/atomic"
)

// hist is a log-linear histogram of non-negative integers (nanoseconds
// or counts): 128 linear sub-buckets per power of two, so a bucket is
// at most 1/128 of its value wide. Adds are one atomic increment on a
// stripe picked by the caller, which keeps the hot path allocation-free
// and lets thousands of receive goroutines share one histogram.
type hist struct {
	stripes [histStripes][histBuckets]atomic.Uint64
}

const (
	subBits     = 7
	subCount    = 1 << subBits
	histBuckets = (64 - subBits + 1) * subCount
	histStripes = 8
)

func bucketOf(v uint64) int {
	if v < subCount {
		return int(v)
	}
	shift := bits.Len64(v) - subBits - 1
	return (shift+1)*subCount + int(v>>uint(shift)) - subCount
}

// bucketRange returns bucket i's lowest value and width.
func bucketRange(i int) (lo, width float64) {
	if i < subCount {
		return float64(i), 1
	}
	shift := i/subCount - 1
	m := uint64(i%subCount + subCount)
	return float64(m << uint(shift)), float64(uint64(1) << uint(shift))
}

// add records v (clamped at 0) on stripe s.
func (h *hist) add(s int, v int64) {
	if v < 0 {
		v = 0
	}
	h.stripes[s&(histStripes-1)][bucketOf(uint64(v))].Add(1)
}

// merged sums the stripes.
func (h *hist) merged() []uint64 {
	out := make([]uint64, histBuckets)
	for s := range h.stripes {
		for i := range h.stripes[s] {
			out[i] += h.stripes[s][i].Load()
		}
	}
	return out
}

// quantiles returns the count and the requested quantiles, each
// interpolated linearly inside its bucket by rank.
func (h *hist) quantiles(qs ...float64) (uint64, []float64) {
	return bucketQuantiles(h.merged(), qs...)
}

func bucketQuantiles(b []uint64, qs ...float64) (uint64, []float64) {
	var n uint64
	for _, c := range b {
		n += c
	}
	out := make([]float64, len(qs))
	if n == 0 {
		return 0, out
	}
	for qi, q := range qs {
		rank := q * float64(n-1)
		var cum float64
		for i, c := range b {
			if c == 0 {
				continue
			}
			if cum+float64(c) > rank {
				lo, w := bucketRange(i)
				out[qi] = lo + w*(rank-cum+0.5)/float64(c)
				break
			}
			cum += float64(c)
		}
	}
	return n, out
}

// samples is an exact sample list for low-rate measurements (scene
// operations, dials, spans). Not safe for concurrent appends.
type samples []float64

// quantile returns the q-quantile by linear interpolation between
// closest ranks (0 for an empty list).
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	pos := q * float64(len(c)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return c[lo] + (c[hi]-c[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return samples(v).quantile(0.5) }

// windowed splits the traffic phase into windows of a fixed number of
// consecutive deliveries, one histogram each, so a run can report the
// median over windows of a per-window quantile: a stall then moves a
// few windows, not the run's figure. A window's histogram is allocated
// when its first sample arrives.
type windowed struct {
	per  uint64 // deliveries per window
	seen atomic.Uint64
	wins [maxWindows]atomic.Pointer[[histBuckets]atomic.Uint32]
}

// maxWindows bounds a run's windows; later samples land in the last
// window, which then never counts as full.
const maxWindows = 1024

// add records v; before per is set (outside a traffic phase) it does
// nothing.
func (w *windowed) add(v int64) {
	if w.per == 0 {
		return
	}
	k := (w.seen.Add(1) - 1) / w.per
	if k >= maxWindows {
		k = maxWindows - 1
	}
	h := w.wins[k].Load()
	if h == nil {
		h = new([histBuckets]atomic.Uint32)
		if !w.wins[k].CompareAndSwap(nil, h) {
			h = w.wins[k].Load()
		}
	}
	if v < 0 {
		v = 0
	}
	h[bucketOf(uint64(v))].Add(1)
}

// medianQuantiles returns, for each q, the median over full windows of
// the window's q-quantile, and the number of full windows.
func (w *windowed) medianQuantiles(qs ...float64) ([]float64, int) {
	per := make([][]float64, len(qs))
	used := 0
	b := make([]uint64, histBuckets)
	for i := range w.wins {
		h := w.wins[i].Load()
		if h == nil {
			continue
		}
		for j := range b {
			b[j] = uint64(h[j].Load())
		}
		n, q := bucketQuantiles(b, qs...)
		if n != w.per {
			continue
		}
		used++
		for k := range qs {
			per[k] = append(per[k], q[k])
		}
	}
	out := make([]float64, len(qs))
	for k := range qs {
		out[k] = median(per[k])
	}
	return out, used
}
