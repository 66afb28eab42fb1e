package geom

import "math"

// Grid is a uniform spatial hash over the emulation plane. The radio
// neighbor tables use it to restrict range queries to nearby cells
// instead of scanning every node, which keeps scene updates cheap when
// emulating large MANETs (the §4.2 efficiency claim at scale).
//
// Keys are opaque int64 identifiers chosen by the caller (node IDs).
// Grid is not safe for concurrent use; callers synchronize.
type Grid struct {
	cell  float64
	cells map[cellKey]map[int64]Vec2
	pos   map[int64]Vec2
}

type cellKey struct{ cx, cy int32 }

// NewGrid returns a Grid with the given cell size. The cell size should
// be on the order of the typical radio range; queries then touch O(1)
// cells. A non-positive cell size panics: it is a programming error.
func NewGrid(cellSize float64) *Grid {
	if cellSize <= 0 {
		panic("geom: grid cell size must be positive")
	}
	return &Grid{
		cell:  cellSize,
		cells: make(map[cellKey]map[int64]Vec2),
		pos:   make(map[int64]Vec2),
	}
}

// CellSize returns the grid's cell edge length.
func (g *Grid) CellSize() float64 { return g.cell }

// Len returns the number of keys stored.
func (g *Grid) Len() int { return len(g.pos) }

func (g *Grid) keyFor(p Vec2) cellKey {
	return cellKey{cx: g.coord(p.X), cy: g.coord(p.Y)}
}

// coord maps one axis onto its cell index. Positions come from operator
// input, so values past the int32 range (or infinite) saturate at its
// ends rather than wrapping, and NaN lands in cell 0; the clamp is
// monotone, so range queries stay exact.
func (g *Grid) coord(v float64) int32 {
	f := math.Floor(v / g.cell)
	switch {
	case f >= math.MaxInt32:
		return math.MaxInt32
	case f <= math.MinInt32:
		return math.MinInt32
	case f != f:
		return 0
	}
	return int32(f)
}

// Put inserts or moves key to position p.
func (g *Grid) Put(key int64, p Vec2) {
	if old, ok := g.pos[key]; ok {
		ok1 := g.keyFor(old)
		ok2 := g.keyFor(p)
		if ok1 == ok2 {
			g.cells[ok1][key] = p
			g.pos[key] = p
			return
		}
		g.removeFromCell(ok1, key)
	}
	ck := g.keyFor(p)
	c := g.cells[ck]
	if c == nil {
		c = make(map[int64]Vec2)
		g.cells[ck] = c
	}
	c[key] = p
	g.pos[key] = p
}

// Remove deletes key from the grid. Removing an absent key is a no-op.
func (g *Grid) Remove(key int64) {
	p, ok := g.pos[key]
	if !ok {
		return
	}
	g.removeFromCell(g.keyFor(p), key)
	delete(g.pos, key)
}

func (g *Grid) removeFromCell(ck cellKey, key int64) {
	c := g.cells[ck]
	delete(c, key)
	if len(c) == 0 {
		delete(g.cells, ck)
	}
}

// Pos returns the stored position for key.
func (g *Grid) Pos(key int64) (Vec2, bool) {
	p, ok := g.pos[key]
	return p, ok
}

// Within calls fn for every key whose position lies within radius r of
// center, excluding the key `exclude` (pass a negative value to exclude
// nothing). Iteration order is unspecified.
func (g *Grid) Within(center Vec2, r float64, exclude int64, fn func(key int64, p Vec2)) {
	if r < 0 {
		return
	}
	r2 := r * r
	lo := g.keyFor(Vec2{center.X - r, center.Y - r})
	hi := g.keyFor(Vec2{center.X + r, center.Y + r})
	// A radius much larger than the occupied area would walk millions
	// of empty cells; when the cell window exceeds the number of
	// occupied cells, scanning those directly is strictly cheaper.
	wx, wy := int64(hi.cx)-int64(lo.cx)+1, int64(hi.cy)-int64(lo.cy)+1
	if n := int64(len(g.cells)); wx > n || wy > n || wx*wy > n {
		for ck, cell := range g.cells {
			if ck.cx < lo.cx || ck.cx > hi.cx || ck.cy < lo.cy || ck.cy > hi.cy {
				continue
			}
			for key, p := range cell {
				if key == exclude {
					continue
				}
				if p.DistSq(center) <= r2 {
					fn(key, p)
				}
			}
		}
		return
	}
	// int64 counters: a window ending at math.MaxInt32 must not wrap.
	for cx := int64(lo.cx); cx <= int64(hi.cx); cx++ {
		for cy := int64(lo.cy); cy <= int64(hi.cy); cy++ {
			for key, p := range g.cells[cellKey{int32(cx), int32(cy)}] {
				if key == exclude {
					continue
				}
				if p.DistSq(center) <= r2 {
					fn(key, p)
				}
			}
		}
	}
}

// KeysWithin returns the keys within radius r of center, excluding
// `exclude`. It is a convenience wrapper over Within.
func (g *Grid) KeysWithin(center Vec2, r float64, exclude int64) []int64 {
	var out []int64
	g.Within(center, r, exclude, func(key int64, _ Vec2) { out = append(out, key) })
	return out
}
