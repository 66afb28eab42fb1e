package scene

// Epoch-snapshot dispatch views: the lock-free read path of the
// forwarding loop.
//
// Per-packet dispatch (§3.2 step 2–3) needs two answers — NT(src, ch)
// and the link model governing ch — and the server asks for them once
// per received packet. Taking the scene mutex for each answer convoys
// every session behind every other session and behind mobility ticks,
// and copying + sorting a fresh neighbor slice per packet burns
// allocations on the hottest path in the system. Instead the scene
// maintains, per channel, an immutable *ChannelView* holding the
// precomputed sorted neighbor rows and the channel's resolved link
// model, and publishes the set of views through one atomic pointer.
//
// Writer protocol (all under Scene.mu):
//   - every mutation marks the channels it touched dirty
//     (markChannelDirtyLocked / markNodeDirtyLocked);
//   - before the mutator returns it calls publishLocked, which rebuilds
//     only the dirty channels' views, shares every clean channel's view
//     pointer with the previous epoch, and atomically stores the new
//     view set. Scene.Tick marks channels across all of its moves and
//     publishes once, so a tick moving M nodes on one channel rebuilds
//     that channel's view once, not M times — preserving the paper's
//     §4.2 channel-indexed update-cost property at the view layer.
//
// Reader protocol: Dispatch performs one atomic load and two map
// lookups on immutable data. No locks, no copies, no allocations.
//
// Memory-ordering contract: a view set is fully constructed before the
// atomic Store publishes it, and readers only navigate data reachable
// from the atomic Load, so the publication happens-before every read
// (Go memory model: atomic.Pointer Store/Load act as release/acquire).
// Everything reachable from a published viewSet is immutable from that
// point on; rebuilding replaces pointers, never mutates shared rows.

import (
	"repro/internal/linkmodel"
	"repro/internal/radio"
)

// ChannelView is one channel's immutable dispatch state: every node's
// sorted neighbor row plus the resolved link model. Returned rows are
// shared — callers must treat them as read-only.
type ChannelView struct {
	model linkmodel.Model
	rows  map[radio.NodeID][]radio.Neighbor
}

// Model returns the link model governing the channel at this epoch.
func (v *ChannelView) Model() linkmodel.Model { return v.model }

// Row returns NT(id, ch) at this epoch. The slice is shared and sorted
// by neighbor ID; callers must not mutate it.
func (v *ChannelView) Row(id radio.NodeID) []radio.Neighbor { return v.rows[id] }

// viewSet is one published epoch: every channel's view plus the default
// model for channels with no view (no members and no explicit model).
type viewSet struct {
	chans    map[radio.ChannelID]*ChannelView
	defModel linkmodel.Model
}

// Dispatch resolves the forwarding read path for one packet: NT(src,
// ch) and the link model of ch, from the current epoch snapshot. It is
// lock-free and allocation-free — a single atomic load — and safe to
// call concurrently with any scene mutation. The returned slice is
// shared with the snapshot; callers must not mutate it.
func (s *Scene) Dispatch(src radio.NodeID, ch radio.ChannelID) ([]radio.Neighbor, linkmodel.Model) {
	vs := s.views.Load()
	if v := vs.chans[ch]; v != nil {
		return v.rows[src], v.model
	}
	return nil, vs.defModel
}

// View returns the current epoch's view of ch, or nil when the channel
// has no members and no explicit model.
func (s *Scene) View(ch radio.ChannelID) *ChannelView {
	return s.views.Load().chans[ch]
}

// ViewRebuilds returns how many times ch's dispatch view has been
// rebuilt — the view-layer analogue of radio.NeighborTable.UpdateCost,
// used by tests to pin the "a change on channel k never rebuilds
// channel j's view" property.
func (s *Scene) ViewRebuilds(ch radio.ChannelID) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rebuilds[ch]
}

// ViewRebuildCounts returns every channel's rebuild count, for the
// control protocol's per-channel stats lines. The map is a copy.
func (s *Scene) ViewRebuildCounts() map[radio.ChannelID]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[radio.ChannelID]uint64, len(s.rebuilds))
	for ch, n := range s.rebuilds {
		out[ch] = n
	}
	return out
}

// markChannelDirtyLocked queues ch for a view rebuild at the next
// publishLocked.
func (s *Scene) markChannelDirtyLocked(ch radio.ChannelID) {
	s.dirty[ch] = struct{}{}
}

// markNodeDirtyLocked queues every channel of the node's radio set.
// Call it with the radio set that is (or was) in effect — for removals
// and radio swaps that means capturing the old set before mutating.
func (s *Scene) markNodeDirtyLocked(radios []radio.Radio) {
	for _, r := range radios {
		s.dirty[r.Channel] = struct{}{}
	}
}

// publishLocked rebuilds the views of every dirty channel and stores a
// new epoch. Clean channels keep their previous *ChannelView pointer —
// the rebuild cost is proportional to what actually changed. No-op when
// nothing is dirty.
func (s *Scene) publishLocked() {
	if len(s.dirty) == 0 && !s.allDirty {
		return
	}
	old := s.views.Load()
	if s.allDirty {
		// Default-model change: every existing view's resolved model may
		// differ, so rebuild them all (rare operator action).
		for ch := range old.chans {
			s.dirty[ch] = struct{}{}
		}
		for ch := range s.models {
			s.dirty[ch] = struct{}{}
		}
		s.allDirty = false
	}
	chans := make(map[radio.ChannelID]*ChannelView, len(old.chans)+len(s.dirty))
	for ch, v := range old.chans {
		chans[ch] = v // shared: clean channels carry over by pointer
	}
	for ch := range s.dirty {
		delete(s.dirty, ch)
		v := s.buildViewLocked(ch)
		if v == nil {
			delete(chans, ch)
			continue
		}
		chans[ch] = v
		s.rebuilds[ch]++
		if s.rebuildObs != nil {
			s.rebuildObs(ch)
		}
	}
	s.views.Store(&viewSet{chans: chans, defModel: s.defModel})
}

// SetRebuildObserver installs fn to observe every channel-view rebuild
// (nil removes it). It runs under the scene mutex, once per rebuilt
// channel per publish: fn must be fast, lock-free, and must not call
// back into the scene. The server's flight recorder uses it to place
// rebuild storms on the same timeline as scheduler lag.
func (s *Scene) SetRebuildObserver(fn func(radio.ChannelID)) {
	s.mu.Lock()
	s.rebuildObs = fn
	s.mu.Unlock()
}

// buildViewLocked computes ch's view from the neighbor table, or nil
// when the channel has neither members nor an explicit model.
func (s *Scene) buildViewLocked(ch radio.ChannelID) *ChannelView {
	members := s.tab.NodeSet(ch)
	model, explicit := s.models[ch]
	if !explicit {
		if len(members) == 0 {
			return nil
		}
		model = s.defModel
	}
	rows := make(map[radio.NodeID][]radio.Neighbor, len(members))
	for _, id := range members {
		rows[id] = s.tab.Neighbors(id, ch)
	}
	return &ChannelView{model: model, rows: rows}
}
