package core

import "dyndbscan/internal/grid"

// Update-delta exposure for the durability layer's delta checkpoints: an
// engine writing incremental checkpoints needs to know, since the last
// capture, which grid cells could have changed the cluster membership of a
// nearby point. This is a coarser change set than the seam tracker's
// (SeamTracker records only empty/non-empty core-cell transitions; the seam
// only cares about cell-level structure), because point-level membership also
// moves when a cell that stays core gains or loses an individual core point:
// a border point's probe against that cell can flip either way.
//
// The recorded cells are exactly the ones touched by a point placement, a
// point removal, or a core-status flip. Membership of a point q depends only
// on core points within (1+ρ)ε of q, so any membership change is witnessed by
// a recorded cell within box distance 2(1+ρ)ε of q's cell — the radius the
// checkpoint capture passes to ForEachPointNear. Whole-cluster renames with
// no local witness (a merge's far members) are reconstructed from the event
// lineage instead; see the engine's checkpoint code.
//
// Tracking is off by default and costs nothing; the engine enables it only
// when a WAL is attached, since only checkpoint captures consume the set.

// UpdateTracker is the per-capture change-set capability delta checkpoints
// require of a backend. All built-in algorithms provide it (the transitions
// are recorded by the shared cell machinery).
type UpdateTracker interface {
	// SetUpdateTracking enables or disables dirty-cell recording. Enabling
	// starts from an empty change set; disabling discards any pending one.
	SetUpdateTracking(on bool)
	// TakeDirtyUpdateCells returns the coordinates of every cell touched by a
	// placement, removal, or core-status flip since the last take,
	// deduplicated and in no particular order, and resets the set.
	TakeDirtyUpdateCells() []grid.Coord
	// ForEachPointNear invokes fn on every live point resident in a cell
	// within box distance r of the cell at coord (that cell included),
	// stopping early if fn returns false. Points are visited in no particular
	// order and a point is visited once.
	ForEachPointNear(coord grid.Coord, r float64, fn func(PointID) bool)
}

// SetUpdateTracking implements UpdateTracker.
func (b *base) SetUpdateTracking(on bool) {
	if on {
		b.dirtyUpd = make(map[grid.Coord]struct{})
	} else {
		b.dirtyUpd = nil
	}
}

// TakeDirtyUpdateCells implements UpdateTracker.
func (b *base) TakeDirtyUpdateCells() []grid.Coord {
	if len(b.dirtyUpd) == 0 {
		return nil
	}
	out := make([]grid.Coord, 0, len(b.dirtyUpd))
	for c := range b.dirtyUpd {
		out = append(out, c)
	}
	// A fresh map rather than clear: clearing, and the next take's walk, cost
	// the map's capacity, which a bulk load leaves far above the change set
	// of a typical checkpoint interval.
	b.dirtyUpd = make(map[grid.Coord]struct{})
	return out
}

// ForEachPointNear implements UpdateTracker.
func (b *base) ForEachPointNear(coord grid.Coord, r float64, fn func(PointID) bool) {
	b.idx.QueryClose(coord, r, func(_ grid.Coord, c *cell) bool {
		for _, rec := range c.pts {
			if !fn(rec.id) {
				return false
			}
		}
		return true
	})
}

// noteUpdDirty records a membership-relevant change in the cell at coord.
// Called from placePoint, removePoint, markCore and markNonCore — the four
// choke points every algorithm's update paths funnel through.
func (b *base) noteUpdDirty(coord grid.Coord) {
	if b.dirtyUpd != nil {
		b.dirtyUpd[coord] = struct{}{}
	}
}

// Compile-time checks: the engine's delta checkpoints depend on these.
var (
	_ UpdateTracker = (*FullyDynamic)(nil)
	_ UpdateTracker = (*SemiDynamic)(nil)
	_ UpdateTracker = (*IncDBSCAN)(nil)
)
