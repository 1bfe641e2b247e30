package core

import "dyndbscan/internal/grid"

// The change record: what the updates since the last take changed, in grid
// cells. An update changes state only near its point — the point's own cell
// and the cells whose core status it flips — and every algorithm's update
// paths funnel through four choke points of the shared cell machinery
// (placePoint, removePoint, markCore, markNonCore), which note their cell
// here. The record is always on; the engine drains it after every mutation
// site. Two consumers read the one record:
//
//   - the sharded engine's seam fold re-reads the final core state of every
//     cell marked Core (its core count crossed zero). A cell that stays core
//     but changes its stable cluster label does so only through a merge or
//     a split, reconstructible from the cluster-event lineage;
//   - the delta checkpoints re-read the membership of every point near any
//     recorded cell. Membership of a point q depends only on core points
//     within (1+ρ)ε of q, so any membership change is witnessed by a
//     recorded cell within box distance 2(1+ρ)ε of q's cell — the radius
//     the capture passes to ForEachPointNear. Whole-cluster renames with no
//     local witness (a merge's far members) come from the event lineage.

// CellChange is one entry of a backend's change record.
type CellChange struct {
	Coord grid.Coord
	// Core reports that the cell's core count crossed zero, in either
	// direction. The cell may have crossed back since: consumers re-read
	// its final state rather than infer a direction.
	Core bool
}

// cellChange is a recorded entry; the cell's chg field is its position + 1.
type cellChange struct {
	c    *cell
	core bool
}

// MaxKeptChanges caps the record capacity kept across takes, so one bulk
// update does not pin its record's memory for the life of the backend. A
// caller reusing a TakeChanges buffer applies the same cap to it.
const MaxKeptChanges = 256

// TakeChanges appends the change record to dst and resets it: every cell a
// placement, removal or core-status flip touched since the last take, once
// each, destroyed cells included, in no particular order. A coordinate
// repeats only when its cell was destroyed and re-created in between.
func (b *base) TakeChanges(dst []CellChange) []CellChange {
	for _, ch := range b.changes {
		ch.c.chg = 0
		dst = append(dst, CellChange{Coord: ch.c.coord, Core: ch.core})
	}
	if cap(b.changes) > MaxKeptChanges {
		b.changes = nil
	} else {
		clear(b.changes)
		b.changes = b.changes[:0]
	}
	return dst
}

// noteChange records a change in cell c; core marks a crossing of zero by
// its core count.
func (b *base) noteChange(c *cell, core bool) {
	if c.chg == 0 {
		b.changes = append(b.changes, cellChange{c: c})
		c.chg = int32(len(b.changes))
	}
	if core {
		b.changes[c.chg-1].core = true
	}
}
