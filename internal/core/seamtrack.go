package core

import "dyndbscan/internal/grid"

// Seam-delta exposure for the sharded serving layer's incremental stitch: a
// sharded engine maintaining a live cross-shard seam structure needs to know,
// after every commit, which grid cells changed their core-cell state in this
// backend's view. Together with the merge/split/form/dissolve lineage already
// carried by the event stream, that change set is exactly enough to update
// the seam incrementally instead of re-enumerating every core cell:
//
//   - a cell crossing the "holds at least one core point" boundary (in either
//     direction) is recorded here, and the consumer re-reads its final state
//     via CoreCellCluster;
//   - a cell that stays core but changes its stable cluster label does so
//     only through a cluster merge (a whole-cluster rename, reconstructible
//     from the EventClusterMerged lineage) or a cluster split (whose
//     EventClusterSplit names the source cluster, letting the consumer
//     re-read exactly that cluster's cells).
//
// Tracking is off by default and costs nothing. The sharded engine enables
// it on every shard backend at construction: each commit folds its seam
// delta whether or not subscribers exist.

// SeamTracker is the per-commit change-set capability the sharded engine's
// incremental stitch requires of its backends. All built-in algorithms
// provide it (the transitions are recorded by the shared cell machinery).
type SeamTracker interface {
	// SetSeamTracking enables or disables dirty-cell recording. Enabling
	// starts from an empty change set; disabling discards any pending one.
	SetSeamTracking(on bool)
	// TakeDirtySeamCells returns the coordinates of every cell whose
	// core-cell state (holds core points / holds none) transitioned since the
	// last take, deduplicated and in no particular order, and resets the set.
	// A returned cell may have transitioned back: consumers must re-read its
	// final state rather than infer a direction.
	TakeDirtySeamCells() []grid.Coord
}

// SetSeamTracking implements SeamTracker.
func (b *base) SetSeamTracking(on bool) {
	if on {
		b.dirtySeam = make(map[grid.Coord]struct{})
	} else {
		b.dirtySeam = nil
	}
}

// TakeDirtySeamCells implements SeamTracker.
func (b *base) TakeDirtySeamCells() []grid.Coord {
	if len(b.dirtySeam) == 0 {
		return nil
	}
	out := make([]grid.Coord, 0, len(b.dirtySeam))
	for c := range b.dirtySeam {
		out = append(out, c)
	}
	clear(b.dirtySeam)
	return out
}

// noteSeamDirty records a core-cell boundary transition of c. Called from
// markCore/markNonCore, which every algorithm's promotion and demotion paths
// funnel through.
func (b *base) noteSeamDirty(c *cell) {
	if b.dirtySeam != nil {
		b.dirtySeam[c.coord] = struct{}{}
	}
}

// Compile-time checks: the sharded Engine depends on these.
var (
	_ SeamTracker = (*FullyDynamic)(nil)
	_ SeamTracker = (*SemiDynamic)(nil)
	_ SeamTracker = (*IncDBSCAN)(nil)
)
