package core

import (
	"dyndbscan/internal/geom"
	"dyndbscan/internal/grid"
)

// Core-cell exposure for the sharded serving layer: a shard's stitching pass
// needs to enumerate the core cells of one backend (to find the cells lying
// in another shard's territory) and to resolve the stable cluster id a given
// cell carries in a neighboring backend. Both views are read-only.

// CoreCellWalker is the capability the sharded Engine requires of its
// backends: enumeration of the current core cells with their stable cluster
// ids, and point lookup of one cell's cluster id. All built-in algorithms
// provide it.
type CoreCellWalker interface {
	// ForEachCoreCell invokes fn for every cell currently holding at least
	// one core point, with the stable cluster id the cell belongs to.
	// Iteration order is unspecified; fn returning false stops early.
	ForEachCoreCell(fn func(coord grid.Coord, cluster ClusterID) bool)
	// CoreCellCluster returns the stable cluster id of the core cell at
	// coord, or ok=false when the cell is absent or holds no core point.
	CoreCellCluster(coord grid.Coord) (ClusterID, bool)
}

// forEachCoreCell walks the occupied-cell index and reports core cells
// through the algorithm-specific id resolver.
func (b *base) forEachCoreCell(cid func(*cell) ClusterID, fn func(grid.Coord, ClusterID) bool) {
	b.idx.ForEach(func(coord grid.Coord, c *cell) bool {
		if c.coreCount == 0 {
			return true
		}
		return fn(coord, cid(c))
	})
}

// coreCellCluster resolves one cell by coordinate.
func (b *base) coreCellCluster(coord grid.Coord, cid func(*cell) ClusterID) (ClusterID, bool) {
	c, ok := b.idx.Get(coord)
	if !ok || c.coreCount == 0 {
		return 0, false
	}
	return cid(c), true
}

// ForEachCoreCell implements CoreCellWalker.
func (f *FullyDynamic) ForEachCoreCell(fn func(grid.Coord, ClusterID) bool) {
	f.forEachCoreCell(func(c *cell) ClusterID { return c.cluster }, fn)
}

// CoreCellCluster implements CoreCellWalker.
func (f *FullyDynamic) CoreCellCluster(coord grid.Coord) (ClusterID, bool) {
	return f.coreCellCluster(coord, func(c *cell) ClusterID { return c.cluster })
}

// ForEachCoreCell implements CoreCellWalker.
func (s *SemiDynamic) ForEachCoreCell(fn func(grid.Coord, ClusterID) bool) {
	s.forEachCoreCell(s.clusterIDOf, fn)
}

// CoreCellCluster implements CoreCellWalker.
func (s *SemiDynamic) CoreCellCluster(coord grid.Coord) (ClusterID, bool) {
	return s.coreCellCluster(coord, s.clusterIDOf)
}

// cellClusterID returns the stable cluster id of a core cell: all core
// points of one cell share a cluster (the cell diagonal is ≤ ε, so any two
// of them are directly density-reachable), making the id well-defined.
func (ic *IncDBSCAN) cellClusterID(c *cell) ClusterID {
	for _, p := range c.pts {
		if p.isCore() {
			return ic.stableIDOf(p)
		}
	}
	panic("core: cellClusterID on cell without core points")
}

// ForEachCoreCell implements CoreCellWalker.
func (ic *IncDBSCAN) ForEachCoreCell(fn func(grid.Coord, ClusterID) bool) {
	ic.forEachCoreCell(ic.cellClusterID, fn)
}

// CoreCellCluster implements CoreCellWalker.
func (ic *IncDBSCAN) CoreCellCluster(coord grid.Coord) (ClusterID, bool) {
	return ic.coreCellCluster(coord, ic.cellClusterID)
}

// PointLookup is the capability behind live stripe migration: the sharded
// engine re-stages a migrating point from its source backend's copy before
// replaying it into the target backend. All built-in algorithms provide it.
type PointLookup interface {
	// PointAt returns the coordinates of the live point, or ok=false for an
	// unknown handle. The returned slice is the backend's own storage: the
	// caller must not mutate or retain it across updates.
	PointAt(id PointID) (geom.Point, bool)
}

// PointAt implements PointLookup for every algorithm through the shared
// point table.
func (b *base) PointAt(id PointID) (geom.Point, bool) {
	rec, ok := b.points[id]
	if !ok {
		return nil, false
	}
	return rec.Pt, true
}

// ForEachPointNear invokes fn on every live point resident in a cell within
// box distance r of the cell at coord (that cell included), stopping early
// if fn returns false. Points are visited in no particular order and a point
// is visited once. The delta checkpoints read memberships around the cells
// of the change record through it.
func (b *base) ForEachPointNear(coord grid.Coord, r float64, fn func(PointID) bool) {
	b.idx.QueryClose(coord, r, func(_ grid.Coord, c *cell) bool {
		for _, rec := range c.pts {
			if !fn(rec.ID) {
				return false
			}
		}
		return true
	})
}

// Compile-time checks: the sharded Engine depends on these.
var (
	_ CoreCellWalker = (*FullyDynamic)(nil)
	_ CoreCellWalker = (*SemiDynamic)(nil)
	_ CoreCellWalker = (*IncDBSCAN)(nil)

	_ PointLookup = (*FullyDynamic)(nil)
	_ PointLookup = (*SemiDynamic)(nil)
	_ PointLookup = (*IncDBSCAN)(nil)
)
