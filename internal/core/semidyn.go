package core

import (
	"dyndbscan/internal/abcp"
	"dyndbscan/internal/geom"
	"dyndbscan/internal/unionfind"
)

// SemiDynamic is the insertion-only ρ-approximate DBSCAN clusterer of
// Section 5 (Theorem 1): Õ(1) amortized insertion and Õ(|Q|) C-group-by
// queries for any fixed dimensionality. With ρ = 0 and d = 2 it is the
// paper's fully exact 2d-Semi-Exact configuration.
//
// Core statuses are maintained exactly via vicinity counts (vincnt); the
// grid-graph edges are discovered by one emptiness probe per (new core point,
// ε-close core cell) pair; connected components live in a union-find
// structure, which suffices because core cells never retire under
// insertions.
type SemiDynamic struct {
	*base
	uf *unionfind.UF
	// rootCluster maps the union-find root of a grid-graph component to the
	// component's stable cluster id. Clusters only form and merge under
	// insertions, so a merge retires the younger id and the older id
	// survives — identity is stable across every non-merging insertion.
	rootCluster map[int]ClusterID
}

// NewSemiDynamic returns an empty semi-dynamic clusterer.
func NewSemiDynamic(cfg Config) (*SemiDynamic, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &SemiDynamic{
		base:        newBase(cfg),
		uf:          &unionfind.UF{},
		rootCluster: make(map[int]ClusterID),
	}, nil
}

// Insert adds a point and maintains the clustering, in amortized Õ(1) time.
func (s *SemiDynamic) Insert(pt geom.Point) (PointID, error) {
	if err := checkPoint(pt, s.cfg.Dims); err != nil {
		return 0, err
	}
	return s.insertRec(s.addPoint(pt)), nil
}

// insertRec runs the clustering maintenance for a freshly placed record —
// the commit phase shared by Insert and InsertStaged.
func (s *SemiDynamic) insertRec(rec *pointRec) PointID {
	cnew := rec.cell

	// Core-status step 1/2 of Section 5: a point landing in a dense cell is
	// core outright; otherwise count B(p,ε) exactly over the ε-close cells.
	// The appendix's charging argument keeps the neighbor scans amortized
	// O(1): a cell is scanned at most MinPts times per ε-close neighbor,
	// because after that the neighbor is dense and skips this path.
	dense := len(cnew.pts) >= s.cfg.MinPts
	if !dense {
		rec.vincnt = int32(s.exactBallCount(rec))
	}

	// Bump the vicinity counts of nearby non-core points; every point within
	// ε of pt lives in cnew or an ε-close cell. Cells whose points are all
	// core already cannot contain candidates.
	var promoted []*pointRec
	if dense || int(rec.vincnt) >= s.cfg.MinPts {
		promoted = append(promoted, rec)
	}
	sweep := func(c *cell) {
		if len(c.nonCore) == 0 {
			return
		}
		wholeCell := s.geo.MaxDistSqPointCell(rec.Pt, c.coord) <= s.epsSq
		for _, p := range c.nonCore {
			if p == rec {
				continue
			}
			if wholeCell || geom.DistSq(p.Pt, rec.Pt, s.cfg.Dims) <= s.epsSq {
				p.vincnt++
				if int(p.vincnt) >= s.cfg.MinPts {
					promoted = append(promoted, p)
				}
			}
		}
	}
	sweep(cnew)
	for _, ln := range cnew.neighbors {
		if ln.eps {
			sweep(ln.c)
		}
	}

	for _, p := range promoted {
		s.promote(p)
	}
	return rec.ID
}

// exactBallCount returns |B(rec.Pt, ε)| including rec itself, scanning the
// ε-close cells (only reached while rec's cell is sparse). Cells lying
// entirely inside the ball contribute their population wholesale — at large
// ε most neighbors do, which keeps the scan constant flat across the ε grid
// of Figure 10.
func (s *SemiDynamic) exactBallCount(rec *pointRec) int {
	count := 0
	tally := func(c *cell) {
		if s.geo.MaxDistSqPointCell(rec.Pt, c.coord) <= s.epsSq {
			count += len(c.pts)
			return
		}
		for _, p := range c.pts {
			if geom.DistSq(p.Pt, rec.Pt, s.cfg.Dims) <= s.epsSq {
				count++
			}
		}
	}
	tally(rec.cell)
	for _, ln := range rec.cell.neighbors {
		if ln.eps {
			tally(ln.c)
		}
	}
	return count
}

// promote is GUM for insertions (Section 5): record the new core point, make
// its cell a grid-graph vertex if needed, and add edges found by emptiness
// probes against the ε-close core cells.
func (s *SemiDynamic) promote(p *pointRec) {
	s.markCore(p)
	s.fire(Event{Kind: EventPointBecameCore, Point: p.ID})
	c := p.cell
	if c.coreCount == 1 {
		c.coreList = abcp.NewList(s.cfg.Dims, s.cfg.Eps, s.rUp)
		uf := s.uf.Add()
		c.vertexID = int64(uf)
		s.rootCluster[uf] = s.newClusterID()
		s.fire(Event{Kind: EventClusterFormed, Cluster: s.rootCluster[uf]})
	}
	c.coreList.Append(&p.Node)
	for _, ln := range c.neighbors {
		nc := ln.c
		if !ln.eps || nc.coreCount == 0 {
			continue
		}
		if _, dup := c.edges[nc]; dup {
			continue
		}
		if _, ok := nc.coreList.Probe(p.Pt); ok {
			put(&c.edges, nc, struct{}{})
			put(&nc.edges, c, struct{}{})
			s.unionClusters(int(c.vertexID), int(nc.vertexID))
		}
	}
}

// unionClusters merges the grid-graph components of two union-find elements,
// keeping the older stable cluster id and retiring the younger.
func (s *SemiDynamic) unionClusters(a, b int) {
	ra, rb := s.uf.Find(a), s.uf.Find(b)
	if ra == rb {
		return
	}
	ia, ib := s.rootCluster[ra], s.rootCluster[rb]
	delete(s.rootCluster, ra)
	delete(s.rootCluster, rb)
	s.uf.Union(ra, rb)
	survivor, absorbed := ia, ib
	if ib < ia {
		survivor, absorbed = ib, ia
	}
	s.rootCluster[s.uf.Find(ra)] = survivor
	s.fire(Event{Kind: EventClusterMerged, Cluster: survivor, Absorbed: absorbed})
}

// clusterIDOf returns the stable cluster id of a core cell. It writes
// nothing (UF.Root), so queries may run concurrently.
func (s *SemiDynamic) clusterIDOf(c *cell) ClusterID {
	return s.rootCluster[s.uf.Root(int(c.vertexID))]
}

// ClusterOf returns the stable cluster ids the point currently belongs to
// (empty for a live noise point) and whether the point is live.
func (s *SemiDynamic) ClusterOf(id PointID) ([]ClusterID, bool) {
	return s.clusterOf(id, s.clusterIDOf)
}

// Delete always fails: Theorem 2 proves that supporting deletions under
// plain ρ-approximate semantics is as hard as USEC.
func (s *SemiDynamic) Delete(PointID) error { return ErrDeletesUnsupported }

// GroupBy answers a C-group-by query in Õ(|Q|) time.
func (s *SemiDynamic) GroupBy(ids []PointID) (Result, error) {
	return s.groupBy(ids, func(c *cell) any { return s.uf.Root(int(c.vertexID)) })
}

// Stats returns structural counters.
func (s *SemiDynamic) Stats() Stats { return s.stats() }
