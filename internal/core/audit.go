package core

import (
	"fmt"

	"dyndbscan/internal/abcp"
	"dyndbscan/internal/geom"
)

// Audit exhaustively validates the maintained state of a FullyDynamic
// clusterer against brute force: stored core statuses must be legal under
// ρ-double-approximate semantics, every grid-graph edge must satisfy the
// yes/no/don't-care rule of Section 4.1, cell bookkeeping must be coherent,
// and the connectivity structure must pass its own validation. O(n²) — for
// tests and debugging.
func (f *FullyDynamic) Audit() error {
	minPts := f.cfg.MinPts
	// 1. Stored core statuses are legal at the current instant:
	// core ⇒ |B(p,(1+ρ)ε)| ≥ MinPts, non-core ⇒ |B(p,ε)| < MinPts.
	for id, rec := range f.points {
		ballEps, ballUp := 0, 0
		for _, other := range f.points {
			d := geom.DistSq(rec.pt, other.pt, f.cfg.Dims)
			if d <= f.epsSq {
				ballEps++
			}
			if d <= f.rUpSq {
				ballUp++
			}
		}
		if rec.core && ballUp < minPts {
			return fmt.Errorf("audit: point %d core but |B((1+ρ)ε)|=%d < MinPts", id, ballUp)
		}
		if !rec.core && ballEps >= minPts {
			return fmt.Errorf("audit: point %d non-core but |B(ε)|=%d ≥ MinPts", id, ballEps)
		}
	}
	// 2. Cell bookkeeping. Reverse check first: every live record must sit
	// in its cell's point slice at its recorded position (this also catches
	// records whose cell pointer was moved away from a now-orphaned cell).
	cells := make(map[*cell]struct{})
	for id, rec := range f.points {
		if int(rec.idx) >= len(rec.cell.pts) || rec.cell.pts[rec.idx] != rec {
			return fmt.Errorf("audit: point %d not at its recorded cell position", id)
		}
		cells[rec.cell] = struct{}{}
	}
	for c := range cells {
		if got, ok := f.idx.Get(c.coord); !ok || got != c {
			return fmt.Errorf("audit: cell %v not indexed", c.coord.Render(f.cfg.Dims))
		}
		for i, p := range c.pts {
			if int(p.idx) != i || p.cell != c {
				return fmt.Errorf("audit: point %d has stale cell position", p.id)
			}
			if f.geo.CellOf(p.pt) != c.coord {
				return fmt.Errorf("audit: point %d in wrong cell", p.id)
			}
		}
		if err := auditCoreList(c, f.cfg.Dims); err != nil {
			return err
		}
		if err := auditNonCoreList(c, f.cfg.Dims); err != nil {
			return err
		}
		if err := auditCountTree(c, f.cfg.Dims); err != nil {
			return err
		}
		if err := auditLinks(c, f.cfg.Dims); err != nil {
			return err
		}
		if (c.coreCount > 0) != (c.vertexID >= 0) {
			return fmt.Errorf("audit: cell %v vertex status inconsistent", c.coord.Render(f.cfg.Dims))
		}
		if c.vertexID >= 0 && !f.cc.HasVertex(c.vertexID) {
			return fmt.Errorf("audit: cell %v vertex missing from CC structure", c.coord.Render(f.cfg.Dims))
		}
	}
	// 3. Edges: every ε-close core cell pair has exactly one instance; the
	// witness obeys Lemma 3; the CC edge mirrors the witness; a link is idle
	// exactly when its instance holds no witness, and an idle instance has
	// nothing left to de-list, which is what lets an insertion skip every
	// other instance.
	for c := range cells {
		if c.coreCount == 0 {
			if len(c.instances) != 0 {
				return fmt.Errorf("audit: non-core cell %v has instances", c.coord.Render(f.cfg.Dims))
			}
		}
		seen := 0
		for _, ln := range c.neighbors {
			nc := ln.c
			if !ln.eps || c.coreCount == 0 || nc.coreCount == 0 {
				if ln.idle {
					return fmt.Errorf("audit: idle link between %v and %v without an instance",
						c.coord.Render(f.cfg.Dims), nc.coord.Render(f.cfg.Dims))
				}
				continue
			}
			seen++
			inst, ok := c.instances[nc]
			if !ok {
				return fmt.Errorf("audit: missing instance between %v and %v",
					c.coord.Render(f.cfg.Dims), nc.coord.Render(f.cfg.Dims))
			}
			if inst != nc.instances[c] {
				return fmt.Errorf("audit: asymmetric instance between %v and %v",
					c.coord.Render(f.cfg.Dims), nc.coord.Render(f.cfg.Dims))
			}
			// Witness invariants.
			closest := f.closestCorePairSq(c, nc)
			if inst.HasWitness() {
				a, b := inst.Witness()
				ra, rb := f.points[a.ID], f.points[b.ID]
				if ra == nil || rb == nil || !ra.core || !rb.core {
					return fmt.Errorf("audit: witness references non-core points")
				}
				if geom.DistSq(a.Pt, b.Pt, f.cfg.Dims) > f.rUpSq*(1+1e-12) {
					return fmt.Errorf("audit: witness pair farther than (1+ρ)ε")
				}
			} else if closest <= f.epsSq {
				return fmt.Errorf("audit: core pair within ε between %v and %v but no witness",
					c.coord.Render(f.cfg.Dims), nc.coord.Render(f.cfg.Dims))
			}
			if f.cc.HasEdge(c.vertexID, nc.vertexID) != inst.HasWitness() {
				return fmt.Errorf("audit: CC edge between %v and %v disagrees with witness",
					c.coord.Render(f.cfg.Dims), nc.coord.Render(f.cfg.Dims))
			}
			switch {
			case ln.idle && inst.HasWitness():
				return fmt.Errorf("audit: link between %v and %v marks a witnessed instance idle",
					c.coord.Render(f.cfg.Dims), nc.coord.Render(f.cfg.Dims))
			case !ln.idle && !inst.HasWitness():
				return fmt.Errorf("audit: instance between %v and %v has no witness but its link is not idle",
					c.coord.Render(f.cfg.Dims), nc.coord.Render(f.cfg.Dims))
			case ln.idle && !inst.Drained():
				return fmt.Errorf("audit: idle instance between %v and %v has points left to de-list",
					c.coord.Render(f.cfg.Dims), nc.coord.Render(f.cfg.Dims))
			}
		}
		if len(c.instances) != seen {
			return fmt.Errorf("audit: cell %v has %d instances, expected %d",
				c.coord.Render(f.cfg.Dims), len(c.instances), seen)
		}
	}
	return f.cc.Validate()
}

// auditLinks verifies a cell's neighbour links against their twins: each
// twin leads back to c, sits where rev says, and agrees on eps and idle.
func auditLinks(c *cell, dims int) error {
	for i, ln := range c.neighbors {
		if int(ln.rev) >= len(ln.c.neighbors) {
			return fmt.Errorf("audit: cell %v link %d has no twin", c.coord.Render(dims), i)
		}
		tw := ln.c.neighbors[ln.rev]
		switch {
		case tw.c != c || int(tw.rev) != i:
			return fmt.Errorf("audit: cell %v link %d and its twin do not point at each other", c.coord.Render(dims), i)
		case tw.eps != ln.eps:
			return fmt.Errorf("audit: cell %v link %d disagrees with its twin on eps", c.coord.Render(dims), i)
		case tw.idle != ln.idle:
			return fmt.Errorf("audit: idle mark between %v and %v is one-sided", c.coord.Render(dims), ln.c.coord.Render(dims))
		}
	}
	return nil
}

// auditCoreList verifies a cell's core list against its residents: the list
// exists exactly while the cell has core points, holds exactly their nodes,
// and its chunks pass the list's own validation (sizes, chunk pointers and
// boxes).
func auditCoreList(c *cell, dims int) error {
	inList := make(map[*abcp.Node]bool)
	if c.coreList != nil {
		for n := c.coreList.Head(); n != nil; n = n.Next() {
			inList[n] = true
		}
	}
	cores := 0
	for _, p := range c.pts {
		switch {
		case p.core && (p.coreNode == nil || !inList[p.coreNode] || p.coreNode.ID != p.id):
			return fmt.Errorf("audit: core point %d missing from its cell's core list", p.id)
		case !p.core && p.coreNode != nil:
			return fmt.Errorf("audit: non-core point %d present in its cell's core list", p.id)
		case p.core:
			cores++
		}
	}
	if (c.coreList != nil) != (cores > 0) {
		return fmt.Errorf("audit: cell %v with %d core points has list=%v", c.coord.Render(dims), cores, c.coreList != nil)
	}
	if cores != int(c.coreCount) || cores > 0 && c.coreList.Len() != cores {
		return fmt.Errorf("audit: cell %v core counters inconsistent", c.coord.Render(dims))
	}
	if c.coreList == nil {
		return nil
	}
	if err := c.coreList.Validate(); err != nil {
		return fmt.Errorf("audit: cell %v core list: %w", c.coord.Render(dims), err)
	}
	return nil
}

// auditNonCoreList verifies the per-cell non-core resident list: exactly the
// non-core points of the cell, each at its recorded position.
func auditNonCoreList(c *cell, dims int) error {
	if len(c.nonCore) != len(c.pts)-int(c.coreCount) {
		return fmt.Errorf("audit: cell %v nonCore list has %d entries, want %d",
			c.coord.Render(dims), len(c.nonCore), len(c.pts)-int(c.coreCount))
	}
	for i, p := range c.nonCore {
		if p.core {
			return fmt.Errorf("audit: core point %d in nonCore list", p.id)
		}
		if int(p.ncIdx) != i || p.cell != c {
			return fmt.Errorf("audit: point %d has stale nonCore position", p.id)
		}
	}
	return nil
}

// auditCountTree verifies a cell's counting subtree: absent at countTreeAt/2
// points or fewer, and when present holding exactly the cell's points. A
// large cell may lack one: it is built when a count first cuts the cell.
func auditCountTree(c *cell, dims int) error {
	n := len(c.pts)
	switch {
	case c.count != nil && n <= countTreeAt/2:
		return fmt.Errorf("audit: cell %v with %d points kept its counting subtree", c.coord.Render(dims), n)
	case c.count == nil:
		return nil
	}
	if c.count.Len() != n {
		return fmt.Errorf("audit: cell %v counting subtree holds %d points, cell %d", c.coord.Render(dims), c.count.Len(), n)
	}
	for _, p := range c.pts {
		if !c.count.Has(p.pt) {
			return fmt.Errorf("audit: point %d missing from its cell's counting subtree", p.id)
		}
	}
	return nil
}

// closestCorePairSq returns the squared distance of the closest core pair
// between two cells (brute force).
func (f *FullyDynamic) closestCorePairSq(c1, c2 *cell) float64 {
	best := -1.0
	for _, p := range c1.pts {
		if !p.core {
			continue
		}
		for _, q := range c2.pts {
			if !q.core {
				continue
			}
			if d := geom.DistSq(p.pt, q.pt, f.cfg.Dims); best < 0 || d < best {
				best = d
			}
		}
	}
	if best < 0 {
		return f.rUpSq * 1e6 // no pair
	}
	return best
}

// Audit validates the maintained state of a SemiDynamic clusterer: vicinity
// counts must be exact, core flags must match exact DBSCAN core semantics,
// and the grid-graph edges/union-find must satisfy the CC requirement.
func (s *SemiDynamic) Audit() error {
	minPts := s.cfg.MinPts
	for id, rec := range s.points {
		ball := 0
		for _, other := range s.points {
			if geom.DistSq(rec.pt, other.pt, s.cfg.Dims) <= s.epsSq {
				ball++
			}
		}
		if rec.core != (ball >= minPts) {
			return fmt.Errorf("audit: point %d core=%v but |B(ε)|=%d (MinPts=%d)", id, rec.core, ball, minPts)
		}
		if !rec.core && int(rec.vincnt) != ball {
			return fmt.Errorf("audit: point %d vincnt=%d but |B(ε)|=%d", id, rec.vincnt, ball)
		}
	}
	cells := make(map[*cell]struct{})
	for _, rec := range s.points {
		cells[rec.cell] = struct{}{}
	}
	for c := range cells {
		if err := auditCoreList(c, s.cfg.Dims); err != nil {
			return err
		}
		if err := auditNonCoreList(c, s.cfg.Dims); err != nil {
			return err
		}
		if (c.coreCount > 0) != (c.vertexID >= 0) {
			return fmt.Errorf("audit: cell %v uf status inconsistent", c.coord.Render(s.cfg.Dims))
		}
	}
	// Edge rules: ε-pairs between core cells force a same-set relation; any
	// recorded edge must be backed by a core pair within (1+ρ)ε.
	for c := range cells {
		if c.coreCount == 0 {
			continue
		}
		for _, ln := range c.neighbors {
			nc := ln.c
			if !ln.eps || nc.coreCount == 0 {
				continue
			}
			closest := s.closestCorePairSq(c, nc)
			if closest <= s.epsSq && !s.uf.Same(int(c.vertexID), int(nc.vertexID)) {
				return fmt.Errorf("audit: ε-close core pair but cells in different components")
			}
		}
		for nc := range c.edges {
			if s.closestCorePairSq(c, nc) > s.rUpSq*(1+1e-12) {
				return fmt.Errorf("audit: edge without a core pair within (1+ρ)ε")
			}
		}
	}
	return nil
}

func (s *SemiDynamic) closestCorePairSq(c1, c2 *cell) float64 {
	best := -1.0
	for _, p := range c1.pts {
		if !p.core {
			continue
		}
		for _, q := range c2.pts {
			if !q.core {
				continue
			}
			if d := geom.DistSq(p.pt, q.pt, s.cfg.Dims); best < 0 || d < best {
				best = d
			}
		}
	}
	if best < 0 {
		return s.rUpSq * 1e6
	}
	return best
}
