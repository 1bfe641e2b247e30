package core

import (
	"math"
	"slices"

	"dyndbscan/internal/abcp"
	"dyndbscan/internal/dyncon"
	"dyndbscan/internal/geom"
	"dyndbscan/internal/grid"
	"dyndbscan/internal/quadtree"
)

// FullyDynamic is the fully dynamic ρ-double-approximate DBSCAN clusterer of
// Section 7 (Theorem 4): Õ(1) amortized insertions AND deletions, Õ(|Q|)
// C-group-by queries, any fixed dimensionality. With ρ = 0 and d = 2 it is
// the paper's exact 2d-Full-Exact configuration.
//
// The three framework components are instantiated as:
//
//   - core status (Section 7.3): relaxed core semantics decided by an
//     approximate range count k ∈ [|B(p,ε)|, |B(p,(1+ρ)ε)|] summed over p's
//     cell and its ε-close cells, the only cells that can hold points of
//     B(p,ε). A cell of more than countTreeAt points that the ball cuts
//     is counted through a counting quadtree over its own box (cell.count),
//     built the first time such a count reads the cell, so a dense cell is
//     counted in a few node visits; smaller cells are scanned. Points in
//     dense cells short-circuit to core, so a cell that no count cuts never
//     pays for a tree.
//   - grid-graph edges (Sections 7.1–7.2): one aBCP instance per ε-close
//     pair of core cells; an edge exists exactly while the instance holds a
//     witness pair. This is what eliminates IncDBSCAN's deletion-time BFS.
//     A new core point joins every instance's de-listing suffix just by
//     being appended to its cell's core list, so only witness-less
//     instances need telling: the neighbour links of such a pair are
//     marked idle in both cells, and a promotion notifies no other. The
//     core list is also the cell's emptiness structure: instances probe
//     the opposite cell's list, which scans the chunks of 16 points whose
//     bounding box lies within ε of the query.
//   - CC structure: Holm–de Lichtenberg–Thorup fully dynamic connectivity.
//
// Two deviations from the paper, both listed under "Deviations from the
// paper" in the README: the emptiness structure is that chunked scan, at
// a worst case of O(|S(c)|) per probe, and the demotion sweep after a
// deletion visits sparse cells within (1+ρ)ε — not just ε — of the deleted
// point, because a stored core point must keep |B(p,(1+ρ)ε)| ≥ MinPts to
// remain a legal ρ-double-approximate core point.
//
// The grid-graph updates one point update triggers run in cell-coordinate
// order, so the same update stream always produces the same cluster ids
// and events.
type FullyDynamic struct {
	*base
	cc         *dyncon.Conn
	nextVertex int64
	// cellOfVertex maps grid-graph vertex ids back to their cells so that
	// merge/split relabeling can walk a connected component. Every cell of a
	// component carries the component's stable cluster id (cell.cluster);
	// a merge relabels the smaller side, a split relabels the smaller
	// fragment with a fresh id, so identity survives all other updates.
	cellOfVertex map[int64]*cell
	// flips is a reused buffer for the cells whose edge to the updated
	// cell appeared or vanished, sorted by coordinate before the edges are
	// applied.
	flips []*cell
}

// Counting-subtree hysteresis: a cell builds its counting quadtree when a
// count first cuts it while it holds more than countTreeAt points, keeps it
// up to date from then on, and drops it when it falls to countTreeAt/2, so
// a cell hovering at the threshold does not rebuild on every update. Below
// the threshold a partially covered cell is scanned point by point, which
// is cheaper than a tree walk at that size. Each point enters a given tree
// once, by the build or by its own insert, and a rebuild after a drop
// needs more than countTreeAt/2 inserts since the drop, so a cell's tree
// upkeep stays Õ(1) amortized per update.
const countTreeAt = 32

// cubePad widens a cell's box, relative to the cell side, into the cube its
// counting subtree is rooted at and its box tests use. The grid assigns a
// point to a cell by floor division, whose rounding can place the point a
// few ulps of its coordinate outside the cell box. For every cell
// coordinate an int32 can hold, that is less than 1e-6 of the side, so the
// padded cube holds every point of its cell, and whole-cube counts and
// skips stay sound.
const cubePad = 1e-5

// NewFullyDynamic returns an empty fully-dynamic clusterer.
func NewFullyDynamic(cfg Config) (*FullyDynamic, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &FullyDynamic{
		base:         newBase(cfg),
		cc:           dyncon.New(),
		cellOfVertex: make(map[int64]*cell),
	}, nil
}

// isCoreNow evaluates the relaxed core predicate of Section 6.2 against the
// current point set. Any answer it gives is legal for points in the
// don't-care band, and both transitions it drives (promote on ≥ MinPts,
// demote on < MinPts) preserve the stored-status legality invariants.
//
// It counts in the grid: every point of B(p,ε) lies in p's cell or in an
// ε-close cell. p's own cell counts whole (a cell's diagonal is ε); a
// neighbour cell is skipped when its box lies farther than ε from p, counts
// whole when its box lies within (1+ρ)ε, and is otherwise counted through
// its counting subtree or, while small, point by point. The count stops as
// soon as it reaches MinPts.
func (f *FullyDynamic) isCoreNow(rec *pointRec) bool {
	c := rec.cell
	acc := len(c.pts)
	if acc >= f.cfg.MinPts {
		return true // dense cell: |B(p,ε)| ≥ MinPts outright
	}
	for _, ln := range c.neighbors {
		if ln.eps && f.countCell(ln.c, rec.pt, &acc) {
			return true
		}
	}
	return false
}

// countCell adds to *acc a count of c's points between |B(q,ε) ∩ c| and
// |B(q,(1+ρ)ε) ∩ c| and reports whether *acc reached MinPts. A cut cell of
// more than countTreeAt points without a counting subtree builds one here;
// only the update paths count, under the writer's exclusive hold.
func (f *FullyDynamic) countCell(c *cell, q geom.Point, acc *int) bool {
	minSq, maxSq := f.cubeDistSq(q, c.coord)
	switch {
	case minSq > f.epsSq:
		return false
	case maxSq <= f.rUpSq:
		*acc += len(c.pts)
	case c.count != nil || len(c.pts) > countTreeAt:
		if c.count == nil {
			pts := make([]geom.Point, len(c.pts))
			for i, p := range c.pts {
				pts[i] = p.pt
			}
			lo, side := f.cellCube(c.coord)
			c.count = quadtree.Build(f.cfg.Dims, lo, side, pts)
		}
		return c.count.Accumulate(q, f.cfg.Eps, f.rUp, f.cfg.MinPts, acc)
	default:
		for _, p := range c.pts {
			// Counting up to (1+ρ)ε is legal on both sides of the band and
			// reaches MinPts sooner.
			if geom.DistSq(p.pt, q, f.cfg.Dims) <= f.rUpSq {
				*acc++
				if *acc >= f.cfg.MinPts {
					return true
				}
			}
		}
	}
	return *acc >= f.cfg.MinPts
}

// cellCube returns the cube c's counting subtree is rooted at: the cell box
// widened by cubePad of the side on every face.
func (f *FullyDynamic) cellCube(coord grid.Coord) (lo geom.Point, side float64) {
	pad := f.geo.Side * cubePad
	lo = make(geom.Point, f.cfg.Dims)
	for i := range lo {
		lo[i] = float64(coord[i])*f.geo.Side - pad
	}
	return lo, f.geo.Side + 2*pad
}

// cubeDistSq returns the squared min and max distances from q to the cube
// of the cell at coord (see cellCube).
func (f *FullyDynamic) cubeDistSq(q geom.Point, coord grid.Coord) (minSq, maxSq float64) {
	pad := f.geo.Side * cubePad
	for i := 0; i < f.cfg.Dims; i++ {
		lo := float64(coord[i])*f.geo.Side - pad
		hi := lo + f.geo.Side + 2*pad
		var dMin, dMax float64
		switch {
		case q[i] < lo:
			dMin, dMax = lo-q[i], hi-q[i]
		case q[i] > hi:
			dMin, dMax = q[i]-hi, q[i]-lo
		default:
			dMax = math.Max(q[i]-lo, hi-q[i])
		}
		minSq += dMin * dMin
		maxSq += dMax * dMax
	}
	return minSq, maxSq
}

// countInsert adds rec to its cell's counting subtree, if the cell has one;
// it builds none (see countCell).
func (f *FullyDynamic) countInsert(rec *pointRec) {
	if c := rec.cell; c.count != nil {
		c.count.Insert(rec.pt)
	}
}

// countDelete removes rec, still a resident, from its cell's counting
// subtree, dropping the subtree when the cell falls to countTreeAt/2.
func (f *FullyDynamic) countDelete(rec *pointRec) {
	c := rec.cell
	switch {
	case c.count == nil:
	case len(c.pts)-1 <= countTreeAt/2:
		c.count = nil
	default:
		c.count.Delete(rec.pt)
	}
}

// Insert adds a point in amortized Õ(1) time.
func (f *FullyDynamic) Insert(pt geom.Point) (PointID, error) {
	if err := checkPoint(pt, f.cfg.Dims); err != nil {
		return 0, err
	}
	return f.insertRec(f.addPoint(pt)), nil
}

// insertRec runs the clustering maintenance for a freshly placed record —
// the commit phase shared by Insert and InsertStaged.
func (f *FullyDynamic) insertRec(rec *pointRec) PointID {
	f.countInsert(rec)
	cnew := rec.cell

	if f.isCoreNow(rec) {
		f.promote(rec)
	}
	// Promotion sweep (Section 7.3): only non-core points within ε of the
	// new point can flip, and they live in ε-close cells. (An insertion can
	// never force a demotion.) Candidates are collected first because
	// promotion mutates the non-core lists under iteration; the promotion
	// predicate is count-based, so order does not matter.
	var promote []*pointRec
	sweep := func(c *cell) {
		for _, p := range c.nonCore {
			if p == rec {
				continue
			}
			if geom.DistSq(p.pt, rec.pt, f.cfg.Dims) > f.epsSq {
				continue
			}
			if f.isCoreNow(p) {
				promote = append(promote, p)
			}
		}
	}
	sweep(cnew)
	for _, ln := range cnew.neighbors {
		if ln.eps {
			sweep(ln.c)
		}
	}
	for _, p := range promote {
		f.promote(p)
	}
	return rec.id
}

// Delete removes a point in amortized Õ(1) time.
func (f *FullyDynamic) Delete(id PointID) error {
	rec, ok := f.points[id]
	if !ok {
		return ErrUnknownPoint
	}
	c := rec.cell
	if rec.core {
		f.retireCore(rec, true)
	}
	f.countDelete(rec)
	f.removePoint(rec)

	// Demotion sweep: stored core legality depends on |B(p,(1+ρ)ε)|, so the
	// sweep covers sparse cells within (1+ρ)ε (every neighbor link). Cells
	// that remain dense cannot demote. (A deletion can never force a
	// promotion.)
	sweep := func(c2 *cell) {
		if c2.coreCount == 0 || len(c2.pts) >= f.cfg.MinPts {
			return
		}
		for _, p := range c2.pts {
			if !p.core {
				continue
			}
			if geom.DistSq(p.pt, rec.pt, f.cfg.Dims) > f.rUpSq {
				continue
			}
			if !f.isCoreNow(p) {
				f.retireCore(p, false)
			}
		}
	}
	sweep(c)
	for _, ln := range c.neighbors {
		sweep(ln.c)
	}
	if len(c.pts) == 0 {
		f.destroyCell(c)
	}
	return nil
}

// promote is GUM for a point turning core (Section 7.4). If its cell was
// already a grid-graph vertex, appending the point to the cell's core list
// puts it in the de-listing suffix of every aBCP instance of the cell, and
// only the witness-less instances (idle links) are notified, since only they
// can gain an edge; otherwise the cell becomes a vertex and instances
// against all ε-close core cells are initialized.
func (f *FullyDynamic) promote(p *pointRec) {
	f.markCore(p)
	f.fire(Event{Kind: EventPointBecameCore, Point: p.id})
	c := p.cell
	if c.coreCount == 1 {
		c.coreList = abcp.NewList(f.cfg.Dims, f.cfg.Eps, f.rUp)
	}
	p.coreNode = c.coreList.Append(p.id, p.pt)

	if c.coreCount > 1 {
		flips := f.flips[:0]
		for i := range c.neighbors {
			ln := &c.neighbors[i]
			if !ln.idle {
				continue
			}
			inst := c.instances[ln.c]
			inst.NotifyInsert(inst.SideOf(c.coreList), p.coreNode)
			if inst.HasWitness() {
				c.setIdle(i, false)
				flips = append(flips, ln.c)
			}
		}
		for _, other := range f.sortFlips(flips) {
			f.connectCells(c, other)
		}
		return
	}
	// The cell just became a core cell: a new single-cell cluster is born,
	// then immediately merged with whatever it connects to.
	c.vertexID = f.nextVertex
	f.nextVertex++
	f.cc.AddVertex(c.vertexID)
	f.cellOfVertex[c.vertexID] = c
	c.cluster = f.newClusterID()
	f.fire(Event{Kind: EventClusterFormed, Cluster: c.cluster})
	for i, ln := range c.neighbors {
		nc := ln.c
		if !ln.eps || nc.coreCount == 0 {
			continue
		}
		inst := abcp.New(c.coreList, nc.coreList)
		put(&c.instances, nc, inst)
		put(&nc.instances, c, inst)
		if inst.HasWitness() {
			f.connectCells(c, nc)
		} else {
			c.setIdle(i, true)
		}
	}
}

// connectCells inserts the grid-graph edge {a,b}, and when that joins two
// components it relabels the smaller side (ties keep the older id) and
// reports the merge. Smaller-side relabeling keeps the total relabeling work
// logarithmic per cell over any insertion-only sequence; under mixed
// workloads an adversary that oscillates a bridge between two large
// components pays O(min component size) per flip — the unavoidable price of
// stable identities, since every flip genuinely merges or splits and any
// consumer of the ids must be told which cells moved. Real workloads churn
// at cluster boundaries where the smaller side is small.
func (f *FullyDynamic) connectCells(a, b *cell) {
	if f.cc.Connected(a.vertexID, b.vertexID) {
		f.cc.InsertEdge(a.vertexID, b.vertexID)
		return
	}
	sa, sb := f.cc.ComponentSize(a.vertexID), f.cc.ComponentSize(b.vertexID)
	winner, loser := a, b
	if sb > sa || (sb == sa && b.cluster < a.cluster) {
		winner, loser = b, a
	}
	survivor, absorbed := winner.cluster, loser.cluster
	f.relabelComponent(loser, survivor)
	f.cc.InsertEdge(a.vertexID, b.vertexID)
	f.fire(Event{Kind: EventClusterMerged, Cluster: survivor, Absorbed: absorbed})
}

// disconnectCells deletes the grid-graph edge {a,b}, and when the component
// falls apart it mints a fresh id for the smaller fragment (ties relabel a's
// side) and reports the split.
func (f *FullyDynamic) disconnectCells(a, b *cell) {
	f.cc.DeleteEdge(a.vertexID, b.vertexID)
	if f.cc.Connected(a.vertexID, b.vertexID) {
		return
	}
	old := a.cluster
	sa, sb := f.cc.ComponentSize(a.vertexID), f.cc.ComponentSize(b.vertexID)
	split := a
	if sb < sa {
		split = b
	}
	fresh := f.newClusterID()
	f.relabelComponent(split, fresh)
	f.fire(Event{Kind: EventClusterSplit, Cluster: old, Fragments: []ClusterID{old, fresh}})
}

// relabelComponent stamps id on every cell of c's component.
func (f *FullyDynamic) relabelComponent(c *cell, id ClusterID) {
	f.cc.ForEachInComponent(c.vertexID, func(v int64) bool {
		f.cellOfVertex[v].cluster = id
		return true
	})
}

// retireCore removes p from its cell's core structures — used both when p is
// demoted (deleted = false: the point stays live as a border/noise point)
// and when a core point is deleted outright (deleted = true). Witness
// transitions are translated into grid-graph edge removals; a cell whose
// last core point retires stops being a vertex.
//
// One pass over the cell's instances steps every de-listing marker off p
// while p's links are intact, and collects the instances p is a witness of:
// only those can lose their edge, so only they get PostDelete once p is
// unlinked. An instance left without a witness marks its links idle.
func (f *FullyDynamic) retireCore(p *pointRec, deleted bool) {
	c, n := p.cell, p.coreNode
	witnessed := f.flips[:0]
	for other, inst := range c.instances {
		inst.PreDelete(inst.SideOf(c.coreList), n)
		if a, b := inst.Witness(); a == n || b == n {
			witnessed = append(witnessed, other)
		}
	}
	c.coreList.Remove(n)
	flips := witnessed[:0]
	for _, other := range witnessed {
		inst := c.instances[other]
		inst.PostDelete(inst.SideOf(c.coreList), n)
		if !inst.HasWitness() {
			flips = append(flips, other)
		}
	}
	for _, other := range f.sortFlips(flips) {
		// A cell left with no core point drops its instances instead.
		if c.coreList.Len() > 0 {
			c.setIdle(c.linkTo(other), true)
		}
		f.disconnectCells(c, other)
	}
	p.coreNode = nil
	f.markNonCore(p)
	if !deleted {
		f.fire(Event{Kind: EventPointBecameNoise, Point: p.id})
	}
	if c.coreCount == 0 {
		f.unmakeCoreCell(c)
	}
}

// unmakeCoreCell destroys the aBCP instances and core structures of a cell
// that lost its last core point and removes its grid-graph vertex; the
// single-cell cluster the vertex had become dissolves with it. That last
// point was the witness of every instance on this side, so retireCore has
// already removed every edge of the vertex.
func (f *FullyDynamic) unmakeCoreCell(c *cell) {
	for i := range c.neighbors {
		if c.neighbors[i].idle {
			c.setIdle(i, false)
		}
	}
	for other := range c.instances {
		delete(other.instances, c)
	}
	c.instances, c.coreList = nil, nil
	f.fire(Event{Kind: EventClusterDissolved, Cluster: c.cluster})
	delete(f.cellOfVertex, c.vertexID)
	f.cc.RemoveVertex(c.vertexID)
	c.vertexID = -1
	c.cluster = -1
}

// sortFlips orders the cells whose edge to an updated cell flipped by
// coordinate, so that merges, splits and fresh cluster ids do not depend on
// map iteration order, and keeps the buffer for the next update.
func (f *FullyDynamic) sortFlips(flips []*cell) []*cell {
	slices.SortFunc(flips, func(a, b *cell) int { return slices.Compare(a.coord[:], b.coord[:]) })
	f.flips = flips
	return flips
}

// setIdle marks c's i-th neighbour link and its twin as leading to an aBCP
// instance without a witness (idle) or not.
func (c *cell) setIdle(i int, idle bool) {
	ln := &c.neighbors[i]
	ln.idle = idle
	ln.c.neighbors[ln.rev].idle = idle
}

// linkTo returns the position of nc in c.neighbors.
func (c *cell) linkTo(nc *cell) int {
	return slices.IndexFunc(c.neighbors, func(ln neighborLink) bool { return ln.c == nc })
}

// GroupBy answers a C-group-by query in Õ(|Q|) time. Groups are keyed by the
// stable cluster labels, which are in bijection with the connected components
// of the grid graph and need no tree traversal at query time.
func (f *FullyDynamic) GroupBy(ids []PointID) (Result, error) {
	return f.groupBy(ids, func(c *cell) any { return c.cluster })
}

// ClusterOf returns the stable cluster ids the point currently belongs to
// (empty for a live noise point) and whether the point is live.
func (f *FullyDynamic) ClusterOf(id PointID) ([]ClusterID, bool) {
	return f.clusterOf(id, func(c *cell) ClusterID { return c.cluster })
}

// Stats returns structural counters, including grid-graph size.
func (f *FullyDynamic) Stats() Stats { return f.stats() }

// GraphStats reports the current grid graph: vertices (core cells), edges,
// and connected components (clusters of core cells).
func (f *FullyDynamic) GraphStats() (vertices, edges, components int) {
	return f.cc.NumVertices(), f.cc.NumEdges(), f.cc.NumComponents()
}
