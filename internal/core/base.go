package core

import (
	"sort"

	"dyndbscan/internal/abcp"
	"dyndbscan/internal/geom"
	"dyndbscan/internal/grid"
	"dyndbscan/internal/quadtree"
)

// pointRec is the per-point state shared by all algorithms. It starts with
// the point's node in its cell's core list: Node.ID is the point's handle
// and Node.Pt its coordinates, and the cell-based algorithms link the node
// into cell.coreList exactly while the point is core, so a core point costs
// no allocation beyond its record. A record is core exactly when ncIdx < 0.
// Fields that only one algorithm uses are documented as such; keeping them
// inline avoids a second map lookup on the hot update paths. The positions
// and the algorithm-only counters are int32 so that a record fits the
// 80-byte size class (TestPointRecSize).
type pointRec struct {
	abcp.Node
	cell  *cell
	idx   int32 // position in cell.pts
	ncIdx int32 // position in cell.nonCore while non-core; -1 while core

	vincnt      int32 // exact |B(p,ε)| (SemiDynamic: non-core only; IncDBSCAN: all points)
	clusterElem int32 // IncDBSCAN: union-find element of the cluster id; -1 if none
}

// isCore reports whether rec is a core point.
func (rec *pointRec) isCore() bool { return rec.ncIdx < 0 }

// neighborLink records one occupied cell within (1+ρ)ε box distance. eps
// marks the links within ε box distance — the "ε-close" cells of the paper;
// the wider ring is needed only by the fully-dynamic demotion sweep. Links
// come in twins, one in each cell's list, and rev is the position of this
// link's twin in c.neighbors. idle (FullyDynamic) marks a link whose aBCP
// instance holds no witness; twins agree on it. rev and idle fill what was
// padding.
type neighborLink struct {
	c    *cell
	rev  int32
	eps  bool
	idle bool
}

// cell is one occupied grid cell: its points, its core-point substructures,
// its ε-close neighborhood, and its grid-graph bookkeeping. The core-point
// substructures are allocated by the algorithm that uses them when the cell
// gains its first core point; IncDBSCAN uses none of them. The struct is
// pinned to the 160-byte size class (TestCellSize): fields one algorithm
// alone uses share a slot where they can.
type cell struct {
	coord grid.Coord
	pts   []*pointRec
	// nonCore lists the cell's current non-core residents, so status sweeps
	// cost O(candidates) instead of O(|pts|) — in a dense cell of thousands
	// of points a sweep would otherwise rescan everything whenever a single
	// resident (such as a freshly inserted, not-yet-promoted point) is
	// non-core.
	nonCore []*pointRec

	// coreCount and chg share the word one int took, so the cell keeps its
	// allocation size class.
	coreCount int32
	chg       int32          // position + 1 in the base's change record; 0 while unrecorded
	coreList  *abcp.List     // insertion-ordered core points and their emptiness structure; nil while none
	count     *quadtree.Tree // FullyDynamic: counting subtree over pts, built when a count first cuts the large cell; see countTreeAt

	neighbors []neighborLink

	edges map[*cell]struct{} // SemiDynamic: adjacent core cells in G
	// vertexID is the cell's grid-graph vertex while it is core, -1
	// otherwise: the CC vertex (FullyDynamic) or the union-find element
	// (SemiDynamic). One slot serves both to keep the size class.
	vertexID  int64
	instances map[*cell]*abcp.Instance // FullyDynamic: aBCP per ε-close core cell
	cluster   ClusterID                // FullyDynamic: stable cluster id while core; -1 otherwise
}

// put sets (*m)[k] = v, allocating the map on first use.
func put[V any](m *map[*cell]V, k *cell, v V) {
	if *m == nil {
		*m = make(map[*cell]V)
	}
	(*m)[k] = v
}

// base is the shared machinery of Section 4: the grid, the occupied-cell
// index and the point table.
type base struct {
	cfg    Config
	geo    grid.Params
	idx    *grid.Index[*cell]
	points map[PointID]*pointRec
	nextID PointID

	rUp   float64 // (1+ρ)ε
	epsSq float64
	rUpSq float64

	emit        func(Event) // optional event sink; see SetEventFunc
	nextCluster ClusterID   // next stable cluster identity

	// changes records the cells the updates since the last TakeChanges
	// touched, each marked when its core count crossed zero; see changes.go.
	changes []cellChange
}

func newBase(cfg Config) *base {
	geo := grid.NewParams(cfg.Dims, cfg.Eps)
	rUp := cfg.Eps * (1 + cfg.Rho)
	return &base{
		cfg:    cfg,
		geo:    geo,
		idx:    grid.NewIndex[*cell](geo),
		points: make(map[PointID]*pointRec),
		rUp:    rUp,
		epsSq:  cfg.Eps * cfg.Eps,
		rUpSq:  rUp * rUp,
	}
}

// Len returns the number of points currently stored.
func (b *base) Len() int { return len(b.points) }

// Config returns the clusterer's configuration.
func (b *base) Config() Config { return b.cfg }

// IDs returns all live point ids (in no particular order). It is provided so
// callers can issue the degenerate C-group-by query with Q = P.
func (b *base) IDs() []PointID {
	out := make([]PointID, 0, len(b.points))
	for id := range b.points {
		out = append(out, id)
	}
	return out
}

// Has reports whether the point id is live.
func (b *base) Has(id PointID) bool {
	_, ok := b.points[id]
	return ok
}

// cellFor returns the occupied cell containing pt, creating it (and wiring
// its neighborhood through one occupied-cell index query) on first use.
func (b *base) cellFor(pt geom.Point) *cell {
	return b.cellAt(b.geo.CellOf(pt))
}

// cellAt is cellFor with the coordinate already computed (by the grid, or by
// a Stager during a pipelined batch's pre-commit phase).
func (b *base) cellAt(coord grid.Coord) *cell {
	if c, ok := b.idx.Get(coord); ok {
		return c
	}
	c := &cell{coord: coord, vertexID: -1, cluster: -1}
	b.idx.QueryClose(coord, b.rUp, func(oc grid.Coord, other *cell) bool {
		eps := b.geo.EpsClose(coord, oc)
		c.neighbors = append(c.neighbors, neighborLink{c: other, rev: int32(len(other.neighbors)), eps: eps})
		other.neighbors = append(other.neighbors, neighborLink{c: c, rev: int32(len(c.neighbors) - 1), eps: eps})
		return true
	})
	b.idx.Insert(coord, c)
	return c
}

// destroyCell removes an emptied cell from the grid and unlinks it from its
// neighbors. The caller must have cleared all core state first.
func (b *base) destroyCell(c *cell) {
	if len(c.pts) != 0 || c.coreCount != 0 {
		panic("core: destroying non-empty cell")
	}
	for _, ln := range c.neighbors {
		// Move nb's last link into the twin's slot and repoint its own twin.
		nb := ln.c
		last := len(nb.neighbors) - 1
		moved := nb.neighbors[last]
		nb.neighbors[ln.rev] = moved
		moved.c.neighbors[moved.rev].rev = ln.rev
		nb.neighbors = nb.neighbors[:last]
	}
	c.neighbors = nil
	b.idx.Delete(c.coord)
}

// addPoint allocates a record for pt under the next minted handle, places
// it in its cell (initially non-core), and registers it in the point table.
func (b *base) addPoint(pt geom.Point) *pointRec {
	p := pt[:b.cfg.Dims].Clone()
	return b.placePoint(p, b.geo.CellOf(p), b.nextID)
}

// placePoint is addPoint for a point whose pre-commit work (validation,
// cloning, cell assignment) already happened and whose handle is given:
// pt must be an owned, dims-length slice, coord its cell under b.geo, and
// id not live. The mint counter is lifted past id.
func (b *base) placePoint(pt geom.Point, coord grid.Coord, id PointID) *pointRec {
	rec := &pointRec{
		Node:        abcp.Node{ID: id, Pt: pt},
		clusterElem: -1,
	}
	if id >= b.nextID {
		b.nextID = id + 1
	}
	c := b.cellAt(coord)
	b.noteChange(c, false)
	rec.cell = c
	rec.idx = int32(len(c.pts))
	c.pts = append(c.pts, rec)
	rec.ncIdx = int32(len(c.nonCore))
	c.nonCore = append(c.nonCore, rec)
	b.points[rec.ID] = rec
	return rec
}

// markCore flips rec to core status, removing it from its cell's non-core
// list. The caller updates algorithm-specific core structures.
func (b *base) markCore(rec *pointRec) {
	if rec.isCore() {
		panic("core: markCore on core point")
	}
	c := rec.cell
	last := len(c.nonCore) - 1
	c.nonCore[rec.ncIdx] = c.nonCore[last]
	c.nonCore[rec.ncIdx].ncIdx = rec.ncIdx
	c.nonCore = c.nonCore[:last]
	rec.ncIdx = -1
	c.coreCount++
	b.noteChange(c, c.coreCount == 1)
}

// markNonCore flips rec back to non-core status.
func (b *base) markNonCore(rec *pointRec) {
	if !rec.isCore() {
		panic("core: markNonCore on non-core point")
	}
	c := rec.cell
	rec.ncIdx = int32(len(c.nonCore))
	c.nonCore = append(c.nonCore, rec)
	c.coreCount--
	b.noteChange(c, c.coreCount == 0)
}

// removePoint detaches rec from its cell (swap-delete) and the point table.
// The caller is responsible for core-state teardown and cell destruction.
func (b *base) removePoint(rec *pointRec) {
	c := rec.cell
	b.noteChange(c, false)
	last := len(c.pts) - 1
	c.pts[rec.idx] = c.pts[last]
	c.pts[rec.idx].idx = rec.idx
	c.pts = c.pts[:last]
	if !rec.isCore() {
		lastNC := len(c.nonCore) - 1
		c.nonCore[rec.ncIdx] = c.nonCore[lastNC]
		c.nonCore[rec.ncIdx].ncIdx = rec.ncIdx
		c.nonCore = c.nonCore[:lastNC]
	}
	delete(b.points, rec.ID)
	rec.cell = nil
}

// groupBy is the shared C-group-by query algorithm of Section 4.2. compID
// must return a comparable component identifier for a core cell, stable for
// the duration of this call.
func (b *base) groupBy(ids []PointID, compID func(*cell) any) (Result, error) {
	var res Result
	groups := make(map[any][]PointID)
	seen := make(map[PointID]struct{}, len(ids))
	for _, id := range ids {
		rec, ok := b.points[id]
		if !ok {
			return Result{}, ErrUnknownPoint
		}
		// Q is a set: repeated handles contribute once.
		if _, dup := seen[id]; dup {
			continue
		}
		seen[id] = struct{}{}
		if rec.isCore() {
			key := compID(rec.cell)
			groups[key] = append(groups[key], id)
			continue
		}
		// Non-core point: snap to the ε-close core cells. Its own cell, if
		// core, always qualifies (same-cell points are within ε).
		memberships := make(map[any]struct{})
		c := rec.cell
		if c.coreCount > 0 {
			memberships[compID(c)] = struct{}{}
		}
		for _, ln := range c.neighbors {
			if !ln.eps || ln.c.coreCount == 0 {
				continue
			}
			if _, ok := ln.c.coreList.Probe(rec.Pt); ok {
				memberships[compID(ln.c)] = struct{}{}
			}
		}
		if len(memberships) == 0 {
			res.Noise = append(res.Noise, id)
			continue
		}
		for key := range memberships {
			groups[key] = append(groups[key], id)
		}
	}
	for _, members := range groups {
		res.Groups = append(res.Groups, members)
	}
	res.Normalize()
	return res, nil
}

// clusterOf resolves the stable cluster memberships of one point for the
// cell-based algorithms. cid must return the stable cluster id of a core
// cell. A live noise point yields (nil, true); an unknown id yields
// (nil, false). Border points may belong to several clusters; the returned
// ids are sorted.
func (b *base) clusterOf(id PointID, cid func(*cell) ClusterID) ([]ClusterID, bool) {
	rec, ok := b.points[id]
	if !ok {
		return nil, false
	}
	if rec.isCore() {
		return []ClusterID{cid(rec.cell)}, true
	}
	var out []ClusterID
	c := rec.cell
	if c.coreCount > 0 {
		out = append(out, cid(c))
	}
	for _, ln := range c.neighbors {
		if !ln.eps || ln.c.coreCount == 0 {
			continue
		}
		if _, ok := ln.c.coreList.Probe(rec.Pt); ok {
			out = append(out, cid(ln.c))
		}
	}
	return dedupClusterIDs(out), true
}

// dedupClusterIDs sorts ids and removes duplicates in place.
func dedupClusterIDs(ids []ClusterID) []ClusterID {
	if len(ids) < 2 {
		return ids
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	w := 1
	for i := 1; i < len(ids); i++ {
		if ids[i] != ids[w-1] {
			ids[w] = ids[i]
			w++
		}
	}
	return ids[:w]
}

// Stats is a snapshot of structural counters, useful for observability in
// examples and benchmarks.
type Stats struct {
	Points    int
	Cells     int
	CoreCells int
	Cores     int
}

// stats walks the occupied cells once: O(cells), no allocation.
func (b *base) stats() Stats {
	st := Stats{Points: len(b.points), Cells: b.idx.Len()}
	b.idx.ForEach(func(_ grid.Coord, c *cell) bool {
		if c.coreCount > 0 {
			st.CoreCells++
			st.Cores += int(c.coreCount)
		}
		return true
	})
	return st
}
