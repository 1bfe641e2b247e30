package core

import (
	"maps"
	"slices"

	"dyndbscan/internal/geom"
	"dyndbscan/internal/unionfind"
)

// IncDBSCAN is the incremental exact DBSCAN of Ester et al. [8], the
// state-of-the-art baseline the paper compares against (reviewed in
// Section 3). It maintains exact vicinity counts with one range query per
// update, keeps cluster ids through a "merging history" (a union-find over
// cluster ids, so merges never relabel points), and detects cluster splits
// on deletion with multiple threads of BFS over the core graph that are
// merged when they meet — the expensive part the paper's evaluation exposes.
//
// Range queries are served from the same grid the other algorithms use
// (scan of the ε-close cells), which is competitive with the R*-tree of the
// original paper at low dimensionality; the asymptotic behavior the
// evaluation studies (range-query cost per update, BFS cascades on
// deletion) is unchanged.
type IncDBSCAN struct {
	*base
	clusters *unionfind.UF
	// rootCluster maps a union-find root of the merging history to the
	// cluster's stable id; rootCores counts the cluster's core points so a
	// cluster that loses its last core can be reported as dissolved.
	rootCluster map[int]ClusterID
	rootCores   map[int]int
}

// NewIncDBSCAN returns an empty IncDBSCAN instance. Rho is ignored:
// IncDBSCAN computes exact DBSCAN clusters.
func NewIncDBSCAN(cfg Config) (*IncDBSCAN, error) {
	cfg.Rho = 0
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &IncDBSCAN{
		base:        newBase(cfg),
		clusters:    &unionfind.UF{},
		rootCluster: make(map[int]ClusterID),
		rootCores:   make(map[int]int),
	}, nil
}

// forEachWithin invokes fn on every live point within ε of q (the range
// query at the heart of IncDBSCAN), scanning c — the cell containing q —
// and its ε-close neighbors.
func (ic *IncDBSCAN) forEachWithin(q geom.Point, c *cell, fn func(*pointRec)) {
	scan := func(c2 *cell) {
		for _, p := range c2.pts {
			if geom.DistSq(p.Pt, q, ic.cfg.Dims) <= ic.epsSq {
				fn(p)
			}
		}
	}
	scan(c)
	for _, ln := range c.neighbors {
		if ln.eps {
			scan(ln.c)
		}
	}
}

// coresWithin collects the core points within ε of q — the range query
// ("seed points") issued on every update and BFS expansion.
func (ic *IncDBSCAN) coresWithin(q geom.Point, c *cell) []*pointRec {
	var out []*pointRec
	ic.forEachWithin(q, c, func(p *pointRec) {
		if p.isCore() {
			out = append(out, p)
		}
	})
	return out
}

// Insert adds a point, updating vicinity counts with a range pass and
// merging the clusters of the new core points' neighborhoods.
func (ic *IncDBSCAN) Insert(pt geom.Point) (PointID, error) {
	if err := checkPoint(pt, ic.cfg.Dims); err != nil {
		return 0, err
	}
	return ic.insertRec(ic.addPoint(pt)), nil
}

// insertRec runs the clustering maintenance for a freshly placed record —
// the commit phase shared by Insert and InsertStaged.
func (ic *IncDBSCAN) insertRec(rec *pointRec) PointID {
	rec.vincnt = 1 // itself
	var promoted []*pointRec
	ic.forEachWithin(rec.Pt, rec.cell, func(p *pointRec) {
		if p == rec {
			return
		}
		p.vincnt++
		rec.vincnt++
		if !p.isCore() && int(p.vincnt) >= ic.cfg.MinPts {
			promoted = append(promoted, p)
		}
	})
	if int(rec.vincnt) >= ic.cfg.MinPts {
		promoted = append(promoted, rec)
	}
	// Mark first so each promotion's range query sees the whole batch, then
	// assign ids and merge neighborhood clusters.
	for _, p := range promoted {
		ic.markCore(p)
		ic.fire(Event{Kind: EventPointBecameCore, Point: p.ID})
	}
	for _, p := range promoted {
		p.clusterElem = int32(ic.clusters.Add())
		for _, nb := range ic.coresWithin(p.Pt, p.cell) {
			if nb != p && nb.clusterElem >= 0 {
				ic.unionClusters(int(p.clusterElem), int(nb.clusterElem))
			}
		}
		// A stable id is assigned only once the promoted point's final set is
		// known: joining an existing cluster inherits that cluster's id (no
		// event); a set that is still unlabeled is a brand-new cluster.
		r := ic.clusters.Find(int(p.clusterElem))
		if _, ok := ic.rootCluster[r]; !ok {
			ic.rootCluster[r] = ic.newClusterID()
			ic.fire(Event{Kind: EventClusterFormed, Cluster: ic.rootCluster[r]})
		}
		ic.rootCores[r]++
	}
	return rec.ID
}

// unionClusters merges two entries of the merging history, combining core
// counts. When both sets already carry stable ids the merge is a genuine
// cluster merge: the older id survives and an event fires.
func (ic *IncDBSCAN) unionClusters(a, b int) {
	ra, rb := ic.clusters.Find(a), ic.clusters.Find(b)
	if ra == rb {
		return
	}
	ia, okA := ic.rootCluster[ra]
	ib, okB := ic.rootCluster[rb]
	cores := ic.rootCores[ra] + ic.rootCores[rb]
	delete(ic.rootCluster, ra)
	delete(ic.rootCluster, rb)
	delete(ic.rootCores, ra)
	delete(ic.rootCores, rb)
	ic.clusters.Union(ra, rb)
	r := ic.clusters.Find(ra)
	ic.rootCores[r] = cores
	switch {
	case okA && okB:
		survivor, absorbed := ia, ib
		if ib < ia {
			survivor, absorbed = ib, ia
		}
		ic.rootCluster[r] = survivor
		ic.fire(Event{Kind: EventClusterMerged, Cluster: survivor, Absorbed: absorbed})
	case okA:
		ic.rootCluster[r] = ia
	case okB:
		ic.rootCluster[r] = ib
	}
}

// dropCore retires one core point from its cluster's core count, dissolving
// the cluster when the last core is gone. p.clusterElem must still be set.
func (ic *IncDBSCAN) dropCore(p *pointRec) {
	r := ic.clusters.Find(int(p.clusterElem))
	ic.rootCores[r]--
	if ic.rootCores[r] == 0 {
		ic.fire(Event{Kind: EventClusterDissolved, Cluster: ic.rootCluster[r]})
		delete(ic.rootCluster, r)
		delete(ic.rootCores, r)
	}
}

// Delete removes a point. Demoted neighbors lose core status, and the
// multi-thread BFS of [8] decides whether (and how) the affected cluster
// splits, relabeling the smaller fragments.
func (ic *IncDBSCAN) Delete(id PointID) error {
	rec, ok := ic.points[id]
	if !ok {
		return ErrUnknownPoint
	}
	c := rec.cell

	// Reverse the vicinity-count contributions of rec.
	var demoted []*pointRec
	ic.forEachWithin(rec.Pt, c, func(p *pointRec) {
		if p == rec {
			return
		}
		p.vincnt--
		if p.isCore() && int(p.vincnt) < ic.cfg.MinPts {
			demoted = append(demoted, p)
		}
	})

	wasCore := rec.isCore()
	if wasCore {
		c.coreCount--
		ic.noteChange(c, c.coreCount == 0)
		ic.dropCore(rec)
	}
	ic.removePoint(rec)
	for _, p := range demoted {
		ic.dropCore(p)
		ic.markNonCore(p)
		p.clusterElem = -1
		ic.fire(Event{Kind: EventPointBecameNoise, Point: p.ID})
	}

	// Seed points: the current core points adjacent (in the core graph) to
	// the removed/demoted cores. Every fragment of a split contains a seed.
	// They are kept in discovery order, which the range queries fix, so
	// the split search runs the same way on every run.
	var seeds []*pointRec
	seen := make(map[*pointRec]struct{})
	addSeeds := func(nbs []*pointRec) {
		for _, nb := range nbs {
			if _, dup := seen[nb]; !dup {
				seen[nb] = struct{}{}
				seeds = append(seeds, nb)
			}
		}
	}
	if wasCore {
		addSeeds(ic.coresWithin(rec.Pt, c))
	}
	for _, p := range demoted {
		addSeeds(ic.coresWithin(p.Pt, p.cell))
	}
	if len(c.pts) == 0 {
		ic.destroyCell(c)
	}
	if len(seeds) > 1 {
		ic.splitBFS(seeds)
	}
	return nil
}

// splitBFS runs one BFS thread per seed over the core graph (adjacency
// fetched by range queries), merging threads that meet. If a single merged
// thread remains, no split happened; otherwise each completed thread has
// enumerated one fragment, and all but the largest get fresh cluster ids.
// Threads, fragments and clusters are walked in a fixed order (seed order,
// thread numbers, pre-delete roots), so the fragments that get fresh ids,
// and the ids they get, do not depend on map iteration.
func (ic *IncDBSCAN) splitBFS(seeds []*pointRec) {
	threads := unionfind.New(len(seeds))
	queues := make(map[int][]*pointRec, len(seeds)) // thread root -> frontier
	visited := make(map[*pointRec]int, len(seeds))  // point -> thread index
	for i, p := range seeds {
		visited[p] = i
		queues[i] = []*pointRec{p}
	}
	groups := len(seeds)

	merge := func(a, b int) {
		ra, rb := threads.Find(a), threads.Find(b)
		if ra == rb {
			return
		}
		threads.Union(ra, rb)
		r := threads.Find(ra)
		other := ra + rb - r
		queues[r] = append(queues[r], queues[other]...)
		delete(queues, other)
		groups--
	}

	// Round-robin one expansion per live thread, so small fragments finish
	// early and the final surviving thread can stop without exploring the
	// bulk of the cluster.
	roots := make([]int, len(seeds)) // live thread roots, ascending
	for i := range roots {
		roots[i] = i
	}
	var activeRoots []int
	for groups > 1 {
		activeRoots = activeRoots[:0]
		live := roots[:0]
		for _, r := range roots {
			if threads.Find(r) != r {
				continue // merged into another thread
			}
			live = append(live, r)
			if len(queues[r]) > 0 {
				activeRoots = append(activeRoots, r)
			}
		}
		roots = live
		if len(activeRoots) <= 1 {
			break // every other thread completed: fragments are final
		}
		for _, r := range activeRoots {
			if groups == 1 {
				return
			}
			q := queues[threads.Find(r)]
			if len(q) == 0 {
				continue
			}
			x := q[len(q)-1]
			queues[threads.Find(r)] = q[:len(q)-1]
			for _, nb := range ic.coresWithin(x.Pt, x.cell) {
				if prev, seen := visited[nb]; seen {
					merge(prev, visited[x])
					continue
				}
				visited[nb] = visited[x]
				rr := threads.Find(visited[x])
				queues[rr] = append(queues[rr], nb)
			}
		}
	}
	if groups == 1 {
		return // threads met: the cluster did not split
	}

	// Split confirmed: group visited points by surviving thread.
	type fragment struct {
		pts    []*pointRec
		active bool // enumeration incomplete (thread still had a frontier)
	}
	members := make(map[int][]*pointRec)
	for p, t := range visited {
		root := threads.Find(t)
		members[root] = append(members[root], p)
	}
	// Fragments are grouped by the cluster they came from: when the deleted
	// point was a border point, the seeds may belong to several distinct
	// clusters, and a cluster only split if two or more of its own fragments
	// separated. Fragments alone in their group are untouched clusters.
	byCluster := make(map[int][]*fragment) // pre-delete union-find root -> fragments
	for _, r := range slices.Sorted(maps.Keys(members)) {
		pts := members[r]
		orig := ic.clusters.Find(int(pts[0].clusterElem))
		byCluster[orig] = append(byCluster[orig], &fragment{pts: pts, active: len(queues[r]) > 0})
	}
	for _, orig := range slices.Sorted(maps.Keys(byCluster)) {
		frags := byCluster[orig]
		if len(frags) < 2 {
			continue
		}
		// One fragment keeps the old cluster id: a still-active fragment if
		// one exists (its enumeration is incomplete, so it must not be
		// relabeled), otherwise the largest, minimizing relabeling as in [8].
		keep := -1
		for i, f := range frags {
			if f.active {
				keep = i
				break
			}
		}
		if keep < 0 {
			best := -1
			for i, f := range frags {
				if len(f.pts) > best {
					best, keep = len(f.pts), i
				}
			}
		}
		oldID := ic.rootCluster[orig]
		fragments := []ClusterID{oldID}
		for i, f := range frags {
			if i == keep {
				continue
			}
			fresh := ic.clusters.Add()
			freshID := ic.newClusterID()
			ic.rootCluster[fresh] = freshID
			ic.rootCores[fresh] = len(f.pts)
			ic.rootCores[orig] -= len(f.pts)
			for _, p := range f.pts {
				p.clusterElem = int32(fresh)
			}
			fragments = append(fragments, freshID)
		}
		ic.fire(Event{Kind: EventClusterSplit, Cluster: oldID, Fragments: fragments})
	}
}

// stableIDOf returns the stable cluster id of a core point. It writes
// nothing (UF.Root), so queries may run concurrently.
func (ic *IncDBSCAN) stableIDOf(rec *pointRec) ClusterID {
	return ic.rootCluster[ic.clusters.Root(int(rec.clusterElem))]
}

// GroupBy answers a C-group-by query. Core points group by their stable
// (merged) cluster ids; border points fetch the clusters of the core points
// in their ε-ball with a range query, as in [8].
func (ic *IncDBSCAN) GroupBy(ids []PointID) (Result, error) {
	var res Result
	groups := make(map[ClusterID][]PointID)
	seen := make(map[PointID]struct{}, len(ids))
	for _, id := range ids {
		rec, ok := ic.points[id]
		if !ok {
			return Result{}, ErrUnknownPoint
		}
		// Q is a set: repeated handles contribute once.
		if _, dup := seen[id]; dup {
			continue
		}
		seen[id] = struct{}{}
		if rec.isCore() {
			key := ic.stableIDOf(rec)
			groups[key] = append(groups[key], id)
			continue
		}
		memberships := make(map[ClusterID]struct{})
		for _, nb := range ic.coresWithin(rec.Pt, rec.cell) {
			memberships[ic.stableIDOf(nb)] = struct{}{}
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

// ClusterOf returns the stable cluster ids the point currently belongs to
// (empty for a live noise point) and whether the point is live.
func (ic *IncDBSCAN) ClusterOf(id PointID) ([]ClusterID, bool) {
	rec, ok := ic.points[id]
	if !ok {
		return nil, false
	}
	if rec.isCore() {
		return []ClusterID{ic.stableIDOf(rec)}, true
	}
	var out []ClusterID
	for _, nb := range ic.coresWithin(rec.Pt, rec.cell) {
		out = append(out, ic.stableIDOf(nb))
	}
	return dedupClusterIDs(out), true
}

// Stats returns structural counters.
func (ic *IncDBSCAN) Stats() Stats { return ic.stats() }
