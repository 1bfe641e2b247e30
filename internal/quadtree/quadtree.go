// Package quadtree implements a d-dimensional counting bucket quadtree (a
// 2^d-ary PR tree) with subtree counts, rooted at a fixed cube. It is the
// counting subtree of one large grid cell in the fully-dynamic core-status
// structure of Section 7.3 (where the paper plugs in Mount & Park [16]): the
// cell's points are stored under the cell's own box, and Accumulate adds to
// a running count k across cells with
//
//	|B(q, rLow) ∩ S| ≤ k ≤ |B(q, rHigh) ∩ S|
//
// for the tree's point set S. With rLow = ε and rHigh = (1+ρ)ε, summed over
// the ε-close cells of a point, that is exactly the count the fully-dynamic
// core-status test needs under ρ-double-approximate semantics. With
// rLow = rHigh the count is exact. The clusterer builds a cell's tree in
// one pass with Build the first time a count cuts the large cell, and keeps
// it up to date with Insert and Delete from then on.
//
// Children are stored sparsely (a small slice) because 2^d reaches 128 at
// d = 7 and most internal nodes have very few live children. A leaf holds
// the caller's point slices themselves; points are told apart by identity,
// not by value, so coincident points are fine.
package quadtree

import (
	"math"

	"dyndbscan/internal/geom"
)

const (
	bucketCap = 16 // leaf capacity before splitting
	maxDepth  = 48 // beyond this depth leaves grow unbounded (co-located points)
)

// Tree is a dynamic counting quadtree over a fixed cube. Create with New.
type Tree struct {
	dims int
	lo   [geom.MaxDims]float64 // root cube lower corner
	side float64               // root cube side length
	root qnode
}

type childRef struct {
	idx uint8 // bit i set = upper half of dimension i
	n   *qnode
}

type qnode struct {
	count    int
	children []childRef   // internal node
	pts      []geom.Point // leaf bucket
	leaf     bool
}

// New returns an empty tree over the cube with lower corner lo and side
// length side in R^dims. Every point inserted must lie in the closed cube.
func New(dims int, lo geom.Point, side float64) *Tree {
	t := &Tree{dims: dims, side: side, root: qnode{leaf: true}}
	copy(t.lo[:dims], lo)
	return t
}

// Len returns the number of points stored.
func (t *Tree) Len() int { return t.root.count }

// Build returns a tree over the cube with lower corner lo and side length
// side in R^dims holding pts, each of which must lie in the closed cube; it
// panics otherwise. It partitions the points by orthant, one level at a
// time, into the tree that inserting them one by one would give (up to the
// order of children and of leaf points), without the intermediate leaf
// splits. The tree keeps pts and its elements: the caller must not use the
// slice afterwards, nor mutate the points while they are stored.
func Build(dims int, lo geom.Point, side float64, pts []geom.Point) *Tree {
	t := New(dims, lo, side)
	for _, p := range pts {
		t.mustContain(p)
	}
	t.build(&t.root, pts, t.lo, t.side, 0)
	return t
}

// build makes n the subtree over pts in the cube (lo, side) at depth. A leaf
// keeps a full-capacity subslice of pts, so its later appends reallocate
// instead of running into a neighbour's points.
func (t *Tree) build(n *qnode, pts []geom.Point, lo [geom.MaxDims]float64, side float64, depth int) {
	n.count = len(pts)
	if len(pts) <= bucketCap || depth >= maxDepth {
		n.leaf, n.pts = true, pts[:len(pts):len(pts)]
		return
	}
	n.leaf = false
	half := side / 2
	// Partition pts in place by orthant (American flag sort): end[k] is
	// the end of orthant k's run, next[k] its first unplaced position.
	var next, end [1 << geom.MaxDims]int32
	for _, p := range pts {
		end[t.childIdx(p, lo, half)]++
	}
	kids, at := 0, int32(0)
	for k := 0; k < 1<<t.dims; k++ {
		if end[k] > 0 {
			kids++
		}
		next[k] = at
		at += end[k]
		end[k] = at
	}
	for k := 0; k < 1<<t.dims; k++ {
		for next[k] < end[k] {
			j := t.childIdx(pts[next[k]], lo, half)
			if int(j) == k {
				next[k]++
				continue
			}
			pts[next[k]], pts[next[j]] = pts[next[j]], pts[next[k]]
			next[j]++
		}
	}
	nodes := make([]qnode, kids)
	n.children = make([]childRef, 0, kids)
	start := int32(0)
	for k := 0; k < 1<<t.dims; k++ {
		if end[k] == start {
			continue
		}
		ch := &nodes[len(n.children)]
		n.children = append(n.children, childRef{idx: uint8(k), n: ch})
		t.build(ch, pts[start:end[k]], t.childLo(lo, half, uint8(k)), half, depth+1)
		start = end[k]
	}
}

// Insert adds pt, which must lie in the root cube; it panics otherwise. The
// tree keeps pt itself, and Delete and Has find it by identity, so the
// caller must not mutate it while it is stored.
func (t *Tree) Insert(pt geom.Point) {
	t.mustContain(pt)
	t.insertAt(&t.root, pt, t.lo, t.side, 0)
}

// mustContain panics unless pt lies in the closed root cube.
func (t *Tree) mustContain(pt geom.Point) {
	for i := 0; i < t.dims; i++ {
		if !(pt[i] >= t.lo[i] && pt[i] <= t.lo[i]+t.side) {
			panic("quadtree: point outside the root cube")
		}
	}
}

// Delete removes the point slice pt, as given to Insert. It panics when pt
// is not stored: the clustering layers own their bookkeeping and an absent
// point indicates a bug there.
func (t *Tree) Delete(pt geom.Point) {
	if !t.deleteAt(&t.root, pt, t.lo, t.side) {
		panic("quadtree: delete of unknown point")
	}
}

// Has reports whether the point slice pt, as given to Insert, is stored.
func (t *Tree) Has(pt geom.Point) bool {
	n, lo, side := &t.root, t.lo, t.side
	for !n.leaf {
		half := side / 2
		idx := t.childIdx(pt, lo, half)
		n = n.child(idx)
		if n == nil {
			return false
		}
		lo, side = t.childLo(lo, half, idx), half
	}
	return n.find(pt) >= 0
}

// Accumulate adds to *acc a count k of the stored points with
// |B(q,rLow)| ≤ k ≤ |B(q,rHigh)|, stopping as soon as *acc reaches
// threshold, and reports whether it did. rLow must be ≤ rHigh. The running
// count lets a caller sum one ball count over several trees (and plain
// point scans) with one early exit.
//
// A subtree box lying entirely inside B(q,rHigh) contributes its whole
// count at once, and one lying entirely outside B(q,rLow) is skipped, so a
// query point next to a dense cluster resolves in a handful of node visits
// even when the cluster straddles the thin [rLow, rHigh] shell.
func (t *Tree) Accumulate(q geom.Point, rLow, rHigh float64, threshold int, acc *int) bool {
	if *acc >= threshold {
		return true
	}
	return t.accumulate(&t.root, q, rLow*rLow, rHigh*rHigh, t.lo, t.side, threshold, acc)
}

func (t *Tree) accumulate(n *qnode, q geom.Point, lowSq, highSq float64, lo [geom.MaxDims]float64, side float64, threshold int, acc *int) bool {
	if n.count == 0 {
		return false
	}
	minSq, maxSq := t.boxDistSq(q, lo, side)
	if minSq > lowSq {
		return false // no mandatory points inside: sound to skip
	}
	if maxSq <= highSq {
		*acc += n.count
		return *acc >= threshold
	}
	if n.leaf {
		for _, p := range n.pts {
			// Counting up to rHigh is legal on both sides of the band and
			// reaches the threshold sooner.
			if geom.DistSq(q, p, t.dims) <= highSq {
				*acc++
				if *acc >= threshold {
					return true
				}
			}
		}
		return false
	}
	half := side / 2
	for _, ch := range n.children {
		if t.accumulate(ch.n, q, lowSq, highSq, t.childLo(lo, half, ch.idx), half, threshold, acc) {
			return true
		}
	}
	return false
}

// boxDistSq returns the squared min and max distances from q to the cube with
// lower corner lo and side length side.
func (t *Tree) boxDistSq(q geom.Point, lo [geom.MaxDims]float64, side float64) (minSq, maxSq float64) {
	for i := 0; i < t.dims; i++ {
		hi := lo[i] + side
		var dMin float64
		switch {
		case q[i] < lo[i]:
			dMin = lo[i] - q[i]
		case q[i] > hi:
			dMin = q[i] - hi
		}
		dMax := math.Max(math.Abs(q[i]-lo[i]), math.Abs(hi-q[i]))
		minSq += dMin * dMin
		maxSq += dMax * dMax
	}
	return minSq, maxSq
}

func (t *Tree) childLo(lo [geom.MaxDims]float64, half float64, idx uint8) [geom.MaxDims]float64 {
	out := lo
	for i := 0; i < t.dims; i++ {
		if idx&(1<<uint(i)) != 0 {
			out[i] += half
		}
	}
	return out
}

func (t *Tree) childIdx(pt geom.Point, lo [geom.MaxDims]float64, half float64) uint8 {
	var idx uint8
	for i := 0; i < t.dims; i++ {
		if pt[i] >= lo[i]+half {
			idx |= 1 << uint(i)
		}
	}
	return idx
}

// child returns the child in orthant idx, or nil.
func (n *qnode) child(idx uint8) *qnode {
	for _, ch := range n.children {
		if ch.idx == idx {
			return ch.n
		}
	}
	return nil
}

// find returns the position of the point slice pt in the leaf, or -1.
func (n *qnode) find(pt geom.Point) int {
	for i, p := range n.pts {
		if &p[0] == &pt[0] {
			return i
		}
	}
	return -1
}

func (t *Tree) insertAt(n *qnode, pt geom.Point, lo [geom.MaxDims]float64, side float64, depth int) {
	n.count++
	if n.leaf {
		n.pts = append(n.pts, pt)
		if len(n.pts) > bucketCap && depth < maxDepth {
			t.splitLeaf(n, lo, side, depth)
		}
		return
	}
	half := side / 2
	idx := t.childIdx(pt, lo, half)
	child := n.child(idx)
	if child == nil {
		child = &qnode{leaf: true}
		n.children = append(n.children, childRef{idx: idx, n: child})
	}
	t.insertAt(child, pt, t.childLo(lo, half, idx), half, depth+1)
}

func (t *Tree) splitLeaf(n *qnode, lo [geom.MaxDims]float64, side float64, depth int) {
	pts := n.pts
	n.pts = nil
	n.leaf = false
	n.count = 0
	for _, p := range pts {
		t.insertAt(n, p, lo, side, depth)
	}
}

func (t *Tree) deleteAt(n *qnode, pt geom.Point, lo [geom.MaxDims]float64, side float64) bool {
	if n.leaf {
		i := n.find(pt)
		if i < 0 {
			return false
		}
		last := len(n.pts) - 1
		n.pts[i] = n.pts[last]
		n.pts[last] = nil
		n.pts = n.pts[:last]
		n.count--
		return true
	}
	half := side / 2
	idx := t.childIdx(pt, lo, half)
	for i, ch := range n.children {
		if ch.idx != idx {
			continue
		}
		if !t.deleteAt(ch.n, pt, t.childLo(lo, half, idx), half) {
			return false
		}
		n.count--
		if ch.n.count == 0 {
			n.children[i] = n.children[len(n.children)-1]
			n.children = n.children[:len(n.children)-1]
		}
		if n.count <= bucketCap/2 {
			t.collapse(n)
		}
		return true
	}
	return false
}

// collapse turns a small internal node back into a leaf to keep the tree
// compact under deletions.
func (t *Tree) collapse(n *qnode) {
	pts := make([]geom.Point, 0, n.count)
	var gather func(m *qnode)
	gather = func(m *qnode) {
		if m.leaf {
			pts = append(pts, m.pts...)
			return
		}
		for _, ch := range m.children {
			gather(ch.n)
		}
	}
	gather(n)
	n.leaf = true
	n.children = nil
	n.pts = pts
	n.count = len(pts)
}
