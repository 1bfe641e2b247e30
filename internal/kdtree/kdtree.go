// Package kdtree provides a dynamic kd-tree over points in R^d with integer
// payload ids. In the reproduction it instantiates the paper's per-cell
// "emptiness structure" (Section 4.2): the banded query Probe(q, rLow, rHigh)
// implements the 1/0/don't-care contract of the ρ-approximate ε-emptiness
// query — it is guaranteed to return a point when one lies within rLow of q,
// never returns a point farther than rHigh, and may answer either way in
// between. The paper plugs in the ANN structure of Arya et al. [2] (or Chan's
// exact structure in 2D); the banded kd-tree search satisfies the identical
// contract, with rLow = ε and rHigh = (1+ρ)ε, degenerating to an exact
// structure when ρ = 0. Exact nearest-neighbor queries are used by tests.
//
// Layout. The tree is bucketed: points live only in leaves, about leafSize
// (id, point) entries each, and internal nodes only route. A leaf that grows
// past 2·leafSize splits at the median of its widest axis; a leaf whose
// points all coincide cannot split and keeps growing. Every node stores
// exactly 2·dims bounds (the low corner, then the high corner, of a box
// containing its subtree). One map from id to leaf serves Has, the duplicate
// and unknown-id checks, and deletion.
//
// Loose bounds. Inserting widens the boxes along the insertion path; deleting
// removes the entry from its leaf and leaves every box as it was. A box is
// therefore always a superset of its subtree's points, possibly a loose one.
// Queries prune a subtree only when its box lies farther than rLow (Probe) or
// than the best distance so far (Nearest), so loose bounds cost pruning power
// and never correctness. There are no per-point tombstones: a deleted entry
// is gone at once. Once the updates since the last restore exceed half the
// live size the tree is restored: a refit in place tightens every box
// bottom-up, unlinks emptied leaves and merges sibling leaves that fit in
// one, without allocating. A tree grown more than about twice as deep as a
// balanced one (a sorted insertion order keeps splitting one flank) is
// rebuilt at medians instead. Either way a restore costs amortized O(log n)
// per update.
package kdtree

import (
	"math"
	"math/bits"

	"dyndbscan/internal/geom"
)

// leafSize is the largest leaf a rebuild or a merge produces; an insertion
// splits a leaf once it holds more than 2·leafSize points.
const leafSize = 16

// Tree is a dynamic kd-tree. The zero value is not usable; call New.
type Tree struct {
	dims   int
	root   *node
	leafOf map[int64]*node // the leaf holding each live id
	churn  int             // inserts and deletes since the last restore
}

// node is a leaf when left is nil; otherwise both children are set and a
// point is routed left when pt[axis] < split.
type node struct {
	box         []float64 // lo[0:dims] then hi[0:dims]; a superset of the subtree
	left, right *node
	axis        int
	split       float64
	ents        []entry // leaf only
}

type entry struct {
	id int64
	pt geom.Point
}

// New returns an empty tree over points in R^dims.
func New(dims int) *Tree {
	return &Tree{dims: dims, leafOf: make(map[int64]*node)}
}

// Len returns the number of live points.
func (t *Tree) Len() int { return len(t.leafOf) }

// Has reports whether id is present.
func (t *Tree) Has(id int64) bool {
	_, ok := t.leafOf[id]
	return ok
}

// Insert adds the point with the given id. Inserting an id that is already
// present panics: ids identify points and the caller owns their uniqueness.
// The tree keeps pt; the caller must not mutate it while the id is live.
func (t *Tree) Insert(id int64, pt geom.Point) {
	if _, ok := t.leafOf[id]; ok {
		panic("kdtree: duplicate id")
	}
	if t.root == nil {
		t.root = &node{box: t.pointBox(pt)}
	}
	n := t.root
	for {
		t.widen(n.box, pt)
		if n.left == nil {
			break
		}
		if pt[n.axis] < n.split {
			n = n.left
		} else {
			n = n.right
		}
	}
	n.ents = append(n.ents, entry{id: id, pt: pt})
	t.leafOf[id] = n
	if len(n.ents) > 2*leafSize && !t.degenerate(n.box) {
		// Tighten first: after deletes the box may be loose around points
		// that in fact coincide, which cannot be split.
		t.fit(n.box, n.ents)
		if !t.degenerate(n.box) {
			ents := n.ents
			n.ents = nil
			t.build(n, ents)
		}
	}
	t.churn++
	t.maybeRebuild()
}

// Delete removes the point with the given id; it panics if absent, which
// indicates a bookkeeping bug in the caller.
func (t *Tree) Delete(id int64) {
	leaf, ok := t.leafOf[id]
	if !ok {
		panic("kdtree: delete of unknown id")
	}
	delete(t.leafOf, id)
	last := len(leaf.ents) - 1
	for i := range leaf.ents {
		if leaf.ents[i].id == id {
			leaf.ents[i] = leaf.ents[last]
			break
		}
	}
	leaf.ents[last] = entry{} // drop the point reference
	leaf.ents = leaf.ents[:last]
	if len(t.leafOf) == 0 {
		t.root, t.churn = nil, 0
		return
	}
	t.churn++
	t.maybeRebuild()
}

// ForEach calls fn on every live (id, point) pair until fn returns false.
func (t *Tree) ForEach(fn func(id int64, pt geom.Point) bool) {
	if t.root != nil {
		forEach(t.root, fn)
	}
}

func forEach(n *node, fn func(int64, geom.Point) bool) bool {
	if n.left != nil {
		return forEach(n.left, fn) && forEach(n.right, fn)
	}
	for _, e := range n.ents {
		if !fn(e.id, e.pt) {
			return false
		}
	}
	return true
}

// Probe implements the banded emptiness query. It returns some point within
// rHigh of q if one lies within rLow of q; when no point lies within rLow it
// may return a point in the (rLow, rHigh] band or report absence — both are
// legal under the paper's don't-care semantics. It never returns a point
// farther than rHigh.
func (t *Tree) Probe(q geom.Point, rLow, rHigh float64) (int64, geom.Point, bool) {
	if t.root == nil {
		return 0, nil, false
	}
	if e := t.probe(t.root, q, rLow*rLow, rHigh*rHigh); e != nil {
		return e.id, e.pt, true
	}
	return 0, nil, false
}

// probe prunes by rLow (sound: only don't-care points can be skipped) and
// accepts by rHigh (the first point found within rHigh is returned).
func (t *Tree) probe(n *node, q geom.Point, lowSq, highSq float64) *entry {
	if t.boxDistSq(n.box, q) > lowSq {
		return nil
	}
	if n.left == nil {
		for i := range n.ents {
			if geom.DistSq(q, n.ents[i].pt, t.dims) <= highSq {
				return &n.ents[i]
			}
		}
		return nil
	}
	near, far := n.left, n.right
	if q[n.axis] >= n.split {
		near, far = far, near
	}
	if e := t.probe(near, q, lowSq, highSq); e != nil {
		return e
	}
	return t.probe(far, q, lowSq, highSq)
}

// Nearest returns the exact nearest live point to q, or ok=false when the
// tree is empty.
func (t *Tree) Nearest(q geom.Point) (int64, geom.Point, float64, bool) {
	if t.root == nil {
		return 0, nil, 0, false
	}
	var best *entry
	bestSq := math.Inf(1)
	t.nearest(t.root, q, &best, &bestSq)
	return best.id, best.pt, bestSq, true
}

func (t *Tree) nearest(n *node, q geom.Point, best **entry, bestSq *float64) {
	if t.boxDistSq(n.box, q) > *bestSq {
		return
	}
	if n.left == nil {
		for i := range n.ents {
			if d := geom.DistSq(q, n.ents[i].pt, t.dims); d < *bestSq {
				*best, *bestSq = &n.ents[i], d
			}
		}
		return
	}
	// Descend toward q first so bestSq shrinks quickly.
	near, far := n.left, n.right
	if q[n.axis] >= n.split {
		near, far = far, near
	}
	t.nearest(near, q, best, bestSq)
	t.nearest(far, q, best, bestSq)
}

// boxDistSq is the squared distance from q to the box (zero inside it).
func (t *Tree) boxDistSq(box []float64, q geom.Point) float64 {
	var s float64
	for i := 0; i < t.dims; i++ {
		if d := box[i] - q[i]; d > 0 {
			s += d * d
		} else if d := q[i] - box[t.dims+i]; d > 0 {
			s += d * d
		}
	}
	return s
}

// pointBox returns a fresh box holding exactly pt.
func (t *Tree) pointBox(pt geom.Point) []float64 {
	box := make([]float64, 2*t.dims)
	copy(box, pt[:t.dims])
	copy(box[t.dims:], pt[:t.dims])
	return box
}

// widen grows box to contain pt.
func (t *Tree) widen(box []float64, pt geom.Point) {
	for i := 0; i < t.dims; i++ {
		if pt[i] < box[i] {
			box[i] = pt[i]
		}
		if pt[i] > box[t.dims+i] {
			box[t.dims+i] = pt[i]
		}
	}
}

// fit shrinks box to the tight bounds of ents (at least one entry).
func (t *Tree) fit(box []float64, ents []entry) {
	copy(box, ents[0].pt[:t.dims])
	copy(box[t.dims:], ents[0].pt[:t.dims])
	for _, e := range ents[1:] {
		t.widen(box, e.pt)
	}
}

// widestAxis returns the axis along which box is widest.
func (t *Tree) widestAxis(box []float64) int {
	axis, width := 0, -1.0
	for i := 0; i < t.dims; i++ {
		if w := box[t.dims+i] - box[i]; w > width {
			axis, width = i, w
		}
	}
	return axis
}

// degenerate reports whether box is a single point, so the points inside it
// all coincide and no axis can separate them.
func (t *Tree) degenerate(box []float64) bool {
	for i := 0; i < t.dims; i++ {
		if box[t.dims+i] > box[i] {
			return false
		}
	}
	return true
}

// maybeRebuild restores the tree once the updates since the last restore
// exceed half the live size. Usually a refit in place suffices; only a tree
// grown too deep for its leaf count (an insertion order that keeps splitting
// one flank) is rebuilt from scratch at medians.
func (t *Tree) maybeRebuild() {
	if t.churn <= len(t.leafOf)/2+leafSize {
		return
	}
	t.churn = 0
	if leaves, depth := t.refit(&t.root); depth <= 2*bits.Len(uint(leaves))+2 {
		return
	}
	ents := make([]entry, 0, len(t.leafOf))
	t.ForEach(func(id int64, pt geom.Point) bool {
		ents = append(ents, entry{id: id, pt: pt})
		return true
	})
	t.root = &node{box: t.root.box}
	t.build(t.root, ents)
}

// refit tightens the boxes of the subtree at *link bottom-up, unlinks
// emptied leaves and merges sibling leaves that fit in one, without
// allocating or moving surviving leaves. It returns the subtree's leaf count
// and depth; an emptied leaf counts zero and its parent unlinks it.
func (t *Tree) refit(link **node) (leaves, depth int) {
	n := *link
	if n.left == nil {
		if len(n.ents) == 0 {
			return 0, 0
		}
		t.fit(n.box, n.ents)
		return 1, 1
	}
	ll, ld := t.refit(&n.left)
	rl, rd := t.refit(&n.right)
	l, r := n.left, n.right
	switch {
	case ll == 0:
		*link = r
		return rl, rd
	case rl == 0:
		*link = l
		return ll, ld
	case l.left == nil && r.left == nil && len(l.ents)+len(r.ents) <= leafSize:
		for _, e := range r.ents {
			t.leafOf[e.id] = l
		}
		l.ents = append(l.ents, r.ents...)
		t.union(l.box, r.box)
		*link = l
		return 1, 1
	}
	copy(n.box, l.box)
	t.union(n.box, r.box)
	return ll + rl, max(ld, rd) + 1
}

// union grows box to contain other.
func (t *Tree) union(box, other []float64) {
	for i := 0; i < t.dims; i++ {
		box[i] = math.Min(box[i], other[i])
		box[t.dims+i] = math.Max(box[t.dims+i], other[t.dims+i])
	}
}

// build turns n into the root of a balanced subtree over ents (non-empty),
// splitting at medians of the widest axis until leaves hold at most leafSize
// points, and leaves n.box tight. On entry n.box must contain ents; it only
// guides the choice of axis, so a loose box is fine. Each child starts from
// n.box clipped at the split, and boxes are tightened bottom-up, so a build
// reads each point's coordinates once beyond the median selections. The
// leaves get their own copies of their entries, so ents may be scratch space.
func (t *Tree) build(n *node, ents []entry) {
	if len(ents) <= leafSize || t.degenerate(n.box) {
		t.fit(n.box, ents)
		n.ents = append(make([]entry, 0, len(ents)), ents...)
		for _, e := range ents {
			t.leafOf[e.id] = n
		}
		return
	}
	d := t.dims
	n.axis = t.widestAxis(n.box)
	mid := len(ents) / 2
	selectKth(ents, mid, n.axis)
	n.split = ents[mid].pt[n.axis]
	n.left = &node{box: append(make([]float64, 0, 2*d), n.box...)}
	n.right = &node{box: append(make([]float64, 0, 2*d), n.box...)}
	n.left.box[d+n.axis] = n.split
	n.right.box[n.axis] = n.split
	t.build(n.left, ents[:mid])
	t.build(n.right, ents[mid:])
	copy(n.box, n.left.box)
	t.union(n.box, n.right.box)
}

// selectKth partially sorts ents so ents[k] is the k-th smallest on axis.
func selectKth(ents []entry, k, axis int) {
	lo, hi := 0, len(ents)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if ents[mid].pt[axis] < ents[lo].pt[axis] {
			ents[mid], ents[lo] = ents[lo], ents[mid]
		}
		if ents[hi].pt[axis] < ents[lo].pt[axis] {
			ents[hi], ents[lo] = ents[lo], ents[hi]
		}
		if ents[hi].pt[axis] < ents[mid].pt[axis] {
			ents[hi], ents[mid] = ents[mid], ents[hi]
		}
		pivot := ents[mid].pt[axis]
		i, j := lo, hi
		for i <= j {
			for ents[i].pt[axis] < pivot {
				i++
			}
			for ents[j].pt[axis] > pivot {
				j--
			}
			if i <= j {
				ents[i], ents[j] = ents[j], ents[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
}
