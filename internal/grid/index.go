package grid

import "slices"

// Index is a dynamic kd-tree over occupied cell coordinates with values of
// type T attached. It supports insertion, deletion and pruned "r-close"
// range queries, and keeps itself balanced by full rebuilds once enough
// updates have accumulated (a scapegoat-style policy that amortizes to
// O(log n) per operation for the update mix seen here, where cell events are
// far rarer than point events).
//
// Deletions are lazy: nodes are tombstoned and physically removed at the next
// rebuild. Subtree coordinate bounds are maintained conservatively (they may
// over-cover after deletions), which can only make queries visit more nodes,
// never miss one.
type Index[T any] struct {
	geo   Params
	root  *inode[T]
	nodes map[Coord]*inode[T]

	dead       int // tombstoned nodes still in the tree
	sinceBuild int // insertions since the last rebuild
}

type inode[T any] struct {
	coord       Coord
	value       T
	dead        bool
	axis        int8
	left, right *inode[T]
	lo, hi      Coord // coordinate bounds of the whole subtree
}

// NewIndex returns an empty index over cells of the given grid geometry.
func NewIndex[T any](geo Params) *Index[T] {
	return &Index[T]{geo: geo, nodes: make(map[Coord]*inode[T])}
}

// Len returns the number of live cells in the index.
func (ix *Index[T]) Len() int { return len(ix.nodes) }

// ForEach invokes fn on every live cell in no particular order; iteration
// stops early if fn returns false.
func (ix *Index[T]) ForEach(fn func(Coord, T) bool) {
	for c, n := range ix.nodes {
		if !fn(c, n.value) {
			return
		}
	}
}

// Get returns the value stored for cell c, if present.
func (ix *Index[T]) Get(c Coord) (T, bool) {
	n, ok := ix.nodes[c]
	if !ok {
		var zero T
		return zero, false
	}
	return n.value, true
}

// Insert adds cell c with value v. Inserting a coordinate that is already
// present replaces its value.
func (ix *Index[T]) Insert(c Coord, v T) {
	if n, ok := ix.nodes[c]; ok {
		n.value = v
		return
	}
	n := &inode[T]{coord: c, value: v, lo: c, hi: c}
	ix.nodes[c] = n
	ix.insertNode(n)
	ix.sinceBuild++
	ix.maybeRebuild()
}

// Delete removes cell c. Deleting an absent coordinate is a no-op.
func (ix *Index[T]) Delete(c Coord) {
	n, ok := ix.nodes[c]
	if !ok {
		return
	}
	delete(ix.nodes, c)
	n.dead = true
	var zero T
	n.value = zero
	ix.dead++
	ix.maybeRebuild()
}

// QueryClose invokes fn for every live cell whose box is within distance r of
// the box of cell center (center itself included when present). Iteration
// stops early if fn returns false.
func (ix *Index[T]) QueryClose(center Coord, r float64, fn func(Coord, T) bool) {
	rsq := r * r * (1 + closenessSlack)
	ix.queryNode(ix.root, center, rsq, fn)
}

func (ix *Index[T]) queryNode(n *inode[T], center Coord, rsq float64, fn func(Coord, T) bool) bool {
	if n == nil || ix.minDistSqToRange(center, n.lo, n.hi) > rsq {
		return true
	}
	if !n.dead && ix.geo.MinDistSq(center, n.coord) <= rsq {
		if !fn(n.coord, n.value) {
			return false
		}
	}
	if !ix.queryNode(n.left, center, rsq, fn) {
		return false
	}
	return ix.queryNode(n.right, center, rsq, fn)
}

// minDistSqToRange lower-bounds the box distance between cell center and any
// cell with coordinates in [lo, hi].
func (ix *Index[T]) minDistSqToRange(center Coord, lo, hi Coord) float64 {
	var s float64
	for i := 0; i < ix.geo.Dims; i++ {
		var delta int64
		switch {
		case int64(center[i]) < int64(lo[i]):
			delta = int64(lo[i]) - int64(center[i])
		case int64(center[i]) > int64(hi[i]):
			delta = int64(center[i]) - int64(hi[i])
		}
		if delta > 1 {
			t := float64(delta-1) * ix.geo.Side
			s += t * t
		}
	}
	return s
}

func (ix *Index[T]) insertNode(n *inode[T]) {
	if ix.root == nil {
		n.axis = 0
		ix.root = n
		return
	}
	cur := ix.root
	for {
		expandBounds(&cur.lo, &cur.hi, n.coord, ix.geo.Dims)
		axis := cur.axis
		next := &cur.left
		if n.coord[axis] >= cur.coord[axis] {
			next = &cur.right
		}
		if *next == nil {
			n.axis = int8((int(axis) + 1) % ix.geo.Dims)
			*next = n
			return
		}
		cur = *next
	}
}

func expandBounds(lo, hi *Coord, c Coord, d int) {
	for i := 0; i < d; i++ {
		if c[i] < lo[i] {
			lo[i] = c[i]
		}
		if c[i] > hi[i] {
			hi[i] = c[i]
		}
	}
}

// maybeRebuild rebuilds the tree into perfectly balanced form once the sum of
// tombstones and fresh insertions exceeds the live population. This keeps the
// expected depth logarithmic without per-operation rebalancing. The nodes are
// sorted by coordinate first, so the rebuilt tree, and with it the order in
// which QueryClose reports cells, does not depend on map iteration order.
func (ix *Index[T]) maybeRebuild() {
	live := len(ix.nodes)
	if ix.dead+ix.sinceBuild <= live/2+8 {
		return
	}
	nodes := make([]*inode[T], 0, live)
	for _, n := range ix.nodes {
		n.left, n.right = nil, nil
		n.lo, n.hi = n.coord, n.coord
		nodes = append(nodes, n)
	}
	slices.SortFunc(nodes, func(a, b *inode[T]) int { return slices.Compare(a.coord[:], b.coord[:]) })
	ix.root = ix.build(nodes, 0)
	ix.dead = 0
	ix.sinceBuild = 0
}

func (ix *Index[T]) build(nodes []*inode[T], axis int) *inode[T] {
	if len(nodes) == 0 {
		return nil
	}
	mid := len(nodes) / 2
	quickSelect(nodes, mid, axis)
	n := nodes[mid]
	n.axis = int8(axis)
	next := (axis + 1) % ix.geo.Dims
	n.left = ix.build(nodes[:mid], next)
	n.right = ix.build(nodes[mid+1:], next)
	n.lo, n.hi = n.coord, n.coord
	for _, ch := range []*inode[T]{n.left, n.right} {
		if ch != nil {
			expandBounds(&n.lo, &n.hi, ch.lo, ix.geo.Dims)
			expandBounds(&n.lo, &n.hi, ch.hi, ix.geo.Dims)
		}
	}
	return n
}

// quickSelect partially sorts nodes so that nodes[k] holds the k-th smallest
// coordinate on the given axis, with smaller elements before it.
func quickSelect[T any](nodes []*inode[T], k, axis int) {
	lo, hi := 0, len(nodes)-1
	for lo < hi {
		// Median-of-three pivot to avoid quadratic behavior on the
		// mostly-sorted slices produced by repeated rebuilds.
		mid := (lo + hi) / 2
		if nodes[mid].coord[axis] < nodes[lo].coord[axis] {
			nodes[mid], nodes[lo] = nodes[lo], nodes[mid]
		}
		if nodes[hi].coord[axis] < nodes[lo].coord[axis] {
			nodes[hi], nodes[lo] = nodes[lo], nodes[hi]
		}
		if nodes[hi].coord[axis] < nodes[mid].coord[axis] {
			nodes[hi], nodes[mid] = nodes[mid], nodes[hi]
		}
		pivot := nodes[mid].coord[axis]
		i, j := lo, hi
		for i <= j {
			for nodes[i].coord[axis] < pivot {
				i++
			}
			for nodes[j].coord[axis] > pivot {
				j--
			}
			if i <= j {
				nodes[i], nodes[j] = nodes[j], nodes[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			return
		}
	}
}
