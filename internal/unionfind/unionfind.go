// Package unionfind implements a disjoint-set forest with union by rank and
// path compression (Tarjan [23] in the paper). It serves two roles in the
// reproduction:
//
//   - the semi-dynamic CC structure of Section 4.2 (EdgeInsert + CC-Id on the
//     grid graph, insertions only), and
//   - the "merging history" of cluster ids that IncDBSCAN keeps so that a
//     cluster merge does not have to relabel points (Section 3).
//
// Elements are dense non-negative integers handed out by Add, so callers that
// manage their own id spaces can map onto it directly.
//
// Find compresses paths, so it writes; the update paths use it. Root walks
// to the same representative and writes nothing, so queries that run under
// a shared lock, concurrently with each other, use it instead. Union by rank
// alone bounds that walk at log2(n) steps.
package unionfind

// UF is a disjoint-set forest over elements 0..n-1. The zero value is an
// empty forest ready for use.
type UF struct {
	parent []int32
	rank   []int8
	sets   int
}

// New returns a forest pre-populated with n singleton elements.
func New(n int) *UF {
	u := &UF{}
	for i := 0; i < n; i++ {
		u.Add()
	}
	return u
}

// Len returns the number of elements.
func (u *UF) Len() int { return len(u.parent) }

// Sets returns the current number of disjoint sets.
func (u *UF) Sets() int { return u.sets }

// Add creates a new singleton element and returns its id.
func (u *UF) Add() int {
	id := len(u.parent)
	u.parent = append(u.parent, int32(id))
	u.rank = append(u.rank, 0)
	u.sets++
	return id
}

// Find returns the canonical representative of x's set.
func (u *UF) Find(x int) int {
	root := x
	for int(u.parent[root]) != root {
		root = int(u.parent[root])
	}
	for int(u.parent[x]) != root {
		x, u.parent[x] = int(u.parent[x]), int32(root)
	}
	return root
}

// Root returns the canonical representative of x's set, as Find does, but
// writes nothing: it is safe to call concurrently with other reads.
func (u *UF) Root(x int) int {
	for int(u.parent[x]) != x {
		x = int(u.parent[x])
	}
	return x
}

// Union merges the sets of x and y and reports whether a merge happened
// (false when they already shared a set).
func (u *UF) Union(x, y int) bool {
	rx, ry := u.Find(x), u.Find(y)
	if rx == ry {
		return false
	}
	if u.rank[rx] < u.rank[ry] {
		rx, ry = ry, rx
	}
	u.parent[ry] = int32(rx)
	if u.rank[rx] == u.rank[ry] {
		u.rank[rx]++
	}
	u.sets--
	return true
}

// Same reports whether x and y are in the same set.
func (u *UF) Same(x, y int) bool { return u.Find(x) == u.Find(y) }
