// Package abcp implements the approximate bichromatic close pair structure of
// Section 7.1 (Lemma 3) of the paper. An Instance watches the core-point sets
// S(c1), S(c2) of two ε-close cells and maintains a witness pair (p1*, p2*)
// such that
//
//   - if the pair is non-empty then dist(p1*, p2*) ≤ (1+ρ)ε, and
//   - the pair is non-empty whenever some pair (p1, p2) ∈ S(c1) × S(c2) has
//     dist(p1, p2) ≤ ε.
//
// The grid graph of Section 7.2 keeps an edge between two core cells exactly
// while their instance holds a witness, which is what lets the fully dynamic
// algorithm dispense with IncDBSCAN's BFS entirely.
//
// The implementation follows the paper's proof, including the O(1)-memory
// representation of the de-listing list L: each cell stores its core points
// in insertion order, and an instance keeps, per side, the last node it
// de-listed. L is everything after that marker (the whole list while the
// marker is nil), so a point appended to a cell's list joins the suffix of
// every instance of the cell without any call. Every point is de-listed at
// most once per instance, giving the amortized bound of Lemma 3.
//
// Because "empty witness ⇒ empty L" holds between calls, an insertion needs
// NotifyInsert only on an instance whose witness is empty; on a witnessed
// instance the new point simply waits in L until the witness dies.
package abcp

import "dyndbscan/internal/geom"

// Node is a membership token of a point in a List. The clustering layer keeps
// one per (core point, cell) and hands it to the instances of that cell.
type Node struct {
	prev, next *Node
	ID         int64
	Pt         geom.Point
	list       *List
}

// Next returns the successor of n in insertion order.
func (n *Node) Next() *Node { return n.next }

// List is an insertion-ordered list of the core points of one cell, shared by
// all aBCP instances involving that cell.
type List struct {
	head, tail *Node
	size       int
}

// NewList returns an empty list.
func NewList() *List { return &List{} }

// Len returns the number of points in the list.
func (l *List) Len() int { return l.size }

// Head returns the first (oldest) node, or nil.
func (l *List) Head() *Node { return l.head }

// Append adds a point at the tail (points arrive in insertion order).
func (l *List) Append(id int64, pt geom.Point) *Node {
	n := &Node{ID: id, Pt: pt, list: l}
	if l.tail == nil {
		l.head, l.tail = n, n
	} else {
		n.prev = l.tail
		l.tail.next = n
		l.tail = n
	}
	l.size++
	return n
}

// Remove unlinks n. The caller must have informed every instance via
// PreDelete first, because marker repair reads n's links.
func (l *List) Remove(n *Node) {
	if n.list != l {
		panic("abcp: removing node from wrong list")
	}
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		l.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		l.tail = n.prev
	}
	n.prev, n.next, n.list = nil, nil, nil
	l.size--
}

// ProbeFunc is an emptiness query against the current contents of one side:
// it returns a node of that side within (1+ρ)ε of q, and must succeed
// whenever the side holds a point within ε of q (the don't-care band in
// between may go either way). The clustering layer backs it with the per-cell
// kd-tree emptiness structure.
type ProbeFunc func(q geom.Point) (*Node, bool)

// Instance maintains the witness pair for one ε-close cell pair.
type Instance struct {
	lists [2]*List
	probe [2]ProbeFunc
	// last is the last de-listed node per side: L is the suffix after it,
	// or the whole list while it is nil.
	last    [2]*Node
	witness [2]*Node // witness[i] belongs to side i; both nil ⇔ empty pair
}

// New creates an instance over the two sides and finds the initial witness by
// scanning the smaller side, as in the proof of Lemma 3.
//
// One subtlety beyond the paper's text: the initial scan terminates at the
// first witness, so the points after it on the scanned side have never been
// probed. They must stay in the de-listing suffix L — otherwise a later deletion
// of the witness could drain an empty L and wrongly declare the pair empty
// while an ε-pair among the never-probed points still exists. The pair-cover
// argument then goes through: for any pair (x, y), whichever of the two was
// probed later (at init, at de-listing, or on insertion) saw the other one
// present on the opposite side.
func New(a, b *List, probeA, probeB ProbeFunc) *Instance {
	in := &Instance{lists: [2]*List{a, b}, probe: [2]ProbeFunc{probeA, probeB}}
	small := 0
	if b.Len() < a.Len() {
		small = 1
	}
	other := 1 - small
	// Every point of the other side was seen by each probe of the scan, so
	// none of them is pending; the scanned side is de-listed up to where the
	// scan stops.
	in.last[other] = in.lists[other].tail
	for n := in.lists[small].head; n != nil; n = n.next {
		in.last[small] = n
		if m, ok := in.probe[other](n.Pt); ok {
			in.witness[small], in.witness[other] = n, m
			break // the never-probed rest stays in L
		}
	}
	return in
}

// HasWitness reports whether the witness pair is non-empty.
func (in *Instance) HasWitness() bool { return in.witness[0] != nil }

// SideOf returns which side (0 or 1) of the instance the given list is; it
// panics for a list the instance does not watch.
func (in *Instance) SideOf(l *List) int {
	switch l {
	case in.lists[0]:
		return 0
	case in.lists[1]:
		return 1
	}
	panic("abcp: list not a side of this instance")
}

// Witness returns the current witness nodes of side 0 and side 1 (nil, nil
// when the pair is empty).
func (in *Instance) Witness() (a, b *Node) { return in.witness[0], in.witness[1] }

// Drained reports whether the de-listing suffix L is empty on both sides. It
// holds whenever the witness is empty; audits check it.
func (in *Instance) Drained() bool {
	return in.pending(0) == nil && in.pending(1) == nil
}

// NotifyInsert is called after a point was appended to side's list (and
// added to its emptiness structure), but only needed while the witness is
// empty: the new point is then the whole of L, and de-listing probes it
// at once. On a witnessed instance it does nothing, since the point already
// joined L by being appended.
func (in *Instance) NotifyInsert(side int, n *Node) {
	if in.witness[0] == nil {
		in.drain()
	}
}

// PreDelete must be called before n is unlinked from side's list: a marker
// at n steps back to n's predecessor while n's links are still intact.
func (in *Instance) PreDelete(side int, n *Node) {
	if in.last[side] == n {
		in.last[side] = n.prev
	}
}

// PostDelete must be called after n was unlinked and removed from side's
// emptiness structure if n was a witness; for any other n it does nothing.
// Repair follows the proof of Lemma 3: first re-probe from the surviving
// witness into the deleted side; failing that, de-list from L until a
// witness appears or L drains.
func (in *Instance) PostDelete(side int, n *Node) {
	if in.witness[side] != n {
		return
	}
	surviving := in.witness[1-side]
	in.witness[0], in.witness[1] = nil, nil
	if m, ok := in.probe[side](surviving.Pt); ok {
		in.witness[1-side] = surviving
		in.witness[side] = m
		return
	}
	in.drain()
}

// drain de-lists points while the witness pair is empty. Each de-listed point
// issues one emptiness query against the opposite side. The invariant
// "empty witness ⇒ empty L" holds on return.
func (in *Instance) drain() {
	for in.witness[0] == nil {
		side := 0
		n := in.pending(0)
		if n == nil {
			side = 1
			if n = in.pending(1); n == nil {
				return
			}
		}
		in.last[side] = n
		if m, ok := in.probe[1-side](n.Pt); ok {
			in.witness[side] = n
			in.witness[1-side] = m
		}
	}
}

// pending returns the first node of side's suffix L, or nil when L is empty
// on that side.
func (in *Instance) pending(side int) *Node {
	if in.last[side] == nil {
		return in.lists[side].head
	}
	return in.last[side].next
}
