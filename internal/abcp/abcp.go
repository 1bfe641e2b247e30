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
//
// The same core list is the cell's emptiness structure (Section 4.2), which
// answers every probe an instance makes into the opposite side. The paper
// plugs in the approximate nearest neighbour structure of Arya et al.; here
// the list is cut into chunks of 16 consecutive nodes, each with a loose
// bounding box under one loose box for the whole list, and a probe scans the
// chunks whose box lies within ε of the query. That meets the same
// 1/0/don't-care contract at a worst case of O(|S(c)|) per probe (see
// "Deviations from the paper" in the README).
package abcp

import (
	"fmt"

	"dyndbscan/internal/geom"
)

// chunkSize is the most nodes one chunk of a List holds.
const chunkSize = 16

// Node is a membership token of a point in a List. The clustering layer keeps
// one per (core point, cell) and hands it to the instances of that cell.
type Node struct {
	prev, next *Node
	ID         int64
	Pt         geom.Point
	chunk      *chunk
}

// Next returns the successor of n in insertion order.
func (n *Node) Next() *Node { return n.next }

// chunk is a run of consecutive nodes of one list with a loose bounding box
// over their first dims coordinates.
type chunk struct {
	list        *List
	first, last *Node
	n           int32     // live nodes
	dels        int32     // removals since the box was last fit
	box         []float64 // lo[0:dims] then hi[0:dims]; contains every node
}

// List is an insertion-ordered list of the core points of one cell, shared by
// all aBCP instances involving that cell. It is also the cell's emptiness
// structure (Section 4.2): the list is cut into chunks of at most chunkSize
// consecutive nodes, each with a loose bounding box, and Probe scans the
// chunks whose box it cannot rule out. Appending widens the tail chunk's box
// or starts a chunk; a chunk refits its box from its own nodes once its
// removals exceed half its live size, and an emptied chunk is dropped. The
// list keeps a loose box over all its nodes too, refit from the chunk boxes
// on the same rule, so that a probe from far away costs one box test
// rather than one per chunk.
type List struct {
	head, tail *Node
	size       int
	dels       int       // removals since box was last fit
	box        []float64 // lo[0:dims] then hi[0:dims]; contains every node while size > 0
	dims       int
	lowSq      float64 // ε²: Probe must find a point this close
	highSq     float64 // ((1+ρ)ε)²: Probe returns no point farther
}

// NewList returns an empty list over points of at least dims coordinates,
// whose Probe answers the emptiness query with radii eps and rUp = (1+ρ)ε.
func NewList(dims int, eps, rUp float64) *List {
	return &List{box: make([]float64, 2*dims), dims: dims, lowSq: eps * eps, highSq: rUp * rUp}
}

// Len returns the number of points in the list.
func (l *List) Len() int { return l.size }

// Head returns the first (oldest) node, or nil.
func (l *List) Head() *Node { return l.head }

// Append adds a point at the tail (points arrive in insertion order). The
// list keeps pt; the caller must not mutate it while the node is live.
func (l *List) Append(id int64, pt geom.Point) *Node {
	n := &Node{ID: id, Pt: pt}
	if l.size == 0 {
		l.pointBox(l.box, pt)
		l.dels = 0
	} else {
		l.widen(l.box, pt)
	}
	if l.tail != nil && l.tail.chunk.n < chunkSize {
		c := l.tail.chunk
		l.widen(c.box, pt)
		c.last = n
		c.n++
		n.chunk = c
	} else {
		box := make([]float64, 2*l.dims)
		l.pointBox(box, pt)
		n.chunk = &chunk{list: l, first: n, last: n, n: 1, box: box}
	}
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
	c := n.chunk
	if c == nil || c.list != l {
		panic("abcp: removing node from wrong list")
	}
	if c.first == n {
		c.first = n.next
	}
	if c.last == n {
		c.last = n.prev
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
	n.prev, n.next, n.chunk = nil, nil, nil
	l.size--
	if c.n--; c.n > 0 {
		if c.dels++; c.dels > c.n/2 {
			l.refit(c)
		}
	}
	if l.dels++; l.size > 0 && l.dels > l.size/2 {
		l.refitList()
	}
}

// Probe is the ρ-approximate ε-emptiness query of Section 4.2: it returns a
// node within (1+ρ)ε of q, and succeeds whenever some node lies within ε (in
// the don't-care band between it may go either way). It skips every chunk
// whose box lies farther than ε from q, or all of them when the list's own
// box does, and returns the first node, in list order, within (1+ρ)ε. A
// probe costs O(|list|) in the worst case.
func (l *List) Probe(q geom.Point) (*Node, bool) {
	if l.size == 0 || l.boxDistSq(l.box, q) > l.lowSq {
		return nil, false
	}
	for n := l.head; n != nil; {
		c := n.chunk
		end := c.last.next
		if l.boxDistSq(c.box, q) <= l.lowSq {
			for ; n != end; n = n.next {
				if geom.DistSq(q, n.Pt, l.dims) <= l.highSq {
					return n, true
				}
			}
		}
		n = end
	}
	return nil, false
}

// Validate checks the chunk structure: chunks are runs of consecutive nodes
// that each point at the chunk holding them, the chunk sizes add up to Len,
// and every chunk box, and the list's box, contains its nodes' first dims
// coordinates.
func (l *List) Validate() error {
	total := 0
	var prev *Node
	for n := l.head; n != nil; {
		c := n.chunk
		if c == nil || c.list != l || c.first != n {
			return fmt.Errorf("abcp: node %d does not start the chunk it points at", n.ID)
		}
		if c.n <= 0 || c.n > chunkSize {
			return fmt.Errorf("abcp: chunk at node %d has size %d", n.ID, c.n)
		}
		for k := int32(0); k < c.n; k++ {
			if n == nil || n.chunk != c || n.prev != prev {
				return fmt.Errorf("abcp: chunk at node %d holds fewer than its %d nodes", c.first.ID, c.n)
			}
			if !l.contains(c.box, n.Pt) {
				return fmt.Errorf("abcp: node %d lies outside its chunk's box", n.ID)
			}
			if !l.contains(l.box, n.Pt) {
				return fmt.Errorf("abcp: node %d lies outside its list's box", n.ID)
			}
			prev, n = n, n.next
		}
		if c.last != prev {
			return fmt.Errorf("abcp: chunk at node %d does not end at its last node", c.first.ID)
		}
		total += int(c.n)
	}
	if total != l.size || l.tail != prev {
		return fmt.Errorf("abcp: chunks hold %d nodes, list length %d", total, l.size)
	}
	return nil
}

// refit shrinks c's box to its live nodes.
func (l *List) refit(c *chunk) {
	l.pointBox(c.box, c.first.Pt)
	for n, end := c.first.next, c.last.next; n != end; n = n.next {
		l.widen(c.box, n.Pt)
	}
	c.dels = 0
}

// refitList shrinks the list's box to the union of its chunk boxes.
func (l *List) refitList() {
	copy(l.box, l.head.chunk.box)
	for n := l.head.chunk.last.next; n != nil; n = n.chunk.last.next {
		for i := 0; i < l.dims; i++ {
			l.box[i] = min(l.box[i], n.chunk.box[i])
			l.box[l.dims+i] = max(l.box[l.dims+i], n.chunk.box[l.dims+i])
		}
	}
	l.dels = 0
}

// pointBox sets box to the single point pt.
func (l *List) pointBox(box []float64, pt geom.Point) {
	copy(box, pt[:l.dims])
	copy(box[l.dims:], pt[:l.dims])
}

// contains reports whether box contains pt's first dims coordinates.
func (l *List) contains(box []float64, pt geom.Point) bool {
	for i := 0; i < l.dims; i++ {
		if pt[i] < box[i] || pt[i] > box[l.dims+i] {
			return false
		}
	}
	return true
}

// widen grows box to contain pt.
func (l *List) widen(box []float64, pt geom.Point) {
	for i := 0; i < l.dims; i++ {
		if pt[i] < box[i] {
			box[i] = pt[i]
		}
		if pt[i] > box[l.dims+i] {
			box[l.dims+i] = pt[i]
		}
	}
}

// boxDistSq is the squared distance from q to box (zero inside it).
func (l *List) boxDistSq(box []float64, q geom.Point) float64 {
	var s float64
	for i := 0; i < l.dims; i++ {
		if d := box[i] - q[i]; d > 0 {
			s += d * d
		} else if d := q[i] - box[l.dims+i]; d > 0 {
			s += d * d
		}
	}
	return s
}

// Instance maintains the witness pair for one ε-close cell pair.
type Instance struct {
	lists [2]*List
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
func New(a, b *List) *Instance {
	in := &Instance{lists: [2]*List{a, b}}
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
		if m, ok := in.lists[other].Probe(n.Pt); ok {
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

// NotifyInsert is called after a point was appended to side's list, but is
// only needed while the witness is empty: the new point is then the whole of
// L, and de-listing probes it at once. On a witnessed instance it does
// nothing, since the point already joined L by being appended.
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

// PostDelete must be called after n was unlinked from side's list if n was a
// witness; for any other n it does nothing.
// Repair follows the proof of Lemma 3: first re-probe from the surviving
// witness into the deleted side; failing that, de-list from L until a
// witness appears or L drains.
func (in *Instance) PostDelete(side int, n *Node) {
	if in.witness[side] != n {
		return
	}
	surviving := in.witness[1-side]
	in.witness[0], in.witness[1] = nil, nil
	if m, ok := in.lists[side].Probe(surviving.Pt); ok {
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
		if m, ok := in.lists[1-side].Probe(n.Pt); ok {
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
