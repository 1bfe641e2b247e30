package abcp

import (
	"fmt"
	"math/rand"
	"testing"

	"dyndbscan/internal/geom"
)

// harness drives one instance over two core lists, whose probes answer the
// banded emptiness query with rLow = 4 and rHigh = 4(1+ρ).
type harness struct {
	t     *testing.T
	d     int
	rLow  float64
	rHigh float64
	lists [2]*List
	inst  *Instance
	nodes [2]map[*Node]bool
	// removed holds each side's unlinked nodes, oldest first, for re-append.
	removed [2][]*Node
}

func newHarness(t *testing.T, d int, rho float64, initial [2][]geom.Point) *harness {
	h := &harness{t: t, d: d, rLow: 4, rHigh: 4 * (1 + rho)}
	for i := 0; i < 2; i++ {
		h.lists[i] = NewList(d, h.rLow, h.rHigh)
		h.nodes[i] = make(map[*Node]bool)
	}
	id := int64(0)
	for i := 0; i < 2; i++ {
		for _, pt := range initial[i] {
			n := &Node{ID: id, Pt: pt}
			h.lists[i].Append(n)
			h.nodes[i][n] = true
			id++
		}
	}
	h.inst = New(h.lists[0], h.lists[1])
	return h
}

// insert appends a fresh point to one side.
func (h *harness) insert(sideIdx int, pt geom.Point, id int64) {
	h.link(sideIdx, &Node{ID: id, Pt: pt})
}

// link appends n to one side under the clusterer's contract: NotifyInsert
// only while the witness is empty.
func (h *harness) link(sideIdx int, n *Node) {
	h.lists[sideIdx].Append(n)
	h.nodes[sideIdx][n] = true
	if !h.inst.HasWitness() {
		h.inst.NotifyInsert(sideIdx, n)
	}
}

// reappend links the side's longest-removed node again, as a clusterer does
// when a demoted point turns core once more; it reports false if the side
// has none.
func (h *harness) reappend(sideIdx int) bool {
	if len(h.removed[sideIdx]) == 0 {
		return false
	}
	n := h.removed[sideIdx][0]
	h.removed[sideIdx] = h.removed[sideIdx][1:]
	h.link(sideIdx, n)
	return true
}

// remove deletes n from one side with the PreDelete/Remove/PostDelete
// sequence.
func (h *harness) remove(sideIdx int, n *Node) {
	delete(h.nodes[sideIdx], n)
	h.inst.PreDelete(sideIdx, n)
	h.lists[sideIdx].Remove(n)
	h.inst.PostDelete(sideIdx, n)
	h.removed[sideIdx] = append(h.removed[sideIdx], n)
}

func (h *harness) deleteRandom(rng *rand.Rand, sideIdx int) {
	if len(h.nodes[sideIdx]) == 0 {
		return
	}
	var n *Node
	k := rng.Intn(len(h.nodes[sideIdx]))
	for cand := range h.nodes[sideIdx] {
		if k == 0 {
			n = cand
			break
		}
		k--
	}
	h.remove(sideIdx, n)
}

// check asserts the two Lemma 3 guarantees, and the invariant "empty witness
// ⇒ empty L" that lets an insertion skip every witnessed instance.
func (h *harness) check(step string) {
	h.t.Helper()
	for i, l := range h.lists {
		if err := l.Validate(); err != nil {
			h.t.Fatalf("%s: side %d: %v", step, i, err)
		}
	}
	a, b := h.inst.Witness()
	if (a == nil) != (b == nil) {
		h.t.Fatalf("%s: half-empty witness", step)
	}
	if a != nil {
		if !h.nodes[0][a] || !h.nodes[1][b] {
			h.t.Fatalf("%s: witness references a removed node", step)
		}
		if d := geom.Dist(a.Pt, b.Pt, h.d); d > h.rHigh+1e-9 {
			h.t.Fatalf("%s: witness pair at distance %v > rHigh %v", step, d, h.rHigh)
		}
		return
	}
	if !h.inst.Drained() {
		h.t.Fatalf("%s: witness empty but points left to de-list", step)
	}
	// Empty pair: there must be no ε-pair.
	for n0 := range h.nodes[0] {
		for n1 := range h.nodes[1] {
			if geom.Dist(n0.Pt, n1.Pt, h.d) <= h.rLow {
				h.t.Fatalf("%s: witness empty but pair at distance %v ≤ rLow %v exists",
					step, geom.Dist(n0.Pt, n1.Pt, h.d), h.rLow)
			}
		}
	}
}

// TestEarlyTerminationSuffix is the regression test for the init subtlety:
// the initial scan stops at the first witness; points after it must still be
// reachable through the de-listing suffix when the witness dies.
func TestEarlyTerminationSuffix(t *testing.T) {
	// Side 0: a (pairs with b), then p1 (pairs with p2, far from b).
	// Side 1: b, p2. After deleting b, the pair (p1,p2) must be found.
	initial := [2][]geom.Point{
		{{0, 0}, {100, 0}}, // a, p1
		{{1, 0}, {101, 0}}, // b, p2
	}
	h := newHarness(t, 2, 0.5, initial)
	if !h.inst.HasWitness() {
		t.Fatal("initial witness expected")
	}
	h.check("init")
	// Delete b (whichever node of side 1 is at {1,0}).
	var b *Node
	for n := range h.nodes[1] {
		if n.Pt[0] == 1 {
			b = n
		}
	}
	h.remove(1, b)
	if !h.inst.HasWitness() {
		t.Fatal("witness lost although (p1,p2) pair remains — init suffix not drained")
	}
	h.check("after delete")
}

// TestRandomChurn drives random insert/delete mixes against the brute-force
// invariants across dimensions and ρ values, probing through the lists.
func TestRandomChurn(t *testing.T) {
	for _, d := range []int{2, 3, 5} {
		for _, rho := range []float64{0, 0.001, 0.5} {
			d, rho := d, rho
			t.Run(fmt.Sprintf("d%d rho%v", d, rho), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(d)*1000 + int64(rho*100)))
				// Initial populations of various sizes, including empty.
				for _, initSizes := range [][2]int{{0, 0}, {1, 0}, {3, 5}, {8, 2}} {
					var initial [2][]geom.Point
					for s := 0; s < 2; s++ {
						for i := 0; i < initSizes[s]; i++ {
							initial[s] = append(initial[s], randSidePt(rng, d, s))
						}
					}
					h := newHarness(t, d, rho, initial)
					h.check("init")
					id := int64(1000)
					for op := 0; op < 600; op++ {
						sideIdx := rng.Intn(2)
						if rng.Float64() < 0.55 {
							h.insert(sideIdx, randSidePt(rng, d, sideIdx), id)
							id++
						} else {
							h.deleteRandom(rng, sideIdx)
						}
						h.check(fmt.Sprintf("op %d", op))
					}
					// Drain everything; the witness must end up empty.
					for s := 0; s < 2; s++ {
						for len(h.nodes[s]) > 0 {
							h.deleteRandom(rng, s)
							h.check("drain")
						}
					}
					if h.inst.HasWitness() {
						t.Fatal("witness survives empty sides")
					}
				}
			})
		}
	}
}

// randSidePt places side 0 around the origin and side 1 shifted so that
// cross-side distances straddle the [rLow, rHigh] band interestingly.
func randSidePt(rng *rand.Rand, d, sideIdx int) geom.Point {
	p := make(geom.Point, d)
	for i := 0; i < d; i++ {
		p[i] = rng.Float64() * 6
	}
	if sideIdx == 1 {
		p[0] += 3 // offset creates many near-band pairs
	}
	return p
}

// TestListRemoveWrongList ensures cross-list removal is caught.
func TestListRemoveWrongList(t *testing.T) {
	a, b := NewList(2, 1, 1), NewList(2, 1, 1)
	n := &Node{ID: 1, Pt: geom.Point{0, 0}}
	a.Append(n)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b.Remove(n)
}

// TestAppendLinkedNodePanics: a node is in at most one list at a time, so
// appending a linked node, to its own list or another, must panic and leave
// both lists as they were; once removed it appends again.
func TestAppendLinkedNodePanics(t *testing.T) {
	a, b := NewList(2, 1, 1), NewList(2, 1, 1)
	n := &Node{ID: 1, Pt: geom.Point{0, 0}}
	a.Append(n)
	for _, l := range []*List{a, b} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("appending a linked node did not panic")
				}
			}()
			l.Append(n)
		}()
	}
	if a.Len() != 1 || b.Len() != 0 || n.List() != a {
		t.Fatalf("failed appends changed the lists: len %d and %d, node in %p", a.Len(), b.Len(), n.List())
	}
	a.Remove(n)
	if n.List() != nil {
		t.Fatal("removed node still reports a list")
	}
	b.Append(n)
	if b.Len() != 1 || b.Head() != n || n.List() != b {
		t.Fatal("removed node did not append to another list")
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestReappendRemovedNode is a demote-then-promote of one point: its node
// leaves the list mid-chunk, at the head and at the tail, and is appended
// again, and the instance keeps the Lemma 3 guarantees throughout,
// including when the re-appended node is the only one that can restore the
// witness.
func TestReappendRemovedNode(t *testing.T) {
	initial := [2][]geom.Point{{{0, 0}, {20, 0}, {40, 0}}, {{3, 0}, {60, 0}}}
	h := newHarness(t, 2, 0, initial)
	h.check("init")
	for _, pick := range []func(l *List) *Node{
		func(l *List) *Node { return l.Head() },
		func(l *List) *Node { return l.Head().Next() },
		func(l *List) *Node { return l.tail },
	} {
		n := pick(h.lists[0])
		h.remove(0, n)
		h.check(fmt.Sprintf("remove %d", n.ID))
		if !h.reappend(0) || h.lists[0].tail != n {
			t.Fatalf("node %d not re-appended at the tail", n.ID)
		}
		h.check(fmt.Sprintf("re-append %d", n.ID))
	}
	// Only the point at the origin pairs with side 1: taking it away empties
	// the witness, and re-appending it must restore one.
	var origin *Node
	for n := h.lists[0].Head(); n != nil; n = n.Next() {
		if n.Pt[0] == 0 {
			origin = n
		}
	}
	h.remove(0, origin)
	h.check("remove origin")
	if h.inst.HasWitness() {
		t.Fatal("witness survives its only pair")
	}
	h.reappend(0)
	h.check("re-append origin")
	if a, _ := h.inst.Witness(); a != origin {
		t.Fatalf("witness %v after re-appending the only pair's point", a)
	}
}

// TestListOrder checks append order and link integrity under removals.
func TestListOrder(t *testing.T) {
	l := NewList(1, 1, 1)
	var ns []*Node
	for i := int64(0); i < 5; i++ {
		ns = append(ns, &Node{ID: i, Pt: geom.Point{float64(i)}})
		l.Append(ns[i])
	}
	l.Remove(ns[2])
	l.Remove(ns[0])
	l.Remove(ns[4])
	want := []int64{1, 3}
	var got []int64
	for n := l.Head(); n != nil; n = n.Next() {
		got = append(got, n.ID)
	}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("list order = %v, want %v", got, want)
	}
	if l.Len() != 2 {
		t.Fatalf("Len = %d, want 2", l.Len())
	}
}

// TestValidateDetectsChunkCorruption: Validate must notice a chunk box or a
// list box that misses one of its nodes, a wrong chunk size, and a node that
// points at a chunk other than the one holding it.
func TestValidateDetectsChunkCorruption(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(l *List)
	}{
		{"box misses a node", func(l *List) { l.head.chunk.box[1] = l.head.Pt[1] + 1 }},
		{"list box misses a node", func(l *List) { l.box[2] = l.tail.Pt[0] - 1 }},
		{"wrong chunk size", func(l *List) { l.head.chunk.n-- }},
		{"node in the wrong chunk", func(l *List) { l.tail.chunk = l.head.chunk }},
	} {
		l := NewList(2, 4, 4)
		for i := int64(0); i < 3*chunkSize/2; i++ {
			l.Append(&Node{ID: i, Pt: geom.Point{float64(i), float64(-i), 99}})
		}
		if err := l.Validate(); err != nil {
			t.Fatalf("%s: healthy list fails validation: %v", tc.name, err)
		}
		tc.corrupt(l)
		if err := l.Validate(); err == nil {
			t.Errorf("%s: Validate missed it", tc.name)
		}
	}
}

// TestListRefitsChunkBoxes runs append/remove churn and checks that chunks
// do refit, and that a refit leaves the chunk's box exactly the bounds of
// its live nodes. The probe contract under the same churn is tested in
// internal/kdtree.
func TestListRefitsChunkBoxes(t *testing.T) {
	for _, d := range []int{2, 5} {
		rng := rand.New(rand.NewSource(int64(d)))
		l := NewList(d, 5, 5)
		var live []*Node
		refits := 0
		for op := 0; op < 3000; op++ {
			if rng.Float64() < 0.6 || len(live) == 0 {
				p := make(geom.Point, d)
				for i := range p {
					p[i] = (rng.Float64()*2 - 1) * 30
				}
				live = append(live, &Node{ID: int64(op), Pt: p})
				l.Append(live[len(live)-1])
				continue
			}
			k := rng.Intn(len(live))
			n := live[k]
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			c := n.chunk
			l.Remove(n)
			if c.n == 0 || c.dels != 0 {
				continue
			}
			refits++
			want := make([]float64, 2*d)
			l.pointBox(want, c.first.Pt)
			for m, end := c.first.next, c.last.next; m != end; m = m.next {
				l.widen(want, m.Pt)
			}
			if fmt.Sprint(c.box) != fmt.Sprint(want) {
				t.Fatalf("d%d op %d: refit box %v, live bounds %v", d, op, c.box, want)
			}
			if err := l.Validate(); err != nil {
				t.Fatalf("d%d op %d: %v", d, op, err)
			}
		}
		if refits == 0 {
			t.Fatalf("d%d: churn never refit a chunk box", d)
		}
	}
}
