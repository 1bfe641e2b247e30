package abcp

import (
	"fmt"
	"math/rand"
	"testing"

	"dyndbscan/internal/geom"
)

// side is a test model of one cell's core set with an adversarially lazy
// probe: it must return a node when one is within rLow, may return any node
// within rHigh otherwise, and the adversary randomly chooses among legal
// answers in the don't-care band.
type side struct {
	list  *List
	d     int
	rLow  float64
	rHigh float64
	rng   *rand.Rand
}

func (s *side) probe(q geom.Point) (*Node, bool) {
	var mandatory, optional []*Node
	for n := s.list.Head(); n != nil; n = n.Next() {
		d := geom.Dist(q, n.Pt, s.d)
		switch {
		case d <= s.rLow:
			mandatory = append(mandatory, n)
		case d <= s.rHigh:
			optional = append(optional, n)
		}
	}
	if len(mandatory) > 0 {
		// Any point within rHigh is a legal proof; be adversarial about it.
		pool := append(append([]*Node{}, mandatory...), optional...)
		return pool[s.rng.Intn(len(pool))], true
	}
	if len(optional) > 0 && s.rng.Intn(2) == 0 {
		return optional[s.rng.Intn(len(optional))], true
	}
	return nil, false
}

type harness struct {
	t     *testing.T
	d     int
	rLow  float64
	rHigh float64
	sides [2]*side
	inst  *Instance
	nodes [2]map[*Node]bool
}

func newHarness(t *testing.T, rng *rand.Rand, d int, rho float64, initial [2][]geom.Point) *harness {
	h := &harness{t: t, d: d, rLow: 4, rHigh: 4 * (1 + rho)}
	for i := 0; i < 2; i++ {
		h.sides[i] = &side{list: NewList(), d: d, rLow: h.rLow, rHigh: h.rHigh, rng: rng}
		h.nodes[i] = make(map[*Node]bool)
	}
	id := int64(0)
	for i := 0; i < 2; i++ {
		for _, pt := range initial[i] {
			n := h.sides[i].list.Append(id, pt)
			h.nodes[i][n] = true
			id++
		}
	}
	h.inst = New(h.sides[0].list, h.sides[1].list, h.sides[0].probe, h.sides[1].probe)
	return h
}

// insert appends a point to one side under the clusterer's contract:
// NotifyInsert only while the witness is empty.
func (h *harness) insert(sideIdx int, pt geom.Point, id int64) {
	n := h.sides[sideIdx].list.Append(id, pt)
	h.nodes[sideIdx][n] = true
	if !h.inst.HasWitness() {
		h.inst.NotifyInsert(sideIdx, n)
	}
}

// remove deletes n from one side with the PreDelete/Remove/PostDelete
// sequence.
func (h *harness) remove(sideIdx int, n *Node) {
	delete(h.nodes[sideIdx], n)
	h.inst.PreDelete(sideIdx, n)
	h.sides[sideIdx].list.Remove(n)
	h.inst.PostDelete(sideIdx, n)
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
	rng := rand.New(rand.NewSource(1))
	// Side 0: a (pairs with b), then p1 (pairs with p2, far from b).
	// Side 1: b, p2. After deleting b, the pair (p1,p2) must be found.
	initial := [2][]geom.Point{
		{{0, 0}, {100, 0}}, // a, p1
		{{1, 0}, {101, 0}}, // b, p2
	}
	h := newHarness(t, rng, 2, 0.5, initial)
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
// invariants across dimensions and ρ values, with an adversarial probe.
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
					h := newHarness(t, rng, d, rho, initial)
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
	a, b := NewList(), NewList()
	n := a.Append(1, geom.Point{0, 0})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b.Remove(n)
}

// TestListOrder checks append order and link integrity under removals.
func TestListOrder(t *testing.T) {
	l := NewList()
	var ns []*Node
	for i := int64(0); i < 5; i++ {
		ns = append(ns, l.Append(i, geom.Point{float64(i)}))
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
