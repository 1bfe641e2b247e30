package kdtree

import (
	"fmt"
	"testing"

	"dyndbscan/internal/geom"
)

// checkInvariants validates the tree's structure: every live point lies
// inside the box of each of its ancestors (loose boxes are allowed, missing
// coverage is not), every node has exactly 2·dims bounds, internal nodes have
// two children and no entries, leaves hold at most 2·leafSize points unless
// all of them coincide, every entry's id maps to its own leaf, ids are
// unique, and Len matches the number of entries.
func checkInvariants(tr *Tree) error {
	if tr.root == nil {
		if tr.Len() != 0 {
			return fmt.Errorf("empty tree reports Len %d", tr.Len())
		}
		return nil
	}
	seen := make(map[int64]bool)
	var walk func(n *node, path []*node) error
	walk = func(n *node, path []*node) error {
		if len(n.box) != 2*tr.dims {
			return fmt.Errorf("node has %d bounds, want %d", len(n.box), 2*tr.dims)
		}
		path = append(path, n)
		if n.left != nil || n.right != nil {
			if n.left == nil || n.right == nil {
				return fmt.Errorf("internal node with one child")
			}
			if len(n.ents) != 0 {
				return fmt.Errorf("internal node holds %d entries", len(n.ents))
			}
			if err := walk(n.left, path); err != nil {
				return err
			}
			return walk(n.right, path)
		}
		if len(n.ents) > 2*leafSize {
			for _, e := range n.ents[1:] {
				if !geom.Equal(e.pt, n.ents[0].pt, tr.dims) {
					return fmt.Errorf("leaf holds %d distinct points, bound %d", len(n.ents), 2*leafSize)
				}
			}
		}
		for _, e := range n.ents {
			if seen[e.id] {
				return fmt.Errorf("id %d stored twice", e.id)
			}
			seen[e.id] = true
			if tr.leafOf[e.id] != n {
				return fmt.Errorf("id %d not mapped to its leaf", e.id)
			}
			for depth, a := range path {
				for i := 0; i < tr.dims; i++ {
					if e.pt[i] < a.box[i] || e.pt[i] > a.box[tr.dims+i] {
						return fmt.Errorf("id %d outside the box of its depth-%d ancestor on axis %d", e.id, depth, i)
					}
				}
			}
		}
		return nil
	}
	if err := walk(tr.root, nil); err != nil {
		return err
	}
	if len(seen) != tr.Len() {
		return fmt.Errorf("tree stores %d entries, Len %d", len(seen), tr.Len())
	}
	return nil
}

// shapeWatch runs checkInvariants after every structural change of a tree
// under churn — a leaf split (the leaf count grows) or a restore (a refit or
// full rebuild, which resets the churn counter) — and insists that the churn
// produced both.
type shapeWatch struct {
	t                *testing.T
	tr               *Tree
	churn, leaves    int
	splits, restores int
}

func newShapeWatch(t *testing.T, tr *Tree) *shapeWatch {
	return &shapeWatch{t: t, tr: tr}
}

func countLeaves(n *node) int {
	if n == nil {
		return 0
	}
	if n.left == nil {
		return 1
	}
	return countLeaves(n.left) + countLeaves(n.right)
}

func depth(n *node) int {
	if n == nil {
		return 0
	}
	return 1 + max(depth(n.left), depth(n.right))
}

// after is called after each Insert or Delete.
func (w *shapeWatch) after(op int) {
	w.t.Helper()
	leaves := countLeaves(w.tr.root)
	// Between restores every update raises churn by one.
	restored := w.tr.churn <= w.churn
	split := !restored && leaves > w.leaves
	w.churn, w.leaves = w.tr.churn, leaves
	switch {
	case restored:
		w.restores++
	case split:
		w.splits++
	default:
		return
	}
	if err := checkInvariants(w.tr); err != nil {
		w.t.Fatalf("op %d: %v", op, err)
	}
}

// done checks the final tree and that both kinds of change were exercised.
func (w *shapeWatch) done() {
	w.t.Helper()
	if err := checkInvariants(w.tr); err != nil {
		w.t.Fatal(err)
	}
	if w.splits == 0 || w.restores == 0 {
		w.t.Fatalf("churn exercised %d splits and %d restores; want both", w.splits, w.restores)
	}
}

// TestInvariantsDetectCorruption makes sure the checker is not vacuous.
func TestInvariantsDetectCorruption(t *testing.T) {
	build := func() *Tree {
		tr := New(2)
		for i := int64(0); i < 200; i++ {
			tr.Insert(i, geom.Point{float64(i % 17), float64(i / 17)})
		}
		if err := checkInvariants(tr); err != nil {
			t.Fatalf("healthy tree rejected: %v", err)
		}
		if tr.root.left == nil {
			t.Fatal("fixture did not split")
		}
		return tr
	}
	tr := build()
	tr.root.left.box[0] += 100 // shrink a box past its points
	if checkInvariants(tr) == nil {
		t.Fatal("missed a box that excludes its points")
	}
	tr = build()
	delete(tr.leafOf, 5)
	if checkInvariants(tr) == nil {
		t.Fatal("missed a Len mismatch")
	}
	tr = build()
	leaf := tr.leafOf[7]
	for i := int64(1000); len(leaf.ents) <= 2*leafSize; i++ {
		leaf.ents = append(leaf.ents, entry{id: i, pt: geom.Point{float64(i), 0}})
		tr.leafOf[i] = leaf
	}
	if checkInvariants(tr) == nil {
		t.Fatal("missed an oversized leaf")
	}
}

// TestCoincidentPoints: a leaf of identical points cannot split and must not
// be rescanned on every insert; distinct points arriving later split it.
func TestCoincidentPoints(t *testing.T) {
	tr := New(3)
	same := geom.Point{1, 2, 3}
	for i := int64(0); i < 500; i++ {
		tr.Insert(i, same)
	}
	if err := checkInvariants(tr); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 400; i++ {
		tr.Delete(i)
	}
	for i := int64(500); i < 600; i++ {
		tr.Insert(i, geom.Point{float64(i), 0, 0})
	}
	if err := checkInvariants(tr); err != nil {
		t.Fatal(err)
	}
	if id, _, ok := tr.Probe(same, 0, 0); !ok || id < 400 || id >= 500 {
		t.Fatalf("probe at the coincident point = %d %v", id, ok)
	}
}
