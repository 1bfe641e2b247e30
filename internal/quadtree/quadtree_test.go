package quadtree

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dyndbscan/internal/geom"
)

func randPt(rng *rand.Rand, d int, scale float64) geom.Point {
	p := make(geom.Point, d)
	for i := 0; i < d; i++ {
		p[i] = (rng.Float64()*2 - 1) * scale
	}
	return p
}

// cube returns a tree over [-half, half]^d.
func cube(d int, half float64) *Tree {
	lo := make(geom.Point, d)
	for i := range lo {
		lo[i] = -half
	}
	return New(d, lo, 2*half)
}

// bandCount runs Accumulate with a threshold it never reaches, so the
// running count ends at a full band count k.
func bandCount(tr *Tree, q geom.Point, rLow, rHigh float64) int {
	acc := 0
	tr.Accumulate(q, rLow, rHigh, math.MaxInt, &acc)
	return acc
}

func exactCount(pts map[int64]geom.Point, d int, q geom.Point, r float64) int {
	c := 0
	for _, p := range pts {
		if geom.DistSq(q, p, d) <= r*r {
			c++
		}
	}
	return c
}

// checkTree verifies the structure against the expected live set: subtree
// counts, leaf/internal shape, every point inside its node's cube, distinct
// child orthants, and that the tree holds exactly the live point slices.
func checkTree(t *testing.T, tr *Tree, live map[int64]geom.Point) {
	t.Helper()
	seen := 0
	var walk func(n *qnode, lo [geom.MaxDims]float64, side float64) int
	walk = func(n *qnode, lo [geom.MaxDims]float64, side float64) int {
		if n.leaf {
			if n.children != nil {
				t.Fatal("leaf with children")
			}
			for _, p := range n.pts {
				for i := 0; i < tr.dims; i++ {
					if p[i] < lo[i] || p[i] > lo[i]+side {
						t.Fatalf("point %v outside its leaf cube", p[:tr.dims])
					}
				}
			}
			seen += len(n.pts)
			if n.count != len(n.pts) {
				t.Fatalf("leaf count %d, holds %d", n.count, len(n.pts))
			}
			return n.count
		}
		if len(n.pts) != 0 {
			t.Fatal("internal node holds points")
		}
		sum := 0
		orthants := map[uint8]bool{}
		half := side / 2
		for _, ch := range n.children {
			if orthants[ch.idx] {
				t.Fatalf("duplicate child orthant %d", ch.idx)
			}
			orthants[ch.idx] = true
			if ch.n.count == 0 {
				t.Fatal("empty child kept")
			}
			sum += walk(ch.n, tr.childLo(lo, half, ch.idx), half)
		}
		if n.count != sum {
			t.Fatalf("internal count %d, children hold %d", n.count, sum)
		}
		return sum
	}
	walk(&tr.root, tr.lo, tr.side)
	if seen != len(live) || tr.Len() != len(live) {
		t.Fatalf("tree holds %d points (Len %d), want %d", seen, tr.Len(), len(live))
	}
	for id, p := range live {
		if !tr.Has(p) {
			t.Fatalf("live point %d missing", id)
		}
	}
}

// TestBandContract is the core property: |B(q,rLow)| ≤ k ≤ |B(q,rHigh)|,
// the guarantee the fully-dynamic core-status count needs (Section 7.3).
// Verified under random churn across dimensions and ρ values.
func TestBandContract(t *testing.T) {
	for _, d := range []int{1, 2, 3, 5, 7} {
		for _, rho := range []float64{0, 0.001, 0.5} {
			d, rho := d, rho
			t.Run(fmt.Sprintf("d%d rho%v", d, rho), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(d)*37 + int64(rho*1000)))
				tr := cube(d, 25)
				pts := make(map[int64]geom.Point)
				next := int64(0)
				const rLow = 4.0
				rHigh := rLow * (1 + rho)
				for op := 0; op < 3000; op++ {
					switch r := rng.Float64(); {
					case r < 0.55:
						p := randPt(rng, d, 25)
						tr.Insert(p)
						pts[next] = p
						next++
					case r < 0.75 && len(pts) > 0:
						for id, p := range pts {
							tr.Delete(p)
							delete(pts, id)
							break
						}
					default:
						q := randPt(rng, d, 30)
						k := bandCount(tr, q, rLow, rHigh)
						lo := exactCount(pts, d, q, rLow)
						hi := exactCount(pts, d, q, rHigh)
						if k < lo || k > hi {
							t.Fatalf("op %d: count %d outside band [%d,%d]", op, k, lo, hi)
						}
					}
					if tr.Len() != len(pts) {
						t.Fatalf("op %d: Len=%d want %d", op, tr.Len(), len(pts))
					}
				}
				checkTree(t, tr, pts)
			})
		}
	}
}

// TestExactWhenBandDegenerate: rLow == rHigh must give exact counts
// (the ρ = 0 configuration used by 2D exact DBSCAN).
func TestExactWhenBandDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := cube(2, 40)
	pts := make(map[int64]geom.Point)
	for i := int64(0); i < 800; i++ {
		p := randPt(rng, 2, 40)
		tr.Insert(p)
		pts[i] = p
	}
	for i := 0; i < 1500; i++ {
		q := randPt(rng, 2, 50)
		r := rng.Float64() * 20
		if got, want := bandCount(tr, q, r, r), exactCount(pts, 2, q, r); got != want {
			t.Fatalf("query %d: exact count %d, want %d", i, got, want)
		}
	}
}

// TestRootCube: a tree is rooted at the cube it is given, closed on every
// face, and refuses points outside it instead of growing.
func TestRootCube(t *testing.T) {
	tr := New(2, geom.Point{10, -5}, 2)
	corners := []geom.Point{{10, -5}, {12, -3}, {10, -3}, {12, -5}, {11, -4}}
	for _, p := range corners {
		tr.Insert(p)
	}
	if got := bandCount(tr, geom.Point{11, -4}, 1.5, 1.5); got != 5 {
		t.Fatalf("count over the whole cube = %d, want 5", got)
	}
	if got := bandCount(tr, geom.Point{9, -5}, 1, 1); got != 1 {
		t.Fatalf("count at the lower corner = %d, want 1", got)
	}
	for _, p := range []geom.Point{{9.999, -4}, {11, -2.999}, {math.NaN(), -4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("insert of %v outside the root cube did not panic", p)
				}
			}()
			tr.Insert(p)
		}()
	}
	if tr.Len() != len(corners) {
		t.Fatalf("Len = %d after refused inserts, want %d", tr.Len(), len(corners))
	}
}

// TestCoLocatedPoints: many duplicates must not blow the depth cap, must
// still be counted exactly, and are told apart by identity.
func TestCoLocatedPoints(t *testing.T) {
	tr := cube(3, 4)
	const n = 500
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{1, 2, 3}
		tr.Insert(pts[i])
	}
	if got := bandCount(tr, pts[0], 0.5, 0.5); got != n {
		t.Fatalf("duplicate count = %d, want %d", got, n)
	}
	for i, p := range pts {
		if !tr.Has(p) {
			t.Fatalf("duplicate %d missing", i)
		}
		tr.Delete(p)
		if tr.Has(p) {
			t.Fatalf("deleted duplicate %d still present", i)
		}
	}
	if tr.Len() != 0 {
		t.Fatal("duplicate deletes failed")
	}
}

// TestAtLeastContract: the thresholded accumulation must agree with the
// band — true only when |B(q,rHigh)| reaches the threshold, false only when
// |B(q,rLow)| does not — on top of a running count from earlier cells.
// Exercised under churn across dimensions, thresholds and ρ values.
func TestAtLeastContract(t *testing.T) {
	for _, d := range []int{2, 3, 5} {
		for _, rho := range []float64{0, 0.001, 0.5} {
			d, rho := d, rho
			t.Run(fmt.Sprintf("d%d rho%v", d, rho), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(d)*91 + int64(rho*1000)))
				tr := cube(d, 20)
				pts := make(map[int64]geom.Point)
				next := int64(0)
				const rLow = 5.0
				rHigh := rLow * (1 + rho)
				for op := 0; op < 2500; op++ {
					switch r := rng.Float64(); {
					case r < 0.55:
						p := randPt(rng, d, 20)
						tr.Insert(p)
						pts[next] = p
						next++
					case r < 0.7 && len(pts) > 0:
						for id, p := range pts {
							tr.Delete(p)
							delete(pts, id)
							break
						}
					default:
						q := randPt(rng, d, 25)
						threshold := 1 + rng.Intn(20)
						start := rng.Intn(threshold + 2)
						acc := start
						got := tr.Accumulate(q, rLow, rHigh, threshold, &acc)
						lo := start + exactCount(pts, d, q, rLow)
						hi := start + exactCount(pts, d, q, rHigh)
						if got != (acc >= threshold) {
							t.Fatalf("op %d: Accumulate returned %v with acc %d, threshold %d", op, got, acc, threshold)
						}
						if acc < start || acc > hi {
							t.Fatalf("op %d: acc %d outside [%d,%d]", op, acc, start, hi)
						}
						if got && hi < threshold {
							t.Fatalf("op %d: true but start+|B(rHigh)|=%d < %d", op, hi, threshold)
						}
						if !got && lo >= threshold {
							t.Fatalf("op %d: false but start+|B(rLow)|=%d ≥ %d", op, lo, threshold)
						}
					}
				}
			})
		}
	}
}

// TestAtLeastDegenerate covers empty trees and extreme thresholds.
func TestAtLeastDegenerate(t *testing.T) {
	tr := cube(2, 20)
	acc := 0
	if tr.Accumulate(geom.Point{0, 0}, 1, 1, 1, &acc) || acc != 0 {
		t.Fatal("empty tree cannot reach any threshold")
	}
	tr.Insert(geom.Point{0, 0})
	if !tr.Accumulate(geom.Point{0, 0}, 1, 1, 1, &acc) {
		t.Fatal("threshold 1 with one point at the center")
	}
	acc = 0
	if tr.Accumulate(geom.Point{0, 0}, 1, 1, 2, &acc) || acc != 1 {
		t.Fatal("threshold 2 with one point")
	}
	if !tr.Accumulate(geom.Point{0, 0}, 1, 1, 2, &acc) {
		t.Fatal("running count 1 plus one point reaches threshold 2")
	}
	acc = 0
	if tr.Accumulate(geom.Point{10, 10}, 1, 1, 1, &acc) || acc != 0 {
		t.Fatal("point far outside the ball")
	}
	acc = 5
	if !tr.Accumulate(geom.Point{10, 10}, 1, 1, 5, &acc) || acc != 5 {
		t.Fatal("a running count already at the threshold returns true untouched")
	}
}

func TestDeleteUnknownPanics(t *testing.T) {
	tr := cube(2, 10)
	p := geom.Point{0, 0}
	tr.Insert(p)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tr.Delete(geom.Point{0, 0}) // same coordinates, different point
}

// TestHeavyChurn interleaves inserts and deletes long enough to trigger many
// splits and collapses, then checks a dense set of exact queries.
func TestHeavyChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	tr := cube(2, 10)
	pts := make(map[int64]geom.Point)
	next := int64(0)
	for round := 0; round < 20; round++ {
		for i := 0; i < 300; i++ {
			p := randPt(rng, 2, 10) // dense region → deep subdivision
			tr.Insert(p)
			pts[next] = p
			next++
		}
		for i := 0; i < 250 && len(pts) > 0; i++ {
			for id, p := range pts {
				tr.Delete(p)
				delete(pts, id)
				break
			}
		}
		checkTree(t, tr, pts)
		q := randPt(rng, 2, 10)
		r := rng.Float64() * 8
		if got, want := bandCount(tr, q, r, r), exactCount(pts, 2, q, r); got != want {
			t.Fatalf("round %d: got %d want %d", round, got, want)
		}
	}
}
