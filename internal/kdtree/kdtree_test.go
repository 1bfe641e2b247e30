package kdtree

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

// model is the brute-force reference.
type model struct {
	d   int
	pts map[int64]geom.Point
}

func (m *model) nearest(q geom.Point) (int64, float64) {
	best := int64(-1)
	bestSq := math.Inf(1)
	for id, p := range m.pts {
		if d := geom.DistSq(q, p, m.d); d < bestSq {
			best, bestSq = id, d
		}
	}
	return best, bestSq
}

func (m *model) anyWithin(q geom.Point, r float64) bool {
	for _, p := range m.pts {
		if geom.DistSq(q, p, m.d) <= r*r {
			return true
		}
	}
	return false
}

// TestNearestAgainstNaive checks exact NN under random churn in several
// dimensions, exercising rebuilds and tombstones.
func TestNearestAgainstNaive(t *testing.T) {
	for _, d := range []int{1, 2, 3, 5, 7} {
		d := d
		t.Run(fmt.Sprintf("d%d", d), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(10 + d)))
			tr := New(d)
			w := newShapeWatch(t, tr)
			m := &model{d: d, pts: make(map[int64]geom.Point)}
			next := int64(0)
			for op := 0; op < 4000; op++ {
				switch r := rng.Float64(); {
				case r < 0.55:
					p := randPt(rng, d, 50)
					tr.Insert(next, p)
					m.pts[next] = p
					next++
					w.after(op)
				case r < 0.8 && len(m.pts) > 0:
					for id := range m.pts {
						tr.Delete(id)
						delete(m.pts, id)
						break
					}
					w.after(op)
				default:
					q := randPt(rng, d, 60)
					id, _, distSq, ok := tr.Nearest(q)
					wantID, wantSq := m.nearest(q)
					if ok != (wantID >= 0) {
						t.Fatalf("op %d: Nearest ok=%v, model has %d points", op, ok, len(m.pts))
					}
					if ok && math.Abs(distSq-wantSq) > 1e-9 {
						t.Fatalf("op %d: Nearest dist %v, want %v (got id %d want %d)",
							op, distSq, wantSq, id, wantID)
					}
				}
				if tr.Len() != len(m.pts) {
					t.Fatalf("op %d: Len=%d want %d", op, tr.Len(), len(m.pts))
				}
			}
			w.done()
		})
	}
}

// TestProbeContract verifies the banded emptiness contract of Section 4.2:
// if some point lies within rLow the probe must succeed, and any returned
// point must be within rHigh. Both directions are checked under churn.
func TestProbeContract(t *testing.T) {
	for _, d := range []int{2, 3, 5} {
		for _, rho := range []float64{0, 0.001, 0.5} {
			d, rho := d, rho
			t.Run(fmt.Sprintf("d%d rho%v", d, rho), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(100*d) + int64(rho*1000)))
				tr := New(d)
				w := newShapeWatch(t, tr)
				m := &model{d: d, pts: make(map[int64]geom.Point)}
				next := int64(0)
				const rLow = 5.0
				rHigh := rLow * (1 + rho)
				for op := 0; op < 3000; op++ {
					switch r := rng.Float64(); {
					case r < 0.5:
						p := randPt(rng, d, 30)
						tr.Insert(next, p)
						m.pts[next] = p
						next++
						w.after(op)
					case r < 0.7 && len(m.pts) > 0:
						for id := range m.pts {
							tr.Delete(id)
							delete(m.pts, id)
							break
						}
						w.after(op)
					default:
						q := randPt(rng, d, 35)
						id, pt, ok := tr.Probe(q, rLow, rHigh)
						if ok {
							if geom.Dist(q, pt, d) > rHigh+1e-9 {
								t.Fatalf("op %d: probe returned point at %v > rHigh %v",
									op, geom.Dist(q, pt, d), rHigh)
							}
							if _, exists := m.pts[id]; !exists {
								t.Fatalf("op %d: probe returned dead id %d", op, id)
							}
						} else if m.anyWithin(q, rLow) {
							t.Fatalf("op %d: probe missed a point within rLow", op)
						}
					}
				}
				w.done()
			})
		}
	}
}

// TestProbeExactWhenRhoZero: with rLow == rHigh the probe must behave as an
// exact emptiness query (the 2D exact DBSCAN configuration).
func TestProbeExactWhenRhoZero(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := New(2)
	m := &model{d: 2, pts: make(map[int64]geom.Point)}
	for i := int64(0); i < 500; i++ {
		p := randPt(rng, 2, 20)
		tr.Insert(i, p)
		m.pts[i] = p
	}
	const r = 3.0
	for i := 0; i < 2000; i++ {
		q := randPt(rng, 2, 25)
		_, _, ok := tr.Probe(q, r, r)
		if want := m.anyWithin(q, r); ok != want {
			t.Fatalf("query %d: Probe=%v want %v", i, ok, want)
		}
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	tr := New(3)
	if _, _, ok := tr.Probe(geom.Point{0, 0, 0}, 1, 1); ok {
		t.Fatal("probe on empty tree must fail")
	}
	if _, _, _, ok := tr.Nearest(geom.Point{0, 0, 0}); ok {
		t.Fatal("nearest on empty tree must fail")
	}
	tr.Insert(1, geom.Point{1, 1, 1})
	id, _, distSq, ok := tr.Nearest(geom.Point{0, 0, 0})
	if !ok || id != 1 || math.Abs(distSq-3) > 1e-12 {
		t.Fatalf("singleton nearest = %d %v %v", id, distSq, ok)
	}
	tr.Delete(1)
	if tr.Len() != 0 {
		t.Fatal("delete failed")
	}
}

func TestPanics(t *testing.T) {
	tr := New(2)
	tr.Insert(1, geom.Point{0, 0})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("duplicate insert should panic")
			}
		}()
		tr.Insert(1, geom.Point{1, 1})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("unknown delete should panic")
			}
		}()
		tr.Delete(99)
	}()
}

// TestDegenerateInsertionOrders stresses sorted and clustered insertion
// orders, which unbalance naive kd-trees; rebuilds must keep queries correct.
func TestDegenerateInsertionOrders(t *testing.T) {
	tr := New(2)
	w := newShapeWatch(t, tr)
	m := &model{d: 2, pts: make(map[int64]geom.Point)}
	id := int64(0)
	// Sorted line: every insert lands in the rightmost leaf, so only full
	// rebuilds keep the depth logarithmic.
	for i := 0; i < 500; i++ {
		p := geom.Point{float64(i), float64(i)}
		tr.Insert(id, p)
		m.pts[id] = p
		id++
		w.after(i)
	}
	if d := depth(tr.root); d > 12 {
		t.Fatalf("sorted inserts left depth %d for %d leaves", d, countLeaves(tr.root))
	}
	// Tight cluster of near-duplicates.
	for i := 0; i < 300; i++ {
		p := geom.Point{100 + float64(i)*1e-9, 100}
		tr.Insert(id, p)
		m.pts[id] = p
		id++
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		q := randPt(rng, 2, 600)
		_, _, distSq, ok := tr.Nearest(q)
		_, wantSq := m.nearest(q)
		if !ok || math.Abs(distSq-wantSq) > 1e-9 {
			t.Fatalf("query %d: dist %v want %v", i, distSq, wantSq)
		}
	}
	w.done()
}

func TestForEach(t *testing.T) {
	tr := New(2)
	for i := int64(0); i < 10; i++ {
		tr.Insert(i, geom.Point{float64(i), 0})
	}
	seen := 0
	tr.ForEach(func(int64, geom.Point) bool { seen++; return seen < 4 })
	if seen != 4 {
		t.Fatalf("early stop visited %d, want 4", seen)
	}
	if !tr.Has(3) || tr.Has(99) {
		t.Fatal("Has answers wrong")
	}
}
