// Package kdtree holds the contract tests of a cell's emptiness structure
// (Section 4.2 of the paper): a probe must return a point when one lies
// within rLow = ε of the query, must never return one farther than
// rHigh = (1+ρ)ε, and may answer either way in between. The structure was a
// per-cell kd-tree, which this directory held, until the cell's core list
// (abcp.List) replaced it; the tests kept their names and place and now run
// against the list through its exported API. The list's internals (chunk
// refits, corruption detection, the probe fuzz target) are tested in
// internal/abcp.
package kdtree

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dyndbscan/internal/abcp"
	"dyndbscan/internal/geom"
)

func randPt(rng *rand.Rand, d int, scale float64) geom.Point {
	p := make(geom.Point, d)
	for i := range p {
		p[i] = (rng.Float64()*2 - 1) * scale
	}
	return p
}

// appendPt links a fresh node for p into l and returns it.
func appendPt(l *abcp.List, id int64, p geom.Point) *abcp.Node {
	n := &abcp.Node{ID: id, Pt: p}
	l.Append(n)
	return n
}

// anyWithin reports whether some point of pts lies within r of q.
func anyWithin(pts map[*abcp.Node]geom.Point, q geom.Point, d int, r float64) bool {
	for _, p := range pts {
		if geom.DistSq(q, p, d) <= r*r {
			return true
		}
	}
	return false
}

// TestProbeContract verifies the banded emptiness contract under churn: if
// some point lies within rLow the probe must succeed, and any returned node
// must be live and within rHigh. The chunk structure is validated after
// every update.
func TestProbeContract(t *testing.T) {
	for _, d := range []int{2, 3, 5} {
		for _, rho := range []float64{0, 0.001, 0.5} {
			t.Run(fmt.Sprintf("d%d rho%v", d, rho), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(100*d) + int64(rho*1000)))
				const rLow = 5.0
				rHigh := rLow * (1 + rho)
				l := abcp.NewList(d, rLow, rHigh)
				live := make(map[*abcp.Node]geom.Point)
				for op := 0; op < 3000; op++ {
					switch r := rng.Float64(); {
					case r < 0.5:
						p := randPt(rng, d, 30)
						live[appendPt(l, int64(op), p)] = p
					case r < 0.7 && len(live) > 0:
						for n := range live {
							l.Remove(n)
							delete(live, n)
							break
						}
					default:
						q := randPt(rng, d, 35)
						n, ok := l.Probe(q)
						if ok {
							if _, isLive := live[n]; !isLive {
								t.Fatalf("op %d: probe returned a removed node", op)
							}
							if geom.DistSq(q, n.Pt, d) > rHigh*rHigh {
								t.Fatalf("op %d: probe returned a point at %v > rHigh %v", op, geom.Dist(q, n.Pt, d), rHigh)
							}
						} else if anyWithin(live, q, d, rLow) {
							t.Fatalf("op %d: probe missed a point within rLow", op)
						}
					}
					if err := l.Validate(); err != nil {
						t.Fatalf("op %d: %v", op, err)
					}
				}
			})
		}
	}
}

// TestProbeExactWhenRhoZero: with rLow == rHigh the probe must behave as an
// exact emptiness query (the 2D exact DBSCAN configuration).
func TestProbeExactWhenRhoZero(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const r = 3.0
	l := abcp.NewList(2, r, r)
	live := make(map[*abcp.Node]geom.Point)
	for i := int64(0); i < 500; i++ {
		p := randPt(rng, 2, 20)
		live[appendPt(l, i, p)] = p
	}
	for i := 0; i < 2000; i++ {
		q := randPt(rng, 2, 25)
		_, ok := l.Probe(q)
		if want := anyWithin(live, q, 2, r); ok != want {
			t.Fatalf("query %d: Probe=%v want %v", i, ok, want)
		}
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	l := abcp.NewList(3, 1, 1)
	if _, ok := l.Probe(geom.Point{0, 0, 0}); ok {
		t.Fatal("probe on an empty list must fail")
	}
	n := appendPt(l, 1, geom.Point{0.5, 0.5, 0.5})
	if got, ok := l.Probe(geom.Point{0, 0, 0}); !ok || got != n {
		t.Fatalf("singleton probe = %v %v", got, ok)
	}
	l.Remove(n)
	if _, ok := l.Probe(geom.Point{0, 0, 0}); ok || l.Len() != 0 || l.Head() != nil {
		t.Fatal("probe after removing the only point must fail")
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestCoincidentPoints: a run of identical points fills chunks whose boxes
// are single points; after most are removed and distinct points follow, a
// probe at the coincident point still finds a survivor.
func TestCoincidentPoints(t *testing.T) {
	l := abcp.NewList(3, 0, 0)
	same := geom.Point{1, 2, 3}
	var nodes []*abcp.Node
	for i := int64(0); i < 500; i++ {
		nodes = append(nodes, appendPt(l, i, same))
	}
	for _, n := range nodes[:400] {
		l.Remove(n)
	}
	for i := int64(500); i < 600; i++ {
		appendPt(l, i, geom.Point{float64(i), 0, 0})
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if n, ok := l.Probe(same); !ok || n.ID < 400 || n.ID >= 500 {
		t.Fatalf("probe at the coincident point = %v %v", n, ok)
	}
}

// TestDegenerateInsertionOrders stresses a sorted line and a tight cluster
// of near-duplicates: the line gives every chunk a thin diagonal box, and
// the cluster chunks of nearly zero extent. Exact probes (ρ = 0) along and
// beside the line and at the cluster must agree with brute force, before
// and after every other point is removed.
func TestDegenerateInsertionOrders(t *testing.T) {
	const r = 1.0
	l := abcp.NewList(2, r, r)
	live := make(map[*abcp.Node]geom.Point)
	id := int64(0)
	for i := 0; i < 500; i++ {
		p := geom.Point{float64(i), float64(i)}
		live[appendPt(l, id, p)] = p
		id++
	}
	for i := 0; i < 300; i++ {
		p := geom.Point{100 + float64(i)*1e-9, 100.5}
		live[appendPt(l, id, p)] = p
		id++
	}
	rng := rand.New(rand.NewSource(7))
	check := func(stage string) {
		if err := l.Validate(); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		hits := 0
		for i := 0; i < 2000; i++ {
			x := rng.Float64()*520 - 10
			q := geom.Point{x, x + (rng.Float64()*2-1)*2}
			if i%4 == 0 {
				q = geom.Point{100 + (rng.Float64()*2-1)*2, 100.5 + (rng.Float64()*2-1)*2}
			}
			_, ok := l.Probe(q)
			if want := anyWithin(live, q, 2, r); ok != want {
				t.Fatalf("%s: query %v: Probe=%v want %v", stage, q, ok, want)
			}
			if ok {
				hits++
			}
		}
		if hits == 0 || hits == 2000 {
			t.Fatalf("%s: %d of 2000 probes hit; the queries must mix hits and misses", stage, hits)
		}
	}
	check("built")
	k := 0
	for n := l.Head(); n != nil; k++ {
		next := n.Next()
		if k%2 == 0 {
			l.Remove(n)
			delete(live, n)
		}
		n = next
	}
	check("thinned")
}

// TestQuickProbeSound: whatever Probe returns is live and within rHigh;
// whenever it declines, no point is within rLow. Holds for any
// append/remove interleave derived from the generated data.
func TestQuickProbeSound(t *testing.T) {
	f := func(coords []float64, removes []uint8, qx, qy, r float64) bool {
		rLow := math.Abs(fold(r))
		l := abcp.NewList(2, rLow, rLow*1.25)
		var nodes []*abcp.Node
		live := make(map[*abcp.Node]geom.Point)
		for i := 0; i+1 < len(coords); i += 2 {
			p := geom.Point{fold(coords[i]), fold(coords[i+1])}
			n := appendPt(l, int64(i/2), p)
			nodes = append(nodes, n)
			live[n] = p
		}
		for _, k := range removes {
			if int(k) < len(nodes) {
				if _, ok := live[nodes[k]]; ok {
					l.Remove(nodes[k])
					delete(live, nodes[k])
				}
			}
		}
		if l.Validate() != nil {
			return false
		}
		q := geom.Point{fold(qx), fold(qy)}
		if n, ok := l.Probe(q); ok {
			_, isLive := live[n]
			return isLive && geom.DistSq(q, n.Pt, 2) <= rLow*1.25*rLow*1.25
		}
		return !anyWithin(live, q, 2, rLow)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// fold maps an arbitrary float64 into a well-behaved coordinate range.
func fold(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(x, 1000)
}
