package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dyndbscan/internal/geom"
	"dyndbscan/internal/quadtree"
)

// TestIsCoreNowLegal checks the grid count behind FullyDynamic's core test
// against brute force: a true answer needs |B(p,(1+ρ)ε)| ≥ MinPts, a false
// one |B(p,ε)| < MinPts. The data is a few tight blobs, so cells pass
// countTreeAt and build counting subtrees, plus exact duplicates of live
// points; the stream grows, shrinks to a handful of points so every subtree
// is dropped again, and grows back. Every cell's subtree is audited
// throughout, and the test requires that subtrees were both built and
// dropped.
func TestIsCoreNowLegal(t *testing.T) {
	for _, d := range []int{2, 3, 5, 7} {
		for _, rho := range []float64{0, 0.001, 0.5} {
			for _, minPts := range []int{6, 45} {
				t.Run(fmt.Sprintf("d%d/rho%v/minPts%d", d, rho, minPts), func(t *testing.T) {
					checkIsCoreNowLegal(t, d, rho, minPts)
				})
			}
		}
	}
}

func checkIsCoreNowLegal(t *testing.T, d int, rho float64, minPts int) {
	const eps = 10.0
	rng := rand.New(rand.NewSource(int64(100*d + minPts + int(1000*rho))))
	f, err := NewFullyDynamic(Config{Dims: d, Eps: eps, MinPts: minPts, Rho: rho})
	if err != nil {
		t.Fatal(err)
	}
	centers := make([]geom.Point, 3)
	for i := range centers {
		centers[i] = make(geom.Point, d)
		for j := range centers[i] {
			centers[i][j] = rng.Float64() * 3 * eps
		}
	}
	var live []PointID
	point := func() geom.Point {
		if len(live) > 0 && rng.Intn(5) == 0 {
			return f.points[live[rng.Intn(len(live))]].pt.Clone() // exact duplicate
		}
		// Most points land within a third of a cell side of a center, so
		// the center cells fill past countTreeAt; the rest spread over the
		// ε-neighbourhood, so partially covered cells are common.
		r := f.geo.Side / 3
		if rng.Intn(3) == 0 {
			r = 1.5 * eps
		}
		return geom.RandInBall(rng, centers[rng.Intn(len(centers))], r, d)
	}
	// brute returns |B(p,ε)| and |B(p,(1+ρ)ε)|.
	brute := func(p geom.Point) (inEps, inUp int) {
		for _, rec := range f.points {
			dsq := geom.DistSq(p, rec.pt, d)
			if dsq <= f.epsSq {
				inEps++
			}
			if dsq <= f.rUpSq {
				inUp++
			}
		}
		return inEps, inUp
	}
	hadTree := map[*cell]bool{}
	built, dropped := 0, 0
	noteTree := func(c *cell) {
		has := c.count != nil
		switch {
		case has && !hadTree[c]:
			built++
		case !has && hadTree[c]:
			dropped++
		}
		hadTree[c] = has
	}
	// Grow to 400 points, shrink to 10, grow back to 250.
	targets := []int{400, 10, 250}
	op := 0
	for _, target := range targets {
		for len(live) != target {
			if len(live) < target {
				id, err := f.Insert(point())
				if err != nil {
					t.Fatal(err)
				}
				live = append(live, id)
				noteTree(f.points[id].cell)
			} else {
				k := rng.Intn(len(live))
				c := f.points[live[k]].cell
				if err := f.Delete(live[k]); err != nil {
					t.Fatal(err)
				}
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
				noteTree(c)
			}
			op++
			for i := 0; i < 3 && len(live) > 0; i++ {
				rec := f.points[live[rng.Intn(len(live))]]
				got := f.isCoreNow(rec)
				inEps, inUp := brute(rec.pt)
				if got && inUp < minPts {
					t.Fatalf("op %d: core but |B(p,(1+ρ)ε)| = %d < %d", op, inUp, minPts)
				}
				if !got && inEps >= minPts {
					t.Fatalf("op %d: not core but |B(p,ε)| = %d ≥ %d", op, inEps, minPts)
				}
			}
			if op%50 == 0 {
				if err := f.Audit(); err != nil {
					t.Fatalf("op %d: %v", op, err)
				}
			}
		}
	}
	if err := f.Audit(); err != nil {
		t.Fatal(err)
	}
	if built == 0 || dropped == 0 {
		t.Fatalf("counting subtrees built %d times and dropped %d times; the stream must do both", built, dropped)
	}
}

// TestAuditDetectsCountTreeCorruption: the audit must notice a counting
// subtree that is missing where the cell is large, kept where it is small,
// or out of step with the cell's points.
func TestAuditDetectsCountTreeCorruption(t *testing.T) {
	large := func(t *testing.T) (*FullyDynamic, *cell) {
		t.Helper()
		f, err := NewFullyDynamic(Config{Dims: 2, Eps: 3, MinPts: 4, Rho: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		var id PointID
		for i := 0; i < countTreeAt+5; i++ {
			if id, err = f.Insert(geom.Point{1 + 0.01*float64(i), 1}); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Audit(); err != nil {
			t.Fatalf("fixture not healthy: %v", err)
		}
		c := f.points[id].cell
		if c.count == nil {
			t.Fatal("fixture cell built no counting subtree")
		}
		return f, c
	}
	t.Run("missing", func(t *testing.T) {
		f, c := large(t)
		c.count = nil
		if err := f.Audit(); err == nil || !strings.Contains(err.Error(), "no counting subtree") {
			t.Fatalf("audit missed a dropped subtree: %v", err)
		}
	})
	t.Run("stale point", func(t *testing.T) {
		f, c := large(t)
		c.count.Delete(c.pts[0].pt)
		c.count.Insert(c.pts[0].pt.Clone()) // same coordinates, not the cell's point
		if err := f.Audit(); err == nil || !strings.Contains(err.Error(), "missing from its cell's counting subtree") {
			t.Fatalf("audit missed a subtree holding a foreign point: %v", err)
		}
	})
	t.Run("short", func(t *testing.T) {
		f, c := large(t)
		c.count.Delete(c.pts[3].pt)
		if err := f.Audit(); err == nil || !strings.Contains(err.Error(), "counting subtree holds") {
			t.Fatalf("audit missed a subtree short of a point: %v", err)
		}
	})
	t.Run("kept", func(t *testing.T) {
		f := healthyFullyDynamic(t)
		var small *cell
		for _, rec := range f.points {
			if len(rec.cell.pts) <= countTreeAt/2 {
				small = rec.cell
				break
			}
		}
		if small == nil {
			t.Skip("fixture has no small cell")
		}
		lo, side := f.cellCube(small.coord)
		small.count = quadtree.New(2, lo, side)
		for _, p := range small.pts {
			small.count.Insert(p.pt)
		}
		if err := f.Audit(); err == nil || !strings.Contains(err.Error(), "kept its counting subtree") {
			t.Fatalf("audit missed a subtree on a small cell: %v", err)
		}
	})
}
