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
// countTreeAt and the counts that cut them build counting subtrees, plus
// exact duplicates of live points; the stream grows, shrinks to a handful
// of points so every subtree is dropped again, and grows back. Every cell's
// subtree is audited throughout, and the test requires that subtrees were
// both built and dropped.
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
				for _, ln := range rec.cell.neighbors {
					noteTree(ln.c) // the cells this count may have built in
				}
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

// TestCountTreeOnDemand pins when a cell's counting subtree exists: inserts
// that land in dense cells build none, the first count that cuts a large
// cell builds one holding exactly the cell's points, later updates keep it
// in step, and it is dropped at countTreeAt/2.
func TestCountTreeOnDemand(t *testing.T) {
	const eps = 10.0
	f, err := NewFullyDynamic(Config{Dims: 2, Eps: eps, MinPts: 4, Rho: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	side := f.geo.Side
	audit := func(step string) {
		t.Helper()
		if err := f.Audit(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
	}
	trees := func() (n int) {
		for _, rec := range f.points {
			// pts[0] == rec counts each cell once.
			if rec.cell.count != nil && rec.cell.pts[0] == rec {
				n++
			}
		}
		return n
	}
	// Cells a = (0,0) and b = (1,0) fill in alternation to 60 points each.
	// Past the first few, every insert lands in a cell of MinPts points or
	// more and short-circuits to core, and a count of the other cell scans
	// it while it is small, so no tree is built.
	rng := rand.New(rand.NewSource(3))
	in := func(cx float64) geom.Point {
		return geom.Point{(cx + 0.05 + 0.9*rng.Float64()) * side, (0.05 + 0.9*rng.Float64()) * side}
	}
	var aIDs []PointID
	for i := 0; i < 60; i++ {
		id, err := f.Insert(in(0))
		if err != nil {
			t.Fatal(err)
		}
		aIDs = append(aIDs, id)
		if _, err := f.Insert(in(1)); err != nil {
			t.Fatal(err)
		}
	}
	a := f.points[aIDs[0]].cell
	if len(a.pts) <= countTreeAt {
		t.Fatalf("cell a holds %d points, want more than %d", len(a.pts), countTreeAt)
	}
	if n := trees(); n != 0 {
		t.Fatalf("a dense-cell stream built %d counting subtrees, want 0", n)
	}
	audit("dense stream")

	// q sits in cell (-2,0), alone: ε-close to a but not to b, and the
	// ball around it cuts a's box, so its core test counts a and builds.
	qID, err := f.Insert(geom.Point{-1.05 * side, 0.5 * side})
	if err != nil {
		t.Fatal(err)
	}
	if n := trees(); n != 1 || a.count == nil {
		t.Fatalf("the first cutting count built %d subtrees (cell a's: %v), want exactly a's", n, a.count != nil)
	}
	if a.count.Len() != len(a.pts) {
		t.Fatalf("new subtree holds %d points, cell %d", a.count.Len(), len(a.pts))
	}
	audit("first count")

	// Later inserts and deletes in a keep the subtree in step with the
	// cell.
	for i := 0; i < 20; i++ {
		id, err := f.Insert(in(0))
		if err != nil {
			t.Fatal(err)
		}
		aIDs = append(aIDs, id)
		audit(fmt.Sprintf("insert %d", i))
	}
	if a.count == nil || a.count.Len() != len(a.pts) {
		t.Fatal("cell a's subtree fell out of step with its inserts")
	}
	for len(a.pts) > countTreeAt/2+1 {
		if err := f.Delete(aIDs[len(aIDs)-1]); err != nil {
			t.Fatal(err)
		}
		aIDs = aIDs[:len(aIDs)-1]
		audit(fmt.Sprintf("delete to %d", len(a.pts)))
		if a.count == nil {
			t.Fatalf("subtree dropped at %d points, above countTreeAt/2 = %d", len(a.pts), countTreeAt/2)
		}
	}
	if err := f.Delete(aIDs[len(aIDs)-1]); err != nil {
		t.Fatal(err)
	}
	if a.count != nil {
		t.Fatalf("subtree kept at %d points, countTreeAt/2 = %d", len(a.pts), countTreeAt/2)
	}
	// q's core test still counts a, now by a scan, and builds nothing.
	if err := f.Delete(qID); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Insert(geom.Point{-1.05 * side, 0.5 * side}); err != nil {
		t.Fatal(err)
	}
	if n := trees(); n != 0 {
		t.Fatalf("%d counting subtrees after the drop, want 0", n)
	}
	audit("after drop")
}

// TestAuditDetectsCountTreeCorruption: the audit must notice a counting
// subtree that is out of step with the cell's points or kept where the cell
// is small. A large cell without one is healthy: the next count that cuts
// it builds it.
func TestAuditDetectsCountTreeCorruption(t *testing.T) {
	// cut is a point alone in cell (-1,0) whose ε-ball cuts cell (0,0).
	cut := geom.Point{-1.5, 1}
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
		if _, err := f.Insert(cut.Clone()); err != nil {
			t.Fatal(err)
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
	t.Run("unbuilt", func(t *testing.T) {
		f, c := large(t)
		c.count = nil
		if err := f.Audit(); err != nil {
			t.Fatalf("audit refused a large cell without a subtree: %v", err)
		}
		if _, err := f.Insert(cut.Clone()); err != nil {
			t.Fatal(err)
		}
		if c.count == nil {
			t.Fatal("a cutting count did not rebuild the subtree")
		}
		if err := f.Audit(); err != nil {
			t.Fatalf("rebuilt subtree: %v", err)
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
