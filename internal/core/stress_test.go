package core

import (
	"fmt"
	"math/rand"
	"testing"

	"dyndbscan/internal/geom"
)

// TestStressFullyDynamic3D runs a heavier mixed churn in 3D with audits and
// oracle comparisons at checkpoints — the closest thing to the production
// workload that still affords brute-force verification.
func TestStressFullyDynamic3D(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	rng := rand.New(rand.NewSource(99))
	cfg := Config{Dims: 3, Eps: 7, MinPts: 6, Rho: 0}
	f, err := NewFullyDynamic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := &fullDynHarness{
		t: t, f: f, audit: false,
		pool: genBlobs(rng, 3, 6, 200, 60, 120, 9),
	}
	for op := 0; h.next < len(h.pool); op++ {
		if rng.Float64() < 0.65 {
			h.insert()
		} else {
			h.deleteRandom(rng)
		}
		if op%300 == 299 {
			h.checkExact(fmt.Sprintf("op %d", op))
		}
	}
	if err := f.Audit(); err != nil {
		t.Fatal(err)
	}
	// Heavy deletion phase: this is where splits cascade.
	for len(h.ids) > 200 {
		for i := 0; i < 150; i++ {
			h.deleteRandom(rng)
		}
		h.checkExact(fmt.Sprintf("drain %d", len(h.ids)))
	}
	if err := f.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestStressHighMinPts exercises a MinPts well above cell capacity so the
// dense-cell shortcut rarely fires and the counting paths dominate.
func TestStressHighMinPts(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	rng := rand.New(rand.NewSource(7))
	cfg := Config{Dims: 2, Eps: 4, MinPts: 25, Rho: 0}
	f, err := NewFullyDynamic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := &fullDynHarness{
		t: t, f: f, audit: true,
		pool: genBlobs(rng, 2, 3, 120, 30, 60, 6),
	}
	for op := 0; h.next < len(h.pool); op++ {
		if rng.Float64() < 0.7 {
			h.insert()
		} else {
			h.deleteRandom(rng)
		}
		if op%80 == 79 {
			h.checkExact(fmt.Sprintf("op %d", op))
		}
	}
	h.checkExact("final")
}

// TestStressLargeRho uses an aggressive ρ = 1.0 (the band is [ε, 2ε]) to
// maximize don't-care freedom; the sandwich guarantee must still hold.
func TestStressLargeRho(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cfg := Config{Dims: 2, Eps: 3, MinPts: 5, Rho: 1.0}
	f, err := NewFullyDynamic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := &fullDynHarness{
		t: t, f: f, audit: true,
		pool: genBlobs(rng, 2, 3, 60, 15, 70, 7),
	}
	for op := 0; h.next < len(h.pool); op++ {
		if rng.Float64() < 0.7 {
			h.insert()
		} else {
			h.deleteRandom(rng)
		}
		if op%60 == 59 {
			h.checkSandwich(fmt.Sprintf("op %d", op))
		}
	}
	h.checkSandwich("final")
}

// TestOneDimensional: d = 1 is a legal configuration (cells are intervals).
func TestOneDimensional(t *testing.T) {
	cfg := Config{Dims: 1, Eps: 1, MinPts: 3, Rho: 0}
	f, err := NewFullyDynamic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var pts []geom.Point
	var ids []PointID
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		var x float64
		if i%2 == 0 {
			x = rng.NormFloat64() * 2
		} else {
			x = 50 + rng.NormFloat64()*2
		}
		pt := geom.Point{x}
		id, err := f.Insert(pt)
		if err != nil {
			t.Fatal(err)
		}
		pts = append(pts, pt)
		ids = append(ids, id)
	}
	got, err := f.GroupBy(ids)
	if err != nil {
		t.Fatal(err)
	}
	want := expectedResult(StaticDBSCAN(pts, 1, cfg.Eps, cfg.MinPts), ids)
	requireSameResult(t, "1D", got, want)
	if err := f.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestAdversarialGridLine places points exactly on cell boundaries and at
// exact ε distances — the floating-point edge cases.
func TestAdversarialGridLine(t *testing.T) {
	cfg := Config{Dims: 2, Eps: 2, MinPts: 2, Rho: 0}
	f, err := NewFullyDynamic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Points at exact multiples of eps along a line: consecutive points at
	// distance exactly eps must chain into one cluster.
	var pts []geom.Point
	var ids []PointID
	for i := 0; i < 10; i++ {
		pt := geom.Point{float64(i) * 2.0, 0}
		id, err := f.Insert(pt)
		if err != nil {
			t.Fatal(err)
		}
		pts = append(pts, pt)
		ids = append(ids, id)
	}
	got, err := f.GroupBy(ids)
	if err != nil {
		t.Fatal(err)
	}
	want := expectedResult(StaticDBSCAN(pts, 2, cfg.Eps, cfg.MinPts), ids)
	requireSameResult(t, "exact-eps chain", got, want)
	if len(got.Groups) != 1 {
		t.Fatalf("chain at exact ε must be one cluster, got %d", len(got.Groups))
	}
	// Delete every other point: split into isolated pairs/noise per oracle.
	for i := 1; i < 10; i += 2 {
		if err := f.Delete(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	var alivePts []geom.Point
	var aliveIDs []PointID
	for i := 0; i < 10; i += 2 {
		alivePts = append(alivePts, pts[i])
		aliveIDs = append(aliveIDs, ids[i])
	}
	got, err = f.GroupBy(aliveIDs)
	if err != nil {
		t.Fatal(err)
	}
	want = expectedResult(StaticDBSCAN(alivePts, 2, cfg.Eps, cfg.MinPts), aliveIDs)
	requireSameResult(t, "after decimation", got, want)
	if err := f.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestFullyDynamicDuplicates: exact duplicate points stress same-cell
// handling through both update directions, and the counting subtree's depth
// cap: 40 duplicates pass countTreeAt, and a point in a sparse neighbouring
// cell whose ball cuts their cell counts it, building a subtree whose points
// all share one leaf at the cap. That point's core test reads the subtree
// again on every duplicate's deletion until it is deleted itself.
func TestFullyDynamicDuplicates(t *testing.T) {
	cfg := Config{Dims: 2, Eps: 1, MinPts: 5, Rho: 0}
	f, err := NewFullyDynamic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ids []PointID
	for i := 0; i < 40; i++ {
		id, err := f.Insert(geom.Point{3, 3})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	res, _ := f.GroupBy(ids)
	if len(res.Groups) != 1 || len(res.Groups[0]) != 40 {
		t.Fatalf("40 duplicates should form one cluster: %+v", res)
	}
	dups := f.points[ids[0]].cell
	if dups.count != nil {
		t.Fatal("a dense cell built a counting subtree that no count read")
	}
	// (3.9, 3) is 0.9 from the duplicates, in the next cell along x; the
	// far side of the duplicates' cell lies beyond ε.
	cutter, err := f.Insert(geom.Point{3.9, 3})
	if err != nil {
		t.Fatal(err)
	}
	if dups.count == nil || dups.count.Len() != 40 {
		t.Fatal("counting the duplicates' cell from a sparse neighbour built no 40-point subtree")
	}
	if err := f.Audit(); err != nil {
		t.Fatal(err)
	}
	// Delete down to MinPts-1: the cluster must dissolve into noise.
	for len(ids) > 4 {
		if len(ids) == 20 {
			if err := f.Delete(cutter); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Delete(ids[len(ids)-1]); err != nil {
			t.Fatal(err)
		}
		ids = ids[:len(ids)-1]
	}
	res, _ = f.GroupBy(ids)
	if len(res.Groups) != 0 || len(res.Noise) != 4 {
		t.Fatalf("4 duplicates below MinPts should be noise: %+v", res)
	}
	if err := f.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestNegativeCoordinates: the grid must handle negative coordinates
// (floor semantics) identically.
func TestNegativeCoordinates(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	cfg := Config{Dims: 2, Eps: 3, MinPts: 4, Rho: 0}
	s, err := NewSemiDynamic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var pts []geom.Point
	var ids []PointID
	for i := 0; i < 300; i++ {
		pt := geom.Point{rng.NormFloat64()*20 - 30, rng.NormFloat64()*20 - 30}
		id, err := s.Insert(pt)
		if err != nil {
			t.Fatal(err)
		}
		pts = append(pts, pt)
		ids = append(ids, id)
	}
	got, err := s.GroupBy(ids)
	if err != nil {
		t.Fatal(err)
	}
	want := expectedResult(StaticDBSCAN(pts, 2, cfg.Eps, cfg.MinPts), ids)
	requireSameResult(t, "negative coords", got, want)
	if err := s.Audit(); err != nil {
		t.Fatal(err)
	}
}
