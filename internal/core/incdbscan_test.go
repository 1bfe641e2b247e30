package core

import (
	"fmt"
	"math/rand"
	"testing"

	"dyndbscan/internal/geom"
)

// TestIncDBSCANExactInsertOnly: IncDBSCAN must track exact DBSCAN under
// insertions.
func TestIncDBSCANExactInsertOnly(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			pts := genBlobs(rng, 2, 4, 70, 25, 90, 8)
			cfg := Config{Dims: 2, Eps: 3, MinPts: 5}
			ic, err := NewIncDBSCAN(cfg)
			if err != nil {
				t.Fatal(err)
			}
			runExactComparison(t, ic, pts, 2, cfg.Eps, cfg.MinPts, 60)
		})
	}
}

// TestIncDBSCANExactMixed: the deletion algorithm (BFS threads with meet-up,
// fragment relabeling) must keep exact DBSCAN semantics under mixed updates,
// in 2D and 3D.
func TestIncDBSCANExactMixed(t *testing.T) {
	cases := []struct {
		dims   int
		eps    float64
		minPts int
		seed   int64
	}{
		{2, 3, 5, 1},
		{2, 3, 5, 2},
		{3, 6, 4, 3},
		{3, 6, 4, 4},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("d%d seed%d", tc.dims, tc.seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			cfg := Config{Dims: tc.dims, Eps: tc.eps, MinPts: tc.minPts}
			ic, err := NewIncDBSCAN(cfg)
			if err != nil {
				t.Fatal(err)
			}
			pool := genBlobs(rng, tc.dims, 3, 60, 20, 80, 7)
			var pts []geom.Point
			var ids []PointID
			next := 0
			for op := 0; next < len(pool); op++ {
				if rng.Float64() < 0.7 {
					p := pool[next]
					next++
					id, err := ic.Insert(p)
					if err != nil {
						t.Fatal(err)
					}
					pts = append(pts, p)
					ids = append(ids, id)
				} else if len(ids) > 0 {
					k := rng.Intn(len(ids))
					if err := ic.Delete(ids[k]); err != nil {
						t.Fatal(err)
					}
					last := len(ids) - 1
					ids[k], ids[last] = ids[last], ids[k]
					pts[k], pts[last] = pts[last], pts[k]
					ids, pts = ids[:last], pts[:last]
				}
				if op%40 == 39 {
					got, err := ic.GroupBy(ids)
					if err != nil {
						t.Fatal(err)
					}
					want := expectedResult(StaticDBSCAN(pts, tc.dims, tc.eps, tc.minPts), ids)
					requireSameResult(t, fmt.Sprintf("op %d", op), got, want)
				}
			}
			// Drain.
			for len(ids) > 0 {
				k := rng.Intn(len(ids))
				if err := ic.Delete(ids[k]); err != nil {
					t.Fatal(err)
				}
				last := len(ids) - 1
				ids[k], ids[last] = ids[last], ids[k]
				pts[k], pts[last] = pts[last], pts[k]
				ids, pts = ids[:last], pts[:last]
				if len(ids)%50 == 0 {
					got, err := ic.GroupBy(ids)
					if err != nil {
						t.Fatal(err)
					}
					want := expectedResult(StaticDBSCAN(pts, tc.dims, tc.eps, tc.minPts), ids)
					requireSameResult(t, fmt.Sprintf("drain %d", len(ids)), got, want)
				}
			}
		})
	}
}

// TestIncDBSCANSplit exercises the split path directly: cutting a bridge
// must produce two clusters with consistent labels.
func TestIncDBSCANSplit(t *testing.T) {
	cfg := Config{Dims: 2, Eps: 1.5, MinPts: 3}
	ic, _ := NewIncDBSCAN(cfg)
	var all []PointID
	for i := 0; i < 6; i++ {
		id, _ := ic.Insert(geom.Point{float64(i % 3), float64(i / 3)})
		all = append(all, id)
		id, _ = ic.Insert(geom.Point{20 + float64(i%3), float64(i / 3)})
		all = append(all, id)
	}
	var bridge []PointID
	for x := 3.0; x < 20; x += 1.0 {
		for j := 0; j < 3; j++ {
			id, _ := ic.Insert(geom.Point{x, float64(j) * 0.4})
			bridge = append(bridge, id)
		}
	}
	res, _ := ic.GroupBy(all)
	if len(res.Groups) != 1 {
		t.Fatalf("expected 1 cluster with bridge, got %d", len(res.Groups))
	}
	for _, id := range bridge {
		if err := ic.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	res, _ = ic.GroupBy(all)
	if len(res.Groups) != 2 {
		t.Fatalf("expected 2 clusters after cutting bridge, got %d", len(res.Groups))
	}
}

// TestIncDBSCANMergeHistory: merging many clusters must not lose points
// (cluster ids are merged through union-find rather than relabeling).
func TestIncDBSCANMergeHistory(t *testing.T) {
	cfg := Config{Dims: 2, Eps: 1.1, MinPts: 2}
	ic, _ := NewIncDBSCAN(cfg)
	// Five islands of 2 points each, then connectors merging all of them.
	var ids []PointID
	for i := 0; i < 5; i++ {
		x := float64(i) * 4
		a, _ := ic.Insert(geom.Point{x, 0})
		b, _ := ic.Insert(geom.Point{x + 1, 0})
		ids = append(ids, a, b)
	}
	res, _ := ic.GroupBy(ids)
	if len(res.Groups) != 5 {
		t.Fatalf("expected 5 islands, got %d", len(res.Groups))
	}
	for i := 0; i < 4; i++ {
		x := float64(i)*4 + 2
		id, _ := ic.Insert(geom.Point{x, 0})
		ids = append(ids, id)
		id, _ = ic.Insert(geom.Point{x + 1, 0})
		ids = append(ids, id)
	}
	res, _ = ic.GroupBy(ids)
	if len(res.Groups) != 1 {
		t.Fatalf("expected 1 merged cluster, got %d", len(res.Groups))
	}
	if got := len(res.Groups[0]); got != len(ids) {
		t.Fatalf("merged cluster has %d members, want %d", got, len(ids))
	}
}

func TestIncDBSCANErrors(t *testing.T) {
	ic, _ := NewIncDBSCAN(Config{Dims: 2, Eps: 1, MinPts: 2})
	if err := ic.Delete(3); err != ErrUnknownPoint {
		t.Fatalf("unknown delete: %v", err)
	}
	if _, err := ic.GroupBy([]PointID{5}); err != ErrUnknownPoint {
		t.Fatalf("unknown query: %v", err)
	}
	if _, err := ic.Insert(geom.Point{1}); err != ErrBadPoint {
		t.Fatalf("short point: %v", err)
	}
}
