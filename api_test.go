package dyndbscan_test

import (
	"errors"
	"math/rand"
	"testing"

	"dyndbscan"
)

// TestPublicAPIRoundTrip exercises the basic update and query surface of an
// Engine for each algorithm.
func TestPublicAPIRoundTrip(t *testing.T) {
	algos := map[string]dyndbscan.Algorithm{
		"semi": dyndbscan.AlgoSemiDynamic,
		"full": dyndbscan.AlgoFullyDynamic,
		"inc":  dyndbscan.AlgoIncDBSCAN,
	}
	for name, algo := range algos {
		t.Run(name, func(t *testing.T) {
			cl, err := dyndbscan.New(dyndbscan.WithAlgorithm(algo),
				dyndbscan.WithEps(2), dyndbscan.WithMinPts(3), dyndbscan.WithRho(0.001))
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			if got := cl.Config().MinPts; got != 3 {
				t.Fatalf("Config().MinPts = %d", got)
			}
			var ids []dyndbscan.PointID
			for i := 0; i < 5; i++ {
				id, err := cl.Insert(dyndbscan.Point{float64(i), 0})
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
			}
			if cl.Len() != 5 || len(cl.IDs()) != 5 {
				t.Fatalf("Len=%d IDs=%d", cl.Len(), len(cl.IDs()))
			}
			if !cl.Has(ids[0]) || cl.Has(999) {
				t.Fatal("Has answers wrong")
			}
			res, err := cl.GroupBy(ids)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Groups) != 1 || len(res.Groups[0]) != 5 {
				t.Fatalf("%s: expected one 5-point cluster, got %+v", name, res)
			}
			err = cl.Delete(ids[0])
			if name == "semi" {
				if !errors.Is(err, dyndbscan.ErrDeletesUnsupported) {
					t.Fatalf("semi delete: %v", err)
				}
			} else if err != nil {
				t.Fatal(err)
			}
			if _, err := cl.GroupBy([]dyndbscan.PointID{12345}); !errors.Is(err, dyndbscan.ErrUnknownPoint) {
				t.Fatalf("unknown query: %v", err)
			}
			if _, err := cl.Insert(dyndbscan.Point{1}); !errors.Is(err, dyndbscan.ErrBadPoint) {
				t.Fatalf("bad point: %v", err)
			}
		})
	}
}

// TestPublicStaticOracle checks the exported offline clustering.
func TestPublicStaticOracle(t *testing.T) {
	pts := []dyndbscan.Point{{0, 0}, {1, 0}, {0, 1}, {50, 50}}
	sc := dyndbscan.StaticDBSCAN(pts, 2, 1.5, 3)
	if sc.NumClust != 1 {
		t.Fatalf("NumClust=%d", sc.NumClust)
	}
	if !sc.SameCluster(0, 1) || sc.SameCluster(0, 3) || !sc.IsNoise(3) {
		t.Fatal("oracle structure wrong")
	}
}

// TestPublicDynamicMatchesStatic drives a fully-dynamic Engine at ρ=0 and
// compares group counts against the public oracle — an end-to-end check
// through the exported API only.
func TestPublicDynamicMatchesStatic(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	cfg := dyndbscan.Config{Dims: 2, Eps: 5, MinPts: 4, Rho: 0}
	cl, err := dyndbscan.New(dyndbscan.WithEps(cfg.Eps), dyndbscan.WithMinPts(cfg.MinPts), dyndbscan.WithRho(cfg.Rho))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var pts []dyndbscan.Point
	var ids []dyndbscan.PointID
	for i := 0; i < 400; i++ {
		var pt dyndbscan.Point
		if i%10 == 0 {
			pt = dyndbscan.Point{rng.Float64() * 200, rng.Float64() * 200}
		} else {
			cx, cy := float64(20+(i%3)*60), float64(30+(i%2)*80)
			pt = dyndbscan.Point{cx + rng.NormFloat64()*2, cy + rng.NormFloat64()*2}
		}
		id, err := cl.Insert(pt)
		if err != nil {
			t.Fatal(err)
		}
		pts = append(pts, pt)
		ids = append(ids, id)
	}
	// Delete a third.
	for i := 0; i < 130; i++ {
		k := rng.Intn(len(ids))
		if err := cl.Delete(ids[k]); err != nil {
			t.Fatal(err)
		}
		last := len(ids) - 1
		ids[k], ids[last] = ids[last], ids[k]
		pts[k], pts[last] = pts[last], pts[k]
		ids, pts = ids[:last], pts[:last]
	}
	res, err := cl.GroupBy(ids)
	if err != nil {
		t.Fatal(err)
	}
	sc := dyndbscan.StaticDBSCAN(pts, 2, cfg.Eps, cfg.MinPts)
	if len(res.Groups) != sc.NumClust {
		t.Fatalf("dynamic found %d clusters, oracle %d", len(res.Groups), sc.NumClust)
	}
	// Every queried pair must agree on same-cluster membership.
	for trial := 0; trial < 200; trial++ {
		i, j := rng.Intn(len(ids)), rng.Intn(len(ids))
		if i == j {
			continue
		}
		if res.SameGroup(ids[i], ids[j]) != sc.SameCluster(i, j) {
			t.Fatalf("pair (%d,%d) disagrees with oracle", i, j)
		}
	}
}
