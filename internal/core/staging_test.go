package core

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"dyndbscan/internal/geom"
)

// TestInsertStagedEquivalence checks that the staged insertion path lands in
// exactly the state the plain path produces, on all three algorithms.
func TestInsertStagedEquivalence(t *testing.T) {
	cfg := Config{Dims: 2, Eps: 3, MinPts: 4, Rho: 0}
	rng := rand.New(rand.NewSource(17))
	var pts []geom.Point
	for i := 0; i < 400; i++ {
		cx, cy := float64(rng.Intn(3)*12), float64(rng.Intn(3)*12)
		pts = append(pts, geom.Point{cx + rng.NormFloat64()*2, cy + rng.NormFloat64()*2, 99 /* extra coord ignored */})
	}
	type clusterer interface {
		Insert(geom.Point) (PointID, error)
		InsertStaged(StagedPoint, PointID) error
		GroupBy([]PointID) (Result, error)
		IDs() []PointID
	}
	mk := map[string]func() clusterer{
		"SemiDynamic":  func() clusterer { s, _ := NewSemiDynamic(cfg); return s },
		"FullyDynamic": func() clusterer { f, _ := NewFullyDynamic(cfg); return f },
		"IncDBSCAN":    func() clusterer { ic, _ := NewIncDBSCAN(cfg); return ic },
	}
	st := NewStager(cfg)
	for name, make := range mk {
		t.Run(name, func(t *testing.T) {
			plain, staged := make(), make()
			var pIDs, sIDs []PointID
			for _, pt := range pts {
				id, err := plain.Insert(pt)
				if err != nil {
					t.Fatal(err)
				}
				pIDs = append(pIDs, id)
				sp, err := st.Stage(pt)
				if err != nil {
					t.Fatal(err)
				}
				if err := staged.InsertStaged(sp, id); err != nil {
					t.Fatal(err)
				}
				sIDs = append(sIDs, id)
			}
			if !reflect.DeepEqual(pIDs, sIDs) {
				t.Fatal("staged path holds different ids")
			}
			rp, err := plain.GroupBy(pIDs)
			if err != nil {
				t.Fatal(err)
			}
			rs, err := staged.GroupBy(sIDs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rp, rs) {
				t.Fatalf("staged clustering differs:\n%+v\nvs\n%+v", rp, rs)
			}
		})
	}
}

func TestStagerValidation(t *testing.T) {
	st := NewStager(Config{Dims: 2, Eps: 1, MinPts: 1})
	if _, err := st.Stage(geom.Point{1}); !errors.Is(err, ErrBadPoint) {
		t.Fatalf("short point: %v", err)
	}
	if _, err := st.Stage(geom.Point{1, math.NaN()}); !errors.Is(err, ErrBadPoint) {
		t.Fatalf("NaN point: %v", err)
	}
	// Staged points are clones: mutating the input must not reach the staged copy.
	in := geom.Point{1, 2, 3}
	sp, err := st.Stage(in)
	if err != nil {
		t.Fatal(err)
	}
	in[0] = 99
	if sp.Point()[0] != 1 || len(sp.Point()) != 2 {
		t.Fatalf("staged point not an owned dims-length clone: %v", sp.Point())
	}
	// A zero StagedPoint is rejected, not inserted.
	f, _ := NewFullyDynamic(Config{Dims: 2, Eps: 1, MinPts: 1, Rho: 0})
	if err := f.InsertStaged(StagedPoint{}, 0); !errors.Is(err, ErrBadPoint) {
		t.Fatalf("zero StagedPoint: %v", err)
	}
}

// TestInsertStagedHandles checks that InsertStaged stores a point under the
// given handle, refuses a live handle without changing anything, and lifts
// the mint counter so a later minting Insert never reuses a given handle.
func TestInsertStagedHandles(t *testing.T) {
	cfg := Config{Dims: 2, Eps: 1, MinPts: 1}
	st := NewStager(cfg)
	f, _ := NewFullyDynamic(cfg)
	stage := func(pt geom.Point) StagedPoint {
		t.Helper()
		sp, err := st.Stage(pt)
		if err != nil {
			t.Fatal(err)
		}
		return sp
	}
	if err := f.InsertStaged(stage(geom.Point{0, 0}), 41); err != nil {
		t.Fatal(err)
	}
	if pt, ok := f.PointAt(41); !ok || pt[0] != 0 {
		t.Fatalf("PointAt(41) = %v, %v", pt, ok)
	}
	if err := f.InsertStaged(stage(geom.Point{5, 5}), 41); !errors.Is(err, ErrLivePoint) {
		t.Fatalf("live handle: %v", err)
	}
	if f.Len() != 1 {
		t.Fatalf("refused insert changed Len to %d", f.Len())
	}
	if err := f.InsertStaged(stage(geom.Point{9, 9}), 3); err != nil {
		t.Fatal(err)
	}
	if n := f.NextPointID(); n != 42 {
		t.Fatalf("NextPointID = %d, want 42", n)
	}
	if id, err := f.Insert(geom.Point{1, 1}); err != nil || id != 42 {
		t.Fatalf("minting Insert = %d, %v; want 42", id, err)
	}
}
