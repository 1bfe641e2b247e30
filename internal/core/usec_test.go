package core

import (
	"math/rand"
	"sort"
	"testing"

	"dyndbscan/internal/geom"
)

// solveUSECLS solves an instance of USEC with line separation using a fully
// dynamic clusterer, exactly as in the proof of Lemma 2 (the reduction
// behind Theorem 2 and the lower-bound rows of Table 1): insert the red
// points; for each blue point p insert p and a dummy p' shifted by 1 on the
// first dimension, ask a C-group-by query with Q = {p, p'}, and report "yes"
// iff they ever share a cluster. The dummy has exactly two points in its
// ball, so it is never core; it joins p's cluster iff p is core, which with
// MinPts = 3 means some red point is within distance 1 of p.
func solveUSECLS(t *testing.T, dims int, red, blue []geom.Point, rho float64) bool {
	f, err := NewFullyDynamic(Config{Dims: dims, Eps: 1, MinPts: 3, Rho: rho})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range red {
		if _, err := f.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range blue {
		pID, err := f.Insert(b)
		if err != nil {
			t.Fatal(err)
		}
		dummy := b.Clone()
		dummy[0] += 1
		dID, err := f.Insert(dummy)
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.GroupBy([]PointID{pID, dID})
		if err != nil {
			t.Fatal(err)
		}
		same := res.SameGroup(pID, dID)
		if err := f.Delete(dID); err != nil {
			t.Fatal(err)
		}
		if err := f.Delete(pID); err != nil {
			t.Fatal(err)
		}
		if same {
			return true
		}
	}
	return false
}

// snap20 rounds x to a multiple of 2^-20. The reduction places the dummy at
// p + (1,0,…,0) and relies on dist(p, dummy) being exactly ε = 1; with
// arbitrary float64 coordinates (x+1)−x can round away from 1, so test
// coordinates are snapped to dyadic rationals where the arithmetic is exact.
func snap20(x float64) float64 {
	const s = 1 << 20
	return float64(int64(x*s)) / s
}

// TestUSECLSReduction validates the Lemma 2 reduction against brute force on
// random separated instances. Beyond demonstrating Table 1's hardness
// connection, it is a sharp integration test: every blue probe exercises
// insert → query → delete consistency at the ε boundary.
//
// Note the reduction is stated for ρ = 0 (exact distance threshold); with
// ρ > 0 the clusterer may legitimately answer "yes" for pairs in the
// (1, 1+ρ] band, so the test uses instances whose pair distances avoid that
// band when running with ρ > 0.
func TestUSECLSReduction(t *testing.T) {
	const dims = 3
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nRed := 1 + rng.Intn(25)
		nBlue := 1 + rng.Intn(25)
		sep := snap20(0.4 + rng.Float64()) // separating plane at x = sep
		var red, blue []geom.Point
		for i := 0; i < nRed; i++ {
			p := geom.Point{snap20(sep - 1e-5 - rng.Float64()*1.2), snap20(rng.Float64() * 2), snap20(rng.Float64() * 2)}
			red = append(red, p)
		}
		for i := 0; i < nBlue; i++ {
			p := geom.Point{snap20(sep + 1e-5 + rng.Float64()*1.2), snap20(rng.Float64() * 2), snap20(rng.Float64() * 2)}
			blue = append(blue, p)
		}
		want := false
		for _, r := range red {
			for _, b := range blue {
				if geom.DistSq(r, b, dims) <= 1 {
					want = true
				}
			}
		}
		if got := solveUSECLS(t, dims, red, blue, 0); got != want {
			t.Fatalf("seed %d: reduction answered %v, brute force says %v", seed, got, want)
		}
	}
}

// TestUSECLSWithRho runs the reduction with ρ > 0 on instances that avoid
// the don't-care band, where the approximate answer must still be exact.
func TestUSECLSWithRho(t *testing.T) {
	const dims = 3
	const rho = 0.01
	for seed := int64(100); seed < 115; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var red, blue []geom.Point
		for i := 0; i < 15; i++ {
			red = append(red, geom.Point{-rng.Float64(), rng.Float64() * 3, rng.Float64() * 3})
			blue = append(blue, geom.Point{rng.Float64(), rng.Float64() * 3, rng.Float64() * 3})
		}
		// Reject instances with a pair distance inside (1, (1+rho)*1.05].
		want := false
		banned := false
		for _, r := range red {
			for _, b := range blue {
				d := geom.Dist(r, b, dims)
				if d <= 1 {
					want = true
				} else if d <= (1+rho)*1.05 {
					banned = true
				}
			}
		}
		if banned {
			continue
		}
		if got := solveUSECLS(t, dims, red, blue, rho); got != want {
			t.Fatalf("seed %d: rho-reduction answered %v, want %v", seed, got, want)
		}
	}
}

// TestUSECViaDivideAndConquer executes the Lemma 1 reduction: general USEC
// (no separating plane) solved by recursive splitting on the first
// dimension, invoking the Lemma 2 USEC-LS solver (which itself runs on the
// dynamic clusterer) on the two cross instances of each split. Together with
// TestUSECLSReduction this makes the whole reduction chain behind Table 1
// executable.
func TestUSECViaDivideAndConquer(t *testing.T) {
	const dims = 3
	type colored struct {
		pt  geom.Point
		red bool
	}
	var solve func(pts []colored) bool
	solve = func(pts []colored) bool {
		if len(pts) <= 1 {
			return false
		}
		// Split by median of the first coordinate.
		sorted := append([]colored{}, pts...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].pt[0] < sorted[j].pt[0] })
		mid := len(sorted) / 2
		left, right := sorted[:mid], sorted[mid:]
		if solve(left) || solve(right) {
			return true
		}
		// Two USEC-LS instances across the split plane.
		var lRed, lBlue, rRed, rBlue []geom.Point
		for _, c := range left {
			if c.red {
				lRed = append(lRed, c.pt)
			} else {
				lBlue = append(lBlue, c.pt)
			}
		}
		for _, c := range right {
			if c.red {
				rRed = append(rRed, c.pt)
			} else {
				rBlue = append(rBlue, c.pt)
			}
		}
		if len(lRed) > 0 && len(rBlue) > 0 && solveUSECLS(t, dims, lRed, rBlue, 0) {
			return true
		}
		if len(rRed) > 0 && len(lBlue) > 0 && solveUSECLS(t, dims, rRed, lBlue, 0) {
			return true
		}
		return false
	}
	for seed := int64(200); seed < 212; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(20)
		pts := make([]colored, n)
		for i := range pts {
			pts[i] = colored{
				pt: geom.Point{
					snap20(rng.Float64() * 2.5),
					snap20(rng.Float64() * 2.5),
					snap20(rng.Float64() * 2.5),
				},
				red: rng.Intn(2) == 0,
			}
		}
		want := false
		for _, a := range pts {
			for _, b := range pts {
				if a.red && !b.red && geom.DistSq(a.pt, b.pt, dims) <= 1 {
					want = true
				}
			}
		}
		if got := solve(pts); got != want {
			t.Fatalf("seed %d: divide-and-conquer USEC answered %v, brute force says %v", seed, got, want)
		}
	}
}

// TestUSECLSDummyNeverCore asserts the key structural fact of the reduction.
func TestUSECLSDummyNeverCore(t *testing.T) {
	f, _ := NewFullyDynamic(Config{Dims: 2, Eps: 1, MinPts: 3, Rho: 0})
	for i := 0; i < 10; i++ {
		if _, err := f.Insert(geom.Point{rand.Float64(), rand.Float64()}); err != nil {
			t.Fatal(err)
		}
	}
	p, _ := f.Insert(geom.Point{5, 0})
	d, _ := f.Insert(geom.Point{6, 0})
	rec := f.points[d]
	if rec.isCore() {
		t.Fatal("dummy point must not be core: its ball holds only 2 points")
	}
	res, _ := f.GroupBy([]PointID{p, d})
	if res.SameGroup(p, d) {
		t.Fatal("isolated blue point must not cluster with its dummy")
	}
}
