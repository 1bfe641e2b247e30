package quadtree

import (
	"math"
	"testing"
	"testing/quick"

	"dyndbscan/internal/geom"
)

// TestQuickBand: for arbitrary point sets, queries and deletions, the count
// stays inside [|B(q,rLow)|, |B(q,rHigh)|] — the exact contract Section 7.3
// requires from the approximate range count structure.
func TestQuickBand(t *testing.T) {
	f := func(coords []float64, deletes []uint8, qx, qy, r, band float64) bool {
		tr := cube(2, 1000)
		live := make(map[int64]geom.Point)
		for i := 0; i+1 < len(coords); i += 2 {
			id := int64(i / 2)
			p := geom.Point{fold(coords[i]), fold(coords[i+1])}
			tr.Insert(p)
			live[id] = p
		}
		for _, d := range deletes {
			id := int64(d)
			if p, ok := live[id]; ok {
				tr.Delete(p)
				delete(live, id)
			}
		}
		if tr.Len() != len(live) {
			return false
		}
		rLow := math.Abs(fold(r))
		rHigh := rLow * (1 + math.Abs(fold(band))/2000)
		q := geom.Point{fold(qx), fold(qy)}
		k := bandCount(tr, q, rLow, rHigh)
		lo, hi := 0, 0
		for _, p := range live {
			d := geom.DistSq(q, p, 2)
			if d <= rLow*rLow {
				lo++
			}
			if d <= rHigh*rHigh {
				hi++
			}
		}
		return k >= lo && k <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func fold(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(x, 1000)
}
