package kdtree

import (
	"math"
	"testing"

	"dyndbscan/internal/geom"
)

// FuzzKDTreeProbe decodes a byte stream into insert, delete and probe ops and
// checks the tree against brute force after every op: the banded Probe
// contract, exact Nearest, Len/Has, and the structural invariants. The first
// byte picks the dimension (1–5). Each op byte b then selects, by b%4:
// insert (two cases; dims coordinate bytes follow), delete (one byte picks a
// live id) or probe (dims coordinate bytes and a radius byte follow; b/4%4
// picks ρ). Coordinates are int8/4, a coarse lattice, so coincident points,
// ties and points exactly on the band edges are common. Inputs are cut at
// maxFuzzInput bytes: the per-op checks are linear in the tree size, and a
// few hundred points already reach splits, rebuilds and deep trees.
func FuzzKDTreeProbe(f *testing.F) {
	const maxFuzzInput = 2048
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		if len(data) > maxFuzzInput {
			data = data[:maxFuzzInput]
		}
		d := 1 + int(data[0])%5
		data = data[1:]
		take := func(n int) ([]byte, bool) {
			if len(data) < n {
				return nil, false
			}
			b := data[:n]
			data = data[n:]
			return b, true
		}
		point := func(b []byte) geom.Point {
			p := make(geom.Point, d)
			for i := range p {
				p[i] = float64(int8(b[i])) / 4
			}
			return p
		}
		tr := New(d)
		live := make(map[int64]geom.Point)
		var order []int64 // live ids, for the delete selector
		next := int64(0)
		for op := 0; len(data) > 0; op++ {
			code := data[0]
			data = data[1:]
			switch code % 4 {
			case 0, 1:
				b, ok := take(d)
				if !ok {
					return
				}
				p := point(b)
				tr.Insert(next, p)
				live[next] = p
				order = append(order, next)
				next++
			case 2:
				b, ok := take(1)
				if !ok || len(order) == 0 {
					continue
				}
				k := int(b[0]) % len(order)
				id := order[k]
				order[k] = order[len(order)-1]
				order = order[:len(order)-1]
				tr.Delete(id)
				delete(live, id)
				if tr.Has(id) {
					t.Fatalf("op %d: deleted id %d still present", op, id)
				}
			case 3:
				b, ok := take(d + 1)
				if !ok {
					return
				}
				q := point(b)
				rLow := float64(b[d]) / 8
				rHigh := rLow * (1 + float64(code/4%4)/4)
				id, pt, found := tr.Probe(q, rLow, rHigh)
				if found {
					want, isLive := live[id]
					if !isLive || !geom.Equal(pt, want, d) {
						t.Fatalf("op %d: probe returned id %d not live at that point", op, id)
					}
					if geom.DistSq(q, pt, d) > rHigh*rHigh {
						t.Fatalf("op %d: probe returned a point at %v > rHigh %v", op, geom.Dist(q, pt, d), rHigh)
					}
				}
				best := math.Inf(1)
				for _, p := range live {
					best = math.Min(best, geom.DistSq(q, p, d))
				}
				if !found && best <= rLow*rLow {
					t.Fatalf("op %d: probe missed a point within rLow %v", op, rLow)
				}
				_, _, gotSq, ok := tr.Nearest(q)
				if ok != (len(live) > 0) || (ok && gotSq != best) {
					t.Fatalf("op %d: Nearest = %v, %v; brute force %v over %d points", op, gotSq, ok, best, len(live))
				}
			}
			if tr.Len() != len(live) {
				t.Fatalf("op %d: Len %d, want %d", op, tr.Len(), len(live))
			}
			if err := checkInvariants(tr); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
	})
}
