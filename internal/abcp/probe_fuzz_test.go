package abcp

import (
	"math"
	"testing"

	"dyndbscan/internal/geom"
)

// FuzzListProbe decodes a byte stream into appends, removals and probes on
// one List and checks it against brute force after every op: the banded
// Probe contract (a node within rHigh whenever one lies within rLow, never
// one farther than rHigh, and only live nodes), Len, and the chunk
// structure (Validate).
//
// Byte 0 picks the dimension d = 1 + b%5, how many coordinates beyond d
// every point carries (b/5%3), ρ (b/15%3 selects 0, 0.001 or 0.5) and the
// insertion order (b/45%2): "shuffled" places each point independently,
// "walk" moves it from the previous one by a small step, so chunks hold
// nearby points. Byte 1 gives rLow = (1 + b%16)/4. Each later op byte b
// acts by b%4: 0 appends a point (d coordinate bytes follow), 1 appends a
// copy of a live point (a selector byte follows), 2 removes a live node (a
// selector byte follows), 3 probes (d coordinate bytes follow). Coordinates
// are a lattice of step 1/4, so coincident points and points exactly on a
// radius are common. The coordinates beyond d are huge and differ from
// point to point: a box or distance that read them would fail the checks.
// Inputs are cut at maxFuzzInput bytes: each check is linear in the list.
func FuzzListProbe(f *testing.F) {
	const maxFuzzInput = 2048
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		if len(data) > maxFuzzInput {
			data = data[:maxFuzzInput]
		}
		d := 1 + int(data[0])%5
		extra := int(data[0]) / 5 % 3
		rho := []float64{0, 0.001, 0.5}[int(data[0])/15%3]
		walk := int(data[0])/45%2 == 1
		rLow := float64(1+int(data[1])%16) / 4
		rHigh := rLow * (1 + rho)
		data = data[2:]
		l := NewList(d, rLow, rHigh)
		var live []*Node
		at := make(geom.Point, d) // the walk's current position
		next := int64(0)
		// point decodes d coordinate bytes, relative to the walk's position
		// in walk order, and pads the point with junk beyond d.
		point := func(junk float64) (geom.Point, bool) {
			if len(data) < d {
				return nil, false
			}
			p := make(geom.Point, d+extra)
			for i := 0; i < d; i++ {
				if walk {
					p[i] = at[i] + float64(int8(data[i])%4)/4
				} else {
					p[i] = float64(int8(data[i])) / 4
				}
			}
			for i := d; i < len(p); i++ {
				p[i] = junk * float64(i)
			}
			data = data[d:]
			return p, true
		}
		selector := func() (int, bool) {
			if len(data) == 0 || len(live) == 0 {
				return 0, false
			}
			k := int(data[0]) % len(live)
			data = data[1:]
			return k, true
		}
		for op := 0; len(data) > 0; op++ {
			code := data[0]
			data = data[1:]
			switch code % 4 {
			case 0:
				p, ok := point(1e9 * float64(next+1))
				if !ok {
					return
				}
				if walk {
					copy(at, p[:d])
				}
				live = append(live, &Node{ID: next, Pt: p})
				l.Append(live[len(live)-1])
				next++
			case 1:
				k, ok := selector()
				if !ok {
					continue
				}
				p := append(geom.Point(nil), live[k].Pt...)
				if extra > 0 {
					p[d] = -p[d]
				}
				live = append(live, &Node{ID: next, Pt: p})
				l.Append(live[len(live)-1])
				next++
			case 2:
				k, ok := selector()
				if !ok {
					continue
				}
				l.Remove(live[k])
				live = append(live[:k], live[k+1:]...)
			case 3:
				q, ok := point(-7e8)
				if !ok {
					return
				}
				n, found := l.Probe(q)
				best, isLive := math.Inf(1), false
				for _, m := range live {
					best = math.Min(best, geom.DistSq(q, m.Pt, d))
					isLive = isLive || m == n
				}
				switch {
				case found != (n != nil):
					t.Fatalf("op %d: probe returned node %v with found=%v", op, n, found)
				case found && !isLive:
					t.Fatalf("op %d: probe returned a node not in the list", op)
				case found && geom.DistSq(q, n.Pt, d) > rHigh*rHigh:
					t.Fatalf("op %d: probe returned a node at %v > rHigh %v", op, geom.Dist(q, n.Pt, d), rHigh)
				case !found && best <= rLow*rLow:
					t.Fatalf("op %d: probe missed a node at %v ≤ rLow %v", op, math.Sqrt(best), rLow)
				}
			}
			if l.Len() != len(live) {
				t.Fatalf("op %d: Len %d, want %d", op, l.Len(), len(live))
			}
			if err := l.Validate(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
	})
}
