package quadtree

import (
	"slices"
	"testing"

	"dyndbscan/internal/geom"
)

// FuzzQuadtreeAccumulate decodes a byte stream into insert, delete and
// accumulate calls on a tree rooted at the cube [-32, 32]^d and checks every
// answer against brute force, with the structure checked after every
// update. The first byte picks the dimension (1–7) from its low 7 bits;
// with its high bit set, the tree starts from Build instead of empty: a
// count byte n and n points' coordinate bytes follow, and the built tree
// must have the shape inserting the same points gives. Each op byte b then
// selects, by b%4: insert (two cases; dims coordinate bytes follow), delete
// (one byte picks a live point) or accumulate (dims coordinate bytes, a
// radius byte and a threshold byte follow; b/4%4 picks ρ). Coordinates are
// int8/4, a coarse lattice on the cube's closed faces included, so
// coincident points, ties and points exactly on the band edges are common.
// Inputs are cut at maxFuzzInput bytes: the per-op checks are linear in the
// tree size, and a few hundred points already reach splits, collapses and
// the depth cap.
func FuzzQuadtreeAccumulate(f *testing.F) {
	const maxFuzzInput = 2048
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		if len(data) > maxFuzzInput {
			data = data[:maxFuzzInput]
		}
		d := 1 + int(data[0]&0x7f)%7
		build := data[0]&0x80 != 0
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
		tr := cube(d, 32)
		live := make(map[int64]geom.Point)
		var order []int64 // live ids, for the delete selector
		next := int64(0)
		if build {
			b, ok := take(1)
			if !ok {
				return
			}
			pts := make([]geom.Point, 0, b[0])
			for range b[0] {
				c, ok := take(d)
				if !ok {
					break
				}
				p := point(c)
				pts = append(pts, p)
				live[next] = p
				order = append(order, next)
				next++
				tr.Insert(p)
			}
			built := Build(d, tr.lo[:d], tr.side, slices.Clone(pts))
			if !sameShape(&tr.root, &built.root) {
				t.Fatalf("Build of %d points differs in shape from inserting them", len(pts))
			}
			tr = built
			checkTree(t, tr, live)
		}
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
				tr.Insert(p)
				live[next] = p
				order = append(order, next)
				next++
				checkTree(t, tr, live)
			case 2:
				b, ok := take(1)
				if !ok || len(order) == 0 {
					continue
				}
				k := int(b[0]) % len(order)
				id := order[k]
				order[k] = order[len(order)-1]
				order = order[:len(order)-1]
				p := live[id]
				tr.Delete(p)
				delete(live, id)
				if tr.Has(p) {
					t.Fatalf("op %d: deleted point %d still present", op, id)
				}
				checkTree(t, tr, live)
			case 3:
				b, ok := take(d + 2)
				if !ok {
					return
				}
				q := point(b[:d])
				rLow := float64(b[d]) / 8
				rHigh := rLow * []float64{1, 1.001, 1.25, 1.5}[code/4%4]
				threshold := 1 + int(b[d+1])%64
				start := int(code/16) % 4 // a running count from earlier cells
				lo := start + exactCount(live, d, q, rLow)
				hi := start + exactCount(live, d, q, rHigh)
				acc := start
				got := tr.Accumulate(q, rLow, rHigh, threshold, &acc)
				if got != (acc >= threshold) {
					t.Fatalf("op %d: returned %v with acc %d, threshold %d", op, got, acc, threshold)
				}
				if got && hi < threshold {
					t.Fatalf("op %d: true but start+|B(rHigh)| = %d < %d", op, hi, threshold)
				}
				if !got && lo >= threshold {
					t.Fatalf("op %d: false but start+|B(rLow)| = %d ≥ %d", op, lo, threshold)
				}
				if acc < start || acc > hi {
					t.Fatalf("op %d: acc %d outside [%d,%d]", op, acc, start, hi)
				}
				if !got && acc < lo {
					t.Fatalf("op %d: a full pass counted %d < start+|B(rLow)| = %d", op, acc, lo)
				}
			}
		}
	})
}

// sameShape reports whether two subtrees have the same nodes: leaf or
// internal alike, equal counts, and children in the same orthants.
func sameShape(a, b *qnode) bool {
	if a.leaf != b.leaf || a.count != b.count || len(a.children) != len(b.children) {
		return false
	}
	for _, ch := range a.children {
		other := b.child(ch.idx)
		if other == nil || !sameShape(ch.n, other) {
			return false
		}
	}
	return true
}
