package abcp

import (
	"fmt"
	"testing"

	"dyndbscan/internal/geom"
)

// FuzzABCPChurn decodes insert and delete streams on both sides of one
// instance and checks the Lemma 3 guarantees against brute force after every
// op, under the contract the fully dynamic clusterer follows: NotifyInsert
// only while the witness is empty.
//
// Byte 0 picks the dimension (1 + b%5) and ρ (b/5%3 selects 0, 0.001 or
// 0.5). Byte 1 gives the sides' initial sizes
// (b%8 and b/8%8), whose coordinates follow before the instance is built.
// Each later op byte b acts on side b/4%2: b%4 < 3 inserts (d coordinate
// bytes follow), b%4 = 3 deletes (a selector byte follows). Coordinates are
// a lattice of step 1/8 over [0, 8), side 1 shifted by 3 on the first axis,
// so pairs land on ε and on the band's edge. Inputs are cut at maxFuzzInput
// bytes: each check is quadratic in the side sizes.
func FuzzABCPChurn(f *testing.F) {
	const maxFuzzInput = 512
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		if len(data) > maxFuzzInput {
			data = data[:maxFuzzInput]
		}
		d := 1 + int(data[0])%5
		rho := []float64{0, 0.001, 0.5}[int(data[0])/5%3]
		sizes := [2]int{int(data[1]) % 8, int(data[1]) / 8 % 8}
		data = data[2:]
		point := func(sideIdx int) (geom.Point, bool) {
			if len(data) < d {
				return nil, false
			}
			p := make(geom.Point, d)
			for i := range p {
				p[i] = float64(data[i]%64) / 8
			}
			p[0] += 3 * float64(sideIdx)
			data = data[d:]
			return p, true
		}
		var initial [2][]geom.Point
		for s := 0; s < 2; s++ {
			for i := 0; i < sizes[s]; i++ {
				p, ok := point(s)
				if !ok {
					return
				}
				initial[s] = append(initial[s], p)
			}
		}
		h := newHarness(t, d, rho, initial)
		h.check("init")
		id := int64(1000)
		for op := 0; len(data) > 0; op++ {
			code := data[0]
			data = data[1:]
			sideIdx := int(code) / 4 % 2
			if code%4 < 3 {
				p, ok := point(sideIdx)
				if !ok {
					return
				}
				h.insert(sideIdx, p, id)
				id++
			} else {
				l := h.lists[sideIdx]
				if len(data) == 0 || l.Len() == 0 {
					continue
				}
				n := l.Head()
				for k := int(data[0]) % l.Len(); k > 0; k-- {
					n = n.Next()
				}
				data = data[1:]
				h.remove(sideIdx, n)
			}
			h.check(fmt.Sprintf("op %d", op))
		}
	})
}
