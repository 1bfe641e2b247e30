// Ablation benchmarks for three load-bearing design choices (where the
// design departs from the paper is listed under "Deviations from the paper"
// in the README):
//
//  1. neighbor discovery — kd-index over occupied cells vs probing the full
//     offset ball (the offset ball has ~25 cells in 2D but >100k at d = 7);
//  2. the CC structure — HDT dynamic connectivity vs rebuilding a
//     union-find from scratch whenever an edge changes;
//  3. edge maintenance — aBCP witness pairs vs recomputing the closest core
//     pair of a cell pair on every core-point change.
//
// Run with `go test -bench=Ablation -benchmem`.
package dyndbscan_test

import (
	"fmt"
	"math/rand"
	"testing"

	"dyndbscan/internal/abcp"
	"dyndbscan/internal/core"
	"dyndbscan/internal/dyncon"
	"dyndbscan/internal/geom"
	"dyndbscan/internal/grid"
	"dyndbscan/internal/unionfind"
)

// BenchmarkAblationNeighborDiscovery compares the cost of finding the
// ε-close occupied cells of a random cell under both strategies, with 2000
// occupied cells, across dimensions.
func BenchmarkAblationNeighborDiscovery(b *testing.B) {
	for _, d := range []int{2, 3, 5, 7} {
		geo := grid.NewParams(d, 100*float64(d))
		rng := rand.New(rand.NewSource(int64(d)))
		occupied := make(map[grid.Coord]int)
		ix := grid.NewIndex[int](geo)
		var coords []grid.Coord
		for len(occupied) < 2000 {
			var c grid.Coord
			for j := 0; j < d; j++ {
				c[j] = int32(rng.Intn(60))
			}
			if _, dup := occupied[c]; dup {
				continue
			}
			occupied[c] = len(occupied)
			ix.Insert(c, len(occupied))
			coords = append(coords, c)
		}
		b.Run(fmt.Sprintf("Index-d%d", d), func(b *testing.B) {
			b.ReportAllocs()
			found := 0
			for i := 0; i < b.N; i++ {
				ix.QueryClose(coords[i%len(coords)], geo.Eps, func(grid.Coord, int) bool {
					found++
					return true
				})
			}
		})
		offsets := geo.CloseOffsets(geo.Eps)
		b.Run(fmt.Sprintf("OffsetBall-d%d-%doffsets", d, len(offsets)), func(b *testing.B) {
			b.ReportAllocs()
			found := 0
			for i := 0; i < b.N; i++ {
				center := coords[i%len(coords)]
				for _, off := range offsets {
					var c grid.Coord
					for j := 0; j < d; j++ {
						c[j] = center[j] + off[j]
					}
					if _, ok := occupied[c]; ok {
						found++
					}
				}
			}
		})
	}
}

// BenchmarkAblationIncDBSCANEngine replays the workload through IncDBSCAN,
// whose range queries scan the grid's ε-close cells. The Grid sub-benchmark
// keeps its name so that its results compare with earlier runs.
func BenchmarkAblationIncDBSCANEngine(b *testing.B) {
	w := getWorkload(b, 2, 5.0/6.0, 0.03)
	b.Run("Grid", func(b *testing.B) {
		replayWorkload(b, func() benchClusterer {
			ic, err := core.NewIncDBSCAN(core.Config{Dims: 2, Eps: 200, MinPts: 10})
			if err != nil {
				panic(err)
			}
			return ic
		}, w)
	})
}

// naiveCC rebuilds a union-find over the live edges on every query — the
// strategy HDT replaces.
type naiveCC struct {
	n     int64
	edges map[[2]int64]bool
}

func (nc *naiveCC) components() *unionfind.UF {
	uf := unionfind.New(int(nc.n))
	for e := range nc.edges {
		uf.Union(int(e[0]), int(e[1]))
	}
	return uf
}

// BenchmarkAblationCCStructure toggles random edges and asks one
// connectivity query per toggle — the access pattern of the grid graph.
func BenchmarkAblationCCStructure(b *testing.B) {
	const n = 2000
	mkToggles := func() [][2]int64 {
		rng := rand.New(rand.NewSource(5))
		out := make([][2]int64, 8192)
		for i := range out {
			u, v := rng.Int63n(n), rng.Int63n(n)
			for u == v {
				v = rng.Int63n(n)
			}
			if u > v {
				u, v = v, u
			}
			out[i] = [2]int64{u, v}
		}
		return out
	}
	b.Run("HDT", func(b *testing.B) {
		toggles := mkToggles()
		c := dyncon.New()
		for v := int64(0); v < n; v++ {
			c.AddVertex(v)
		}
		live := map[[2]int64]bool{}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e := toggles[i%len(toggles)]
			if live[e] {
				c.DeleteEdge(e[0], e[1])
				delete(live, e)
			} else {
				c.InsertEdge(e[0], e[1])
				live[e] = true
			}
			c.Connected(e[0], (e[1]+1)%n)
		}
	})
	b.Run("RebuildUnionFind", func(b *testing.B) {
		toggles := mkToggles()
		nc := &naiveCC{n: n, edges: map[[2]int64]bool{}}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e := toggles[i%len(toggles)]
			if nc.edges[e] {
				delete(nc.edges, e)
			} else {
				nc.edges[e] = true
			}
			uf := nc.components()
			uf.Same(int(e[0]), int((e[1]+1)%n))
		}
	})
}

// BenchmarkAblationEdgeMaintenance compares maintaining one cell pair's
// edge with aBCP witnesses vs recomputing the closest pair on every change,
// under churn of two 300-point core sets.
func BenchmarkAblationEdgeMaintenance(b *testing.B) {
	const perSide = 300
	mkPoints := func(offset float64) []geom.Point {
		rng := rand.New(rand.NewSource(int64(offset)))
		pts := make([]geom.Point, perSide)
		for i := range pts {
			pts[i] = geom.Point{offset + rng.Float64()*5, rng.Float64() * 5}
		}
		return pts
	}
	const rLow, rHigh = 4.0, 4.004

	b.Run("ABCPWitness", func(b *testing.B) {
		ptsA, ptsB := mkPoints(0), mkPoints(6)
		la, lb := abcp.NewList(2, rLow, rHigh), abcp.NewList(2, rLow, rHigh)
		var nodesA, nodesB []*abcp.Node
		for i, p := range ptsA {
			nodesA = append(nodesA, &abcp.Node{ID: int64(i), Pt: p})
			la.Append(nodesA[i])
		}
		for i, p := range ptsB {
			nodesB = append(nodesB, &abcp.Node{ID: int64(perSide + i), Pt: p})
			lb.Append(nodesB[i])
		}
		inst := abcp.New(la, lb)
		rng := rand.New(rand.NewSource(9))
		next := int64(2 * perSide)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Churn: delete a random node from side A, insert a fresh one.
			k := rng.Intn(len(nodesA))
			n := nodesA[k]
			inst.PreDelete(0, n)
			la.Remove(n)
			inst.PostDelete(0, n)
			p := geom.Point{rng.Float64() * 5, rng.Float64() * 5}
			nn := &abcp.Node{ID: next, Pt: p}
			la.Append(nn)
			next++
			nodesA[k] = nn
			inst.NotifyInsert(0, nn)
			_ = inst.HasWitness()
		}
	})
	b.Run("RecomputeClosestPair", func(b *testing.B) {
		ptsA, ptsB := mkPoints(0), mkPoints(6)
		rng := rand.New(rand.NewSource(9))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := rng.Intn(len(ptsA))
			ptsA[k] = geom.Point{rng.Float64() * 5, rng.Float64() * 5}
			// Recompute the closest pair from scratch.
			found := false
			for _, pa := range ptsA {
				for _, pb := range ptsB {
					if geom.DistSq(pa, pb, 2) <= rLow*rLow {
						found = true
						break
					}
				}
				if found {
					break
				}
			}
			_ = found
		}
	})
}
