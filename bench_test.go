// Benchmarks reproducing every table and figure of the evaluation section
// (Section 8) of "Dynamic Density Based Clustering" at testing.B scale, plus
// micro-benchmarks for the substrate structures. One benchmark family per
// figure; `go test -bench=Fig12 -benchmem` etc. The ns/op of a workload
// benchmark is the average cost per operation — the paper's avgcost metric.
//
// The full-scale reproduction (the paper's N = 10M with checkpointed series)
// lives in cmd/dynbench; these benchmarks exercise the identical code paths
// at a size that completes in seconds.
package dyndbscan_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"dyndbscan"
	"dyndbscan/internal/abcp"
	"dyndbscan/internal/core"
	"dyndbscan/internal/dyncon"
	"dyndbscan/internal/geom"
	"dyndbscan/internal/grid"
	"dyndbscan/internal/quadtree"
	"dyndbscan/internal/workload"
)

const benchN = 20_000 // updates per benchmark workload

type benchClusterer interface {
	Insert(pt geom.Point) (core.PointID, error)
	Delete(id core.PointID) error
	GroupBy(q []core.PointID) (core.Result, error)
}

// benchWorkloads caches generated workloads per configuration.
var benchWorkloads = map[string]*workload.Workload{}

func getWorkload(b *testing.B, d int, insFrac float64, fqryFrac float64) *workload.Workload {
	b.Helper()
	key := fmt.Sprintf("%d-%v-%v", d, insFrac, fqryFrac)
	if w, ok := benchWorkloads[key]; ok {
		return w
	}
	p := workload.DefaultParams(d, benchN, 1)
	p.InsFrac = insFrac
	p.Fqry = int(fqryFrac * float64(benchN))
	if p.Fqry < 1 {
		p.Fqry = 1
	}
	w, err := workload.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	benchWorkloads[key] = w
	return w
}

// replayWorkload executes b.N operations of the workload, restarting with a
// fresh clusterer whenever the sequence is exhausted. ns/op ≈ avgcost.
func replayWorkload(b *testing.B, mk func() benchClusterer, w *workload.Workload) {
	b.Helper()
	var cl benchClusterer
	idBySeq := make([]core.PointID, w.Inserts)
	var qbuf []core.PointID
	pos, seq := 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pos == 0 {
			b.StopTimer()
			cl = mk()
			seq = 0
			b.StartTimer()
		}
		op := w.Ops[pos]
		switch op.Kind {
		case workload.OpInsert:
			id, err := cl.Insert(op.Pt)
			if err != nil {
				b.Fatal(err)
			}
			idBySeq[seq] = id
			seq++
		case workload.OpDelete:
			if err := cl.Delete(idBySeq[op.Target]); err != nil {
				b.Fatal(err)
			}
		case workload.OpQuery:
			qbuf = qbuf[:0]
			for _, s := range op.Query {
				qbuf = append(qbuf, idBySeq[s])
			}
			if _, err := cl.GroupBy(qbuf); err != nil {
				b.Fatal(err)
			}
		}
		pos++
		if pos == len(w.Ops) {
			pos = 0
		}
	}
}

func mkSemi(d int, eps, rho float64) func() benchClusterer {
	return func() benchClusterer {
		s, err := core.NewSemiDynamic(core.Config{Dims: d, Eps: eps, MinPts: 10, Rho: rho})
		if err != nil {
			panic(err)
		}
		return s
	}
}

func mkFull(d int, eps, rho float64) func() benchClusterer {
	return func() benchClusterer {
		f, err := core.NewFullyDynamic(core.Config{Dims: d, Eps: eps, MinPts: 10, Rho: rho})
		if err != nil {
			panic(err)
		}
		return f
	}
}

func mkInc(d int, eps float64) func() benchClusterer {
	return func() benchClusterer {
		ic, err := core.NewIncDBSCAN(core.Config{Dims: d, Eps: eps, MinPts: 10})
		if err != nil {
			panic(err)
		}
		return ic
	}
}

// BenchmarkFig08 — semi-dynamic algorithms, 2D, insertion-only (Figure 8).
func BenchmarkFig08(b *testing.B) {
	w := getWorkload(b, 2, 1.0, 0.03)
	b.Run("2d-Semi-Exact", func(b *testing.B) { replayWorkload(b, mkSemi(2, 200, 0), w) })
	b.Run("Semi-Approx", func(b *testing.B) { replayWorkload(b, mkSemi(2, 200, 0.001), w) })
	b.Run("IncDBSCAN", func(b *testing.B) { replayWorkload(b, mkInc(2, 200), w) })
}

// BenchmarkFig09 — semi-dynamic algorithms, d = 3, 5, 7 (Figure 9).
func BenchmarkFig09(b *testing.B) {
	for _, d := range []int{3, 5, 7} {
		w := getWorkload(b, d, 1.0, 0.03)
		eps := 100 * float64(d)
		b.Run(fmt.Sprintf("Semi-Approx-%dD", d), func(b *testing.B) { replayWorkload(b, mkSemi(d, eps, 0.001), w) })
		b.Run(fmt.Sprintf("IncDBSCAN-%dD", d), func(b *testing.B) { replayWorkload(b, mkInc(d, eps), w) })
	}
}

// BenchmarkFig10 — semi-dynamic cost vs ε (Figure 10). IncDBSCAN is bounded
// to the small-ε end here; the paper itself shows it becoming inapplicable.
func BenchmarkFig10(b *testing.B) {
	w := getWorkload(b, 2, 1.0, 0.03)
	for _, mult := range []float64{50, 100, 200, 400, 800} {
		eps := mult * 2
		b.Run(fmt.Sprintf("Semi-Approx-eps%.0fd", mult), func(b *testing.B) { replayWorkload(b, mkSemi(2, eps, 0.001), w) })
	}
	b.Run("IncDBSCAN-eps50d", func(b *testing.B) { replayWorkload(b, mkInc(2, 100), w) })
	b.Run("IncDBSCAN-eps200d", func(b *testing.B) { replayWorkload(b, mkInc(2, 400), w) })
}

// BenchmarkFig11 — semi-dynamic cost vs query frequency (Figure 11).
func BenchmarkFig11(b *testing.B) {
	for _, frac := range []float64{0.01, 0.03, 0.10} {
		w := getWorkload(b, 2, 1.0, frac)
		b.Run(fmt.Sprintf("Semi-Approx-fqry%.2fN", frac), func(b *testing.B) { replayWorkload(b, mkSemi(2, 200, 0.001), w) })
	}
}

// BenchmarkFig12 — fully-dynamic algorithms, 2D, mixed updates (Figure 12).
func BenchmarkFig12(b *testing.B) {
	w := getWorkload(b, 2, 5.0/6.0, 0.03)
	b.Run("2d-Full-Exact", func(b *testing.B) { replayWorkload(b, mkFull(2, 200, 0), w) })
	b.Run("Double-Approx", func(b *testing.B) { replayWorkload(b, mkFull(2, 200, 0.001), w) })
	b.Run("IncDBSCAN", func(b *testing.B) { replayWorkload(b, mkInc(2, 200), w) })
}

// BenchmarkFig13 — fully-dynamic algorithms, d = 3, 5, 7 (Figure 13).
// IncDBSCAN is benchmarked at 3D only; the paper terminated it on 5D/7D.
func BenchmarkFig13(b *testing.B) {
	for _, d := range []int{3, 5, 7} {
		w := getWorkload(b, d, 5.0/6.0, 0.03)
		eps := 100 * float64(d)
		b.Run(fmt.Sprintf("Double-Approx-%dD", d), func(b *testing.B) { replayWorkload(b, mkFull(d, eps, 0.001), w) })
	}
	w := getWorkload(b, 3, 5.0/6.0, 0.03)
	b.Run("IncDBSCAN-3D", func(b *testing.B) { replayWorkload(b, mkInc(3, 300), w) })
}

// BenchmarkFig14 — fully-dynamic cost vs ε (Figure 14).
func BenchmarkFig14(b *testing.B) {
	w := getWorkload(b, 2, 5.0/6.0, 0.03)
	for _, mult := range []float64{50, 200, 800} {
		eps := mult * 2
		b.Run(fmt.Sprintf("Double-Approx-eps%.0fd", mult), func(b *testing.B) { replayWorkload(b, mkFull(2, eps, 0.001), w) })
	}
	b.Run("IncDBSCAN-eps50d", func(b *testing.B) { replayWorkload(b, mkInc(2, 100), w) })
}

// BenchmarkFig15 — fully-dynamic cost vs insertion percentage (Figure 15).
func BenchmarkFig15(b *testing.B) {
	for _, fr := range []struct {
		label string
		v     float64
	}{{"2of3", 2.0 / 3.0}, {"5of6", 5.0 / 6.0}, {"10of11", 10.0 / 11.0}} {
		w := getWorkload(b, 2, fr.v, 0.03)
		b.Run("Double-Approx-ins"+fr.label, func(b *testing.B) { replayWorkload(b, mkFull(2, 200, 0.001), w) })
	}
}

// BenchmarkTable1 — the Õ(1) per-operation claims of Table 1, measured as
// isolated operation types against a pre-loaded fully dynamic clusterer.
func BenchmarkTable1(b *testing.B) {
	load := func(b *testing.B, n int) (*core.FullyDynamic, []core.PointID) {
		b.Helper()
		f, err := core.NewFullyDynamic(core.Config{Dims: 3, Eps: 300, MinPts: 10, Rho: 0.001})
		if err != nil {
			b.Fatal(err)
		}
		p := workload.DefaultParams(3, n, 2)
		p.InsFrac = 1
		w, err := workload.Generate(p)
		if err != nil {
			b.Fatal(err)
		}
		var ids []core.PointID
		for _, op := range w.Ops {
			if op.Kind != workload.OpInsert {
				continue
			}
			id, err := f.Insert(op.Pt)
			if err != nil {
				b.Fatal(err)
			}
			ids = append(ids, id)
		}
		return f, ids
	}
	b.Run("Insert", func(b *testing.B) {
		f, _ := load(b, 20_000)
		rng := rand.New(rand.NewSource(9))
		pts := make([]geom.Point, b.N)
		for i := range pts {
			pts[i] = geom.Point{rng.Float64() * 1e5, rng.Float64() * 1e5, rng.Float64() * 1e5}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := f.Insert(pts[i]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("InsertDeleteCycle", func(b *testing.B) {
		f, _ := load(b, 20_000)
		rng := rand.New(rand.NewSource(10))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pt := geom.Point{rng.Float64() * 1e5, rng.Float64() * 1e5, rng.Float64() * 1e5}
			id, err := f.Insert(pt)
			if err != nil {
				b.Fatal(err)
			}
			if err := f.Delete(id); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("GroupBy32", func(b *testing.B) {
		f, ids := load(b, 20_000)
		rng := rand.New(rand.NewSource(11))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q := make([]core.PointID, 32)
			for j := range q {
				q[j] = ids[rng.Intn(len(ids))]
			}
			if _, err := f.GroupBy(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkInsertBatch quantifies the batching win of the Engine API: ns/op
// is the per-point ingestion cost of one pre-generated stream, comparing
// per-point Insert against InsertBatch at several batch sizes (both through
// the locked Engine) and the bare clusterer as the no-locking floor.
func BenchmarkInsertBatch(b *testing.B) {
	mkPts := func(n int) []dyndbscan.Point {
		rng := rand.New(rand.NewSource(5))
		pts := make([]dyndbscan.Point, n)
		for i := range pts {
			pts[i] = dyndbscan.Point{rng.Float64() * 1e5, rng.Float64() * 1e5}
		}
		return pts
	}
	newEngine := func(b *testing.B) *dyndbscan.Engine {
		b.Helper()
		e, err := dyndbscan.New(dyndbscan.WithEps(200), dyndbscan.WithMinPts(10))
		if err != nil {
			b.Fatal(err)
		}
		return e
	}
	b.Run("Engine-Insert", func(b *testing.B) {
		pts := mkPts(b.N)
		e := newEngine(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.Insert(pts[i]); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, size := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("Engine-InsertBatch-%d", size), func(b *testing.B) {
			pts := mkPts(b.N)
			e := newEngine(b)
			b.ReportAllocs()
			b.ResetTimer()
			for lo := 0; lo < len(pts); lo += size {
				hi := lo + size
				if hi > len(pts) {
					hi = len(pts)
				}
				if _, err := e.InsertBatch(pts[lo:hi]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("Core-Insert-NoLock", func(b *testing.B) {
		pts := mkPts(b.N)
		f, err := core.NewFullyDynamic(core.Config{Dims: 2, Eps: 200, MinPts: 10, Rho: 0.001})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := f.Insert(pts[i]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDeleteBatch is the deletion-side companion: per-point cost of
// draining a pre-loaded engine one handle at a time vs in batches.
func BenchmarkDeleteBatch(b *testing.B) {
	load := func(b *testing.B, n int) (*dyndbscan.Engine, []dyndbscan.PointID) {
		b.Helper()
		e, err := dyndbscan.New(dyndbscan.WithEps(200), dyndbscan.WithMinPts(10))
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(6))
		pts := make([]dyndbscan.Point, n)
		for i := range pts {
			pts[i] = dyndbscan.Point{rng.Float64() * 1e5, rng.Float64() * 1e5}
		}
		ids, err := e.InsertBatch(pts)
		if err != nil {
			b.Fatal(err)
		}
		return e, ids
	}
	b.Run("Engine-Delete", func(b *testing.B) {
		e, ids := load(b, b.N)
		b.ReportAllocs()
		b.ResetTimer()
		for _, id := range ids {
			if err := e.Delete(id); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Engine-DeleteBatch-256", func(b *testing.B) {
		e, ids := load(b, b.N)
		b.ReportAllocs()
		b.ResetTimer()
		for lo := 0; lo < len(ids); lo += 256 {
			hi := lo + 256
			if hi > len(ids) {
				hi = len(ids)
			}
			if err := e.DeleteBatch(ids[lo:hi]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Micro-benchmarks of the substrate structures.

func BenchmarkSubstrateDynConn(b *testing.B) {
	b.Run("InsertDeleteEdge", func(b *testing.B) {
		c := dyncon.New()
		const n = 1000
		for v := int64(0); v < n; v++ {
			c.AddVertex(v)
		}
		rng := rand.New(rand.NewSource(1))
		type edge struct{ u, v int64 }
		live := map[edge]bool{}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			u, v := rng.Int63n(n), rng.Int63n(n)
			if u == v {
				continue
			}
			if u > v {
				u, v = v, u
			}
			e := edge{u, v}
			if live[e] {
				c.DeleteEdge(u, v)
				delete(live, e)
			} else {
				c.InsertEdge(u, v)
				live[e] = true
			}
		}
	})
	b.Run("ComponentID", func(b *testing.B) {
		c := dyncon.New()
		const n = 1000
		for v := int64(0); v < n; v++ {
			c.AddVertex(v)
		}
		for v := int64(0); v+1 < n; v += 2 {
			c.InsertEdge(v, v+1)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.ComponentID(int64(i % n))
		}
	})
}

// BenchmarkSubstrateCoreList measures a cell's core list, which is also its
// emptiness structure, at the set sizes a grid cell holds: n core points in
// one cell of side ε/√d, in d = 2 and d = 5. Both orders append the points
// of one random walk through the cell: "walk" in walk order, so consecutive
// points are close and the chunk boxes tight, and "shuffled" in random
// order, the design's weak case, where every chunk box spans most of the
// cell. "churn" removes a random live node and appends it again at a fresh
// point (the walk continued, in the same order) per op, as a point record
// reuses its node. "hit" probes from points of
// the cell's ε-neighbourhood that have a list point within ε; "miss" from
// points within ε of the cell that have none within (1+ρ)ε. All report
// B/point, the live heap of a list built by n appends divided by n: its
// chunks and their boxes. The points and their nodes are the caller's,
// allocated before the list, and not counted.
func BenchmarkSubstrateCoreList(b *testing.B) {
	const eps, rho, fresh = 100.0, 0.001, 4096
	rUp := eps * (1 + rho)
	for _, d := range []int{2, 5} {
		side := eps / math.Sqrt(float64(d))
		for _, n := range []int{32, 1 << 10} {
			rng := rand.New(rand.NewSource(int64(100*d + n)))
			walk := make([]geom.Point, n+fresh)
			at := make(geom.Point, d)
			for i := range at {
				at[i] = rng.Float64() * side
			}
			for i := range walk {
				for j := range at {
					at[j] += (rng.Float64() - 0.5) * side / 8
					if at[j] < 0 {
						at[j] = -at[j]
					} else if at[j] > side {
						at[j] = 2*side - at[j]
					}
				}
				walk[i] = at.Clone()
			}
			hits, misses := probeQueries(rng, walk[:n], d, side, eps, rUp)
			for _, order := range []string{"walk", "shuffled"} {
				pts := walk
				if order == "shuffled" {
					pts = append([]geom.Point(nil), walk...)
					rng.Shuffle(n, func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
					rng.Shuffle(fresh, func(i, j int) { pts[n+i], pts[n+j] = pts[n+j], pts[n+i] })
				}
				// setup builds the list and returns its heap per point,
				// which is reported after the timed loop (ResetTimer drops
				// metrics).
				setup := func() (*abcp.List, []abcp.Node, float64) {
					nodes := make([]abcp.Node, n)
					for i, p := range pts[:n] {
						nodes[i] = abcp.Node{ID: int64(i), Pt: p}
					}
					var before, after runtime.MemStats
					runtime.GC()
					runtime.ReadMemStats(&before)
					l := abcp.NewList(d, eps, rUp)
					for i := range nodes {
						l.Append(&nodes[i])
					}
					runtime.GC()
					runtime.ReadMemStats(&after)
					return l, nodes, float64(after.HeapAlloc-before.HeapAlloc) / float64(n)
				}
				name := fmt.Sprintf("d%d/n%d/%s", d, n, order)
				b.Run(name+"/churn", func(b *testing.B) {
					l, nodes, perPoint := setup()
					churn := rand.New(rand.NewSource(1))
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						nd := &nodes[churn.Intn(n)]
						l.Remove(nd)
						nd.ID, nd.Pt = int64(n+i), pts[n+i%fresh]
						l.Append(nd)
					}
					b.ReportMetric(perPoint, "B/point")
				})
				for _, probe := range []struct {
					name string
					qs   []geom.Point
				}{{"hit", hits}, {"miss", misses}} {
					b.Run(name+"/"+probe.name, func(b *testing.B) {
						l, _, perPoint := setup()
						b.ReportAllocs()
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							probeSink, _ = l.Probe(probe.qs[i%len(probe.qs)])
						}
						b.ReportMetric(perPoint, "B/point")
					})
				}
			}
		}
	}
}

// probeSink keeps the compiler from dropping the probes it is assigned.
var probeSink *abcp.Node

// probeQueries draws query points from the ε-neighbourhood of the cube
// [0, side)^d until it has 1024 with a point of pts within eps (hits) and
// 1024 within eps of the cube but with no point of pts within rUp (misses).
func probeQueries(rng *rand.Rand, pts []geom.Point, d int, side, eps, rUp float64) (hits, misses []geom.Point) {
	cube := geom.NewBox(make(geom.Point, d), geom.Point(slices.Repeat([]float64{side}, d)))
	for len(hits) < 1024 || len(misses) < 1024 {
		q := make(geom.Point, d)
		for i := range q {
			q[i] = -eps + rng.Float64()*(side+2*eps)
		}
		if cube.MinDistSq(q, d) > eps*eps {
			continue
		}
		best := math.Inf(1)
		for _, p := range pts {
			best = math.Min(best, geom.DistSq(q, p, d))
		}
		switch {
		case best <= eps*eps && len(hits) < 1024:
			hits = append(hits, q)
		case best > rUp*rUp && len(misses) < 1024:
			misses = append(misses, q)
		}
	}
	return hits, misses
}

// BenchmarkSubstrateQuadtree measures one cell's counting subtree at the
// populations a large cell holds: n points spread over one cell cube of side
// ε/√d, in d = 2 and d = 5, n = 32 (about where a cell builds its subtree)
// and n = 1k. "churn" deletes a random live point and inserts a fresh one
// per op; "accumulate" runs a full banded ε-count from a point anywhere in
// the cell's ε-neighbourhood, with a threshold it never reaches. Both report
// B/point, the live heap of a tree built by quadtree.Build over n points
// divided by n (the points themselves are owned by the caller and not
// counted). "build" times one Build of the n points, as a count that first
// cuts a large cell runs it, and reports ns/point.
func BenchmarkSubstrateQuadtree(b *testing.B) {
	const eps, rho = 100.0, 0.001
	for _, d := range []int{2, 5} {
		side := eps / math.Sqrt(float64(d))
		pt := func(rng *rand.Rand, lo, hi float64) geom.Point {
			p := make(geom.Point, d)
			for i := range p {
				p[i] = lo + rng.Float64()*(hi-lo)
			}
			return p
		}
		for _, n := range []int{32, 1 << 10} {
			// setup builds the tree and returns its heap per point, which is
			// reported after the timed loop (ResetTimer drops metrics).
			setup := func() (*quadtree.Tree, *rand.Rand, []geom.Point, float64) {
				rng := rand.New(rand.NewSource(int64(100*d + n)))
				pts := make([]geom.Point, n)
				for i := range pts {
					pts[i] = pt(rng, 0, side)
				}
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				tr := quadtree.Build(d, make(geom.Point, d), side, slices.Clone(pts))
				runtime.GC()
				runtime.ReadMemStats(&after)
				return tr, rng, pts, float64(after.HeapAlloc-before.HeapAlloc) / float64(n)
			}
			b.Run(fmt.Sprintf("d%d/n%d/build", d, n), func(b *testing.B) {
				_, _, pts, _ := setup()
				buf := make([]geom.Point, n)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					// Build keeps and reorders its slice; each round hands it
					// a fresh copy of the points.
					copy(buf, pts)
					quadtree.Build(d, make(geom.Point, d), side, buf)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/point")
			})
			b.Run(fmt.Sprintf("d%d/n%d/churn", d, n), func(b *testing.B) {
				tr, rng, live, perPoint := setup()
				fresh := make([]geom.Point, 4096)
				for i := range fresh {
					fresh[i] = pt(rng, 0, side)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					k := rng.Intn(len(live))
					tr.Delete(live[k])
					live[k] = fresh[i%len(fresh)]
					tr.Insert(live[k])
				}
				b.ReportMetric(perPoint, "B/point")
			})
			b.Run(fmt.Sprintf("d%d/n%d/accumulate", d, n), func(b *testing.B) {
				tr, rng, _, perPoint := setup()
				qs := make([]geom.Point, 4096)
				for i := range qs {
					qs[i] = pt(rng, -eps, side+eps)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					acc := 0
					tr.Accumulate(qs[i%len(qs)], eps, eps*(1+rho), math.MaxInt, &acc)
				}
				b.ReportMetric(perPoint, "B/point")
			})
		}
	}
}

func BenchmarkSubstrateGridIndex(b *testing.B) {
	geo := grid.NewParams(3, 300)
	ix := grid.NewIndex[int](geo)
	rng := rand.New(rand.NewSource(4))
	var coords []grid.Coord
	for i := 0; i < 20000; i++ {
		var c grid.Coord
		for j := 0; j < 3; j++ {
			c[j] = int32(rng.Intn(600))
		}
		ix.Insert(c, i)
		coords = append(coords, c)
	}
	b.Run("QueryClose", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ix.QueryClose(coords[i%len(coords)], 300, func(grid.Coord, int) bool { return true })
		}
	})
}
