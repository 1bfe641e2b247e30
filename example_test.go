package dyndbscan_test

import (
	"fmt"

	"dyndbscan"
)

// ExampleNew shows the full insert / query / delete cycle.
func ExampleNew() {
	c, err := dyndbscan.New(dyndbscan.WithEps(1.5), dyndbscan.WithMinPts(3))
	if err != nil {
		panic(err)
	}
	defer c.Close()
	var ids []dyndbscan.PointID
	for _, pt := range []dyndbscan.Point{
		{0, 0}, {1, 0}, {0, 1}, // a small cluster
		{10, 10}, // an outlier
	} {
		id, err := c.Insert(pt)
		if err != nil {
			panic(err)
		}
		ids = append(ids, id)
	}
	res, err := c.GroupBy(ids)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d cluster(s), %d noise point(s)\n", len(res.Groups), len(res.Noise))

	// Deleting a cluster member dissolves the cluster (MinPts = 3).
	if err := c.Delete(ids[0]); err != nil {
		panic(err)
	}
	res, _ = c.GroupBy(ids[1:])
	fmt.Printf("after delete: %d cluster(s), %d noise point(s)\n", len(res.Groups), len(res.Noise))
	// Output:
	// 1 cluster(s), 1 noise point(s)
	// after delete: 0 cluster(s), 3 noise point(s)
}

// ExampleResult_SameGroup answers the paper's motivating question:
// "are X and Y in the same cluster?"
func ExampleResult_SameGroup() {
	c, _ := dyndbscan.New(dyndbscan.WithAlgorithm(dyndbscan.AlgoSemiDynamic),
		dyndbscan.WithEps(2), dyndbscan.WithMinPts(2), dyndbscan.WithRho(0))
	defer c.Close()
	x, _ := c.Insert(dyndbscan.Point{0, 0})
	y, _ := c.Insert(dyndbscan.Point{1, 0})
	z, _ := c.Insert(dyndbscan.Point{100, 100})
	res, _ := c.GroupBy([]dyndbscan.PointID{x, y, z})
	fmt.Println(res.SameGroup(x, y), res.SameGroup(x, z))
	// Output: true false
}

// ExampleStaticDBSCAN runs the offline oracle.
func ExampleStaticDBSCAN() {
	pts := []dyndbscan.Point{{0, 0}, {1, 0}, {0, 1}, {9, 9}}
	sc := dyndbscan.StaticDBSCAN(pts, 2, 1.5, 3)
	fmt.Println(sc.NumClust, sc.IsNoise(3))
	// Output: 1 true
}
