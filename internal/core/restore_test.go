package core

import (
	"testing"

	"dyndbscan/internal/geom"
	"dyndbscan/internal/grid"
)

// TestAdoptClusterIDs relabels two live clusters through a swap plus an
// offset and checks that memberships, the core-cell walk, later merges and
// later mints all speak the adopted ids; an incomplete map is refused
// without relabeling anything.
func TestAdoptClusterIDs(t *testing.T) {
	type adopter interface {
		Insert(geom.Point) (PointID, error)
		ClusterOf(PointID) ([]ClusterID, bool)
		NextClusterID() ClusterID
		AdoptClusterIDs(map[ClusterID]ClusterID, ClusterID) error
		SetEventFunc(func(Event))
		CoreCellWalker
	}
	cfg := Config{Dims: 2, Eps: 1, MinPts: 3}
	builds := map[string]func() (adopter, error){
		"FullyDynamic": func() (adopter, error) { return NewFullyDynamic(cfg) },
		"SemiDynamic":  func() (adopter, error) { return NewSemiDynamic(cfg) },
		"IncDBSCAN":    func() (adopter, error) { return NewIncDBSCAN(cfg) },
	}
	for name, build := range builds {
		t.Run(name, func(t *testing.T) {
			c, err := build()
			if err != nil {
				t.Fatal(err)
			}
			var left, right PointID
			for i, pt := range []geom.Point{{0, 0}, {0.1, 0}, {0.2, 0}, {10, 0}, {10.1, 0}, {10.2, 0}} {
				id, err := c.Insert(pt)
				if err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					left = id
				}
				right = id
			}
			clusterOf := func(id PointID) ClusterID {
				t.Helper()
				cids, ok := c.ClusterOf(id)
				if !ok || len(cids) != 1 {
					t.Fatalf("point %d: clusters %v, live %v", id, cids, ok)
				}
				return cids[0]
			}
			l, r := clusterOf(left), clusterOf(right)
			if err := c.AdoptClusterIDs(map[ClusterID]ClusterID{l: 7}, 9); err == nil {
				t.Fatal("adopting a map that misses a live cluster succeeded")
			}
			if clusterOf(left) != l || clusterOf(right) != r || c.NextClusterID() != 2 {
				t.Fatal("a refused adoption changed the clustering")
			}
			if err := c.AdoptClusterIDs(map[ClusterID]ClusterID{l: 8, r: 7}, 9); err != nil {
				t.Fatal(err)
			}
			if clusterOf(left) != 8 || clusterOf(right) != 7 || c.NextClusterID() != 9 {
				t.Fatalf("after adoption: left %d, right %d, next %d; want 8, 7, 9", clusterOf(left), clusterOf(right), c.NextClusterID())
			}
			c.ForEachCoreCell(func(_ grid.Coord, cid ClusterID) bool {
				if cid != 7 && cid != 8 {
					t.Fatalf("core cell labeled %d after adoption", cid)
				}
				return true
			})
			var evs []Event
			c.SetEventFunc(func(ev Event) { evs = append(evs, ev) })
			// A fresh cluster mints the adopted counter.
			var far PointID
			for _, pt := range []geom.Point{{50, 0}, {50.1, 0}, {50.2, 0}} {
				if far, err = c.Insert(pt); err != nil {
					t.Fatal(err)
				}
			}
			if got := clusterOf(far); got != 9 {
				t.Fatalf("fresh cluster minted %d, want 9", got)
			}
			// Bridging merges the two adopted clusters: the survivor is one of
			// their adopted ids, and no event names a pre-adoption id (0, 1).
			for x := 0.7; x < 10; x += 0.5 {
				if _, err := c.Insert(geom.Point{x, 0}); err != nil {
					t.Fatal(err)
				}
			}
			if got := clusterOf(left); got != clusterOf(right) || (got != 7 && got != 8) {
				t.Fatalf("bridged clusters: left %d, right %d", got, clusterOf(right))
			}
			for _, ev := range evs {
				if ev.Kind != EventPointBecameCore && ev.Kind != EventPointBecameNoise &&
					(ev.Cluster < 7 || (ev.Kind == EventClusterMerged && ev.Absorbed < 7)) {
					t.Fatalf("event names a pre-adoption id: %v", ev)
				}
			}
		})
	}
}
