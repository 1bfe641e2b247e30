package core

import (
	"math/rand"
	"testing"

	"dyndbscan/internal/geom"
)

// eventShadow replays an event stream, maintaining the set of live cluster
// ids and per-point core status it implies, and failing on any transition
// that contradicts the stream's own history (a merge of an unknown id, a
// double promotion, ...).
type eventShadow struct {
	t        *testing.T
	clusters map[ClusterID]bool
	core     map[PointID]bool
}

func newEventShadow(t *testing.T) *eventShadow {
	return &eventShadow{t: t, clusters: map[ClusterID]bool{}, core: map[PointID]bool{}}
}

func (s *eventShadow) apply(ev Event) {
	switch ev.Kind {
	case EventClusterFormed:
		if s.clusters[ev.Cluster] {
			s.t.Fatalf("formed already-live cluster %d", ev.Cluster)
		}
		s.clusters[ev.Cluster] = true
	case EventClusterMerged:
		if !s.clusters[ev.Cluster] || !s.clusters[ev.Absorbed] {
			s.t.Fatalf("merge %d<-%d with dead participant", ev.Cluster, ev.Absorbed)
		}
		delete(s.clusters, ev.Absorbed)
	case EventClusterSplit:
		if !s.clusters[ev.Cluster] {
			s.t.Fatalf("split of dead cluster %d", ev.Cluster)
		}
		if len(ev.Fragments) < 2 || ev.Fragments[0] != ev.Cluster {
			s.t.Fatalf("split of %d with fragments %v", ev.Cluster, ev.Fragments)
		}
		for _, id := range ev.Fragments[1:] {
			if s.clusters[id] {
				s.t.Fatalf("split fragment %d already live", id)
			}
			s.clusters[id] = true
		}
	case EventClusterDissolved:
		if !s.clusters[ev.Cluster] {
			s.t.Fatalf("dissolved dead cluster %d", ev.Cluster)
		}
		delete(s.clusters, ev.Cluster)
	case EventPointBecameCore:
		if s.core[ev.Point] {
			s.t.Fatalf("point %d became core twice", ev.Point)
		}
		s.core[ev.Point] = true
	case EventPointBecameNoise:
		if !s.core[ev.Point] {
			s.t.Fatalf("non-core point %d became noise", ev.Point)
		}
		delete(s.core, ev.Point)
	default:
		s.t.Fatalf("unknown event kind %v", ev.Kind)
	}
}

// check compares the shadow against the clusterer's actual state: the live
// cluster-id set implied by the events must equal the set of stable ids
// reachable from live core points, and core statuses must agree (modulo
// points deleted while core, which emit no event).
func (s *eventShadow) check(points map[PointID]*pointRec, idOf func(*pointRec) ClusterID) {
	actual := map[ClusterID]bool{}
	cores := 0
	for id, rec := range points {
		if !rec.isCore() {
			if s.core[id] {
				s.t.Fatalf("shadow thinks live point %d is core", id)
			}
			continue
		}
		cores++
		if !s.core[id] {
			s.t.Fatalf("shadow missed core status of point %d", id)
		}
		actual[idOf(rec)] = true
	}
	if cores != len(s.core) {
		// s.core may retain ids of points deleted while core: prune them.
		for id := range s.core {
			if _, live := points[id]; !live {
				delete(s.core, id)
			}
		}
		if len(s.core) != cores {
			s.t.Fatalf("shadow has %d cores, clusterer %d", len(s.core), cores)
		}
	}
	if len(actual) != len(s.clusters) {
		s.t.Fatalf("shadow has %d clusters %v, clusterer %d %v", len(s.clusters), s.clusters, len(actual), actual)
	}
	for id := range actual {
		if !s.clusters[id] {
			s.t.Fatalf("cluster %d live in structure but not in event shadow", id)
		}
	}
}

// driveShadow runs a mixed random workload against a clusterer under shadow
// verification. deletes=false restricts to insertions (for SemiDynamic).
func driveShadow(t *testing.T, seed int64, points map[PointID]*pointRec,
	idOf func(*pointRec) ClusterID, sink func(func(Event)),
	insert func(pt geom.Point) (PointID, error), del func(PointID) error, deletes bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	shadow := newEventShadow(t)
	sink(shadow.apply)
	var ids []PointID
	for i := 0; i < 900; i++ {
		if !deletes || len(ids) == 0 || rng.Float64() < 0.65 {
			// Clumpy data so clusters form, merge, and split frequently.
			cx, cy := float64(rng.Intn(4)*10), float64(rng.Intn(4)*10)
			id, err := insert(geom.Point{cx + rng.NormFloat64()*3, cy + rng.NormFloat64()*3})
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		} else {
			k := rng.Intn(len(ids))
			if err := del(ids[k]); err != nil {
				t.Fatal(err)
			}
			ids[k] = ids[len(ids)-1]
			ids = ids[:len(ids)-1]
		}
		shadow.check(points, idOf)
	}
}

func TestEventShadowFullyDynamic(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		f, err := NewFullyDynamic(Config{Dims: 2, Eps: 2.5, MinPts: 4, Rho: 0.001})
		if err != nil {
			t.Fatal(err)
		}
		driveShadow(t, seed, f.points,
			func(rec *pointRec) ClusterID { return rec.cell.cluster },
			f.SetEventFunc, f.Insert, f.Delete, true)
	}
}

func TestEventShadowSemiDynamic(t *testing.T) {
	s, err := NewSemiDynamic(Config{Dims: 2, Eps: 2.5, MinPts: 4, Rho: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	driveShadow(t, 7, s.points,
		func(rec *pointRec) ClusterID { return s.clusterIDOf(rec.cell) },
		s.SetEventFunc, s.Insert, nil, false)
}

func TestEventShadowIncDBSCAN(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		ic, err := NewIncDBSCAN(Config{Dims: 2, Eps: 2.5, MinPts: 4})
		if err != nil {
			t.Fatal(err)
		}
		driveShadow(t, seed, ic.points,
			func(rec *pointRec) ClusterID { return ic.stableIDOf(rec) },
			ic.SetEventFunc, ic.Insert, ic.Delete, true)
	}
}

// TestClusterOfMatchesGroupBy checks, on all three algorithms, that the
// per-point ClusterOf memberships induce exactly the partition GroupBy
// reports.
func TestClusterOfMatchesGroupBy(t *testing.T) {
	type clusterer interface {
		Insert(pt geom.Point) (PointID, error)
		GroupBy(ids []PointID) (Result, error)
		ClusterOf(id PointID) ([]ClusterID, bool)
		IDs() []PointID
	}
	cfg := Config{Dims: 2, Eps: 2.5, MinPts: 4, Rho: 0}
	mk := map[string]func() (clusterer, error){
		"semi": func() (clusterer, error) { return NewSemiDynamic(cfg) },
		"full": func() (clusterer, error) { return NewFullyDynamic(cfg) },
		"inc":  func() (clusterer, error) { return NewIncDBSCAN(cfg) },
	}
	for name, factory := range mk {
		t.Run(name, func(t *testing.T) {
			cl, err := factory()
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(11))
			for i := 0; i < 600; i++ {
				cx, cy := float64(rng.Intn(3)*12), float64(rng.Intn(3)*12)
				if _, err := cl.Insert(geom.Point{cx + rng.NormFloat64()*3, cy + rng.NormFloat64()*3}); err != nil {
					t.Fatal(err)
				}
			}
			ids := cl.IDs()
			res, err := cl.GroupBy(ids)
			if err != nil {
				t.Fatal(err)
			}
			// Rebuild the grouping from ClusterOf.
			groups := map[ClusterID][]PointID{}
			var noise []PointID
			for _, id := range ids {
				cids, ok := cl.ClusterOf(id)
				if !ok {
					t.Fatalf("ClusterOf(%d) reports point dead", id)
				}
				if len(cids) == 0 {
					noise = append(noise, id)
					continue
				}
				for _, cid := range cids {
					groups[cid] = append(groups[cid], id)
				}
			}
			var rebuilt Result
			for _, members := range groups {
				rebuilt.Groups = append(rebuilt.Groups, members)
			}
			rebuilt.Noise = noise
			rebuilt.Normalize()
			if len(rebuilt.Groups) != len(res.Groups) || len(rebuilt.Noise) != len(res.Noise) {
				t.Fatalf("ClusterOf partition (%d groups, %d noise) != GroupBy (%d groups, %d noise)",
					len(rebuilt.Groups), len(rebuilt.Noise), len(res.Groups), len(res.Noise))
			}
			for i := range res.Groups {
				if len(res.Groups[i]) != len(rebuilt.Groups[i]) {
					t.Fatalf("group %d sizes differ: %d vs %d", i, len(res.Groups[i]), len(rebuilt.Groups[i]))
				}
				for j := range res.Groups[i] {
					if res.Groups[i][j] != rebuilt.Groups[i][j] {
						t.Fatalf("group %d member %d differs", i, j)
					}
				}
			}
		})
	}
}
