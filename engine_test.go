package dyndbscan_test

import (
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"dyndbscan"
	"dyndbscan/internal/evcheck"
)

// TestNewOptionValidation exercises the functional-option surface: required
// options, option-level errors, and Config pass-through.
func TestNewOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		opts []dyndbscan.Option
		ok   bool
	}{
		{"no options", nil, false},
		{"eps only", []dyndbscan.Option{dyndbscan.WithEps(2)}, false},
		{"minpts only", []dyndbscan.Option{dyndbscan.WithMinPts(3)}, false},
		{"minimal valid", []dyndbscan.Option{dyndbscan.WithEps(2), dyndbscan.WithMinPts(3)}, true},
		{"negative eps", []dyndbscan.Option{dyndbscan.WithEps(-1), dyndbscan.WithMinPts(3)}, false},
		{"zero minpts", []dyndbscan.Option{dyndbscan.WithEps(2), dyndbscan.WithMinPts(0)}, false},
		{"bad dims", []dyndbscan.Option{dyndbscan.WithEps(2), dyndbscan.WithMinPts(3), dyndbscan.WithDims(99)}, false},
		{"bad rho", []dyndbscan.Option{dyndbscan.WithEps(2), dyndbscan.WithMinPts(3), dyndbscan.WithRho(-0.5)}, false},
		{"unknown algorithm", []dyndbscan.Option{dyndbscan.WithEps(2), dyndbscan.WithMinPts(3), dyndbscan.WithAlgorithm(dyndbscan.Algorithm(42))}, false},
		// The retired values: 3 was IncDBSCANRTree, -1 marked Wrap's foreign
		// backends. Neither names an algorithm any more.
		{"retired algorithm 3", []dyndbscan.Option{dyndbscan.WithEps(2), dyndbscan.WithMinPts(3), dyndbscan.WithAlgorithm(dyndbscan.Algorithm(3))}, false},
		{"retired algorithm -1", []dyndbscan.Option{dyndbscan.WithEps(2), dyndbscan.WithMinPts(3), dyndbscan.WithAlgorithm(dyndbscan.Algorithm(-1))}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, err := dyndbscan.New(tc.opts...)
			if tc.ok && err != nil {
				t.Fatalf("New: %v", err)
			}
			if !tc.ok {
				if err == nil {
					t.Fatal("New succeeded, want error")
				}
				return
			}
			if e == nil {
				t.Fatal("nil engine without error")
			}
		})
	}
	// Missing required options are distinguishable.
	_, err := dyndbscan.New(dyndbscan.WithEps(2))
	if !errors.Is(err, dyndbscan.ErrMissingOption) {
		t.Fatalf("missing MinPts: got %v, want ErrMissingOption", err)
	}
	// Defaults: fully dynamic, 2D, rho 0.001.
	e, err := dyndbscan.New(dyndbscan.WithEps(2), dyndbscan.WithMinPts(3))
	if err != nil {
		t.Fatal(err)
	}
	if e.Algorithm() != dyndbscan.AlgoFullyDynamic {
		t.Fatalf("default algorithm = %v", e.Algorithm())
	}
	if cfg := e.Config(); cfg.Dims != 2 || cfg.Rho != 0.001 {
		t.Fatalf("default config = %+v", cfg)
	}
}

// TestNewConstructsAllAlgorithms runs the acceptance check that New builds
// every algorithm and the whole Engine surface works on each.
func TestNewConstructsAllAlgorithms(t *testing.T) {
	algos := []dyndbscan.Algorithm{
		dyndbscan.AlgoFullyDynamic,
		dyndbscan.AlgoSemiDynamic,
		dyndbscan.AlgoIncDBSCAN,
	}
	for _, algo := range algos {
		t.Run(algo.String(), func(t *testing.T) {
			e, err := dyndbscan.New(
				dyndbscan.WithAlgorithm(algo),
				dyndbscan.WithEps(2),
				dyndbscan.WithMinPts(3),
				dyndbscan.WithRho(0),
			)
			if err != nil {
				t.Fatal(err)
			}
			if e.Algorithm() != algo {
				t.Fatalf("Algorithm() = %v, want %v", e.Algorithm(), algo)
			}
			var events []dyndbscan.Event
			cancel := e.Subscribe(func(ev dyndbscan.Event) { events = append(events, ev) })
			defer cancel()

			ids, err := e.InsertBatch([]dyndbscan.Point{
				{0, 0}, {1, 0}, {0, 1}, {1, 1}, {50, 50},
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(ids) != 5 || e.Len() != 5 {
				t.Fatalf("batch inserted %d ids, Len=%d", len(ids), e.Len())
			}
			res, err := e.GroupBy(ids)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Groups) != 1 || len(res.Groups[0]) != 4 || len(res.Noise) != 1 {
				t.Fatalf("grouping: %+v", res)
			}
			// Stable identity surface.
			cids, ok := e.ClusterOf(ids[0])
			if !ok || len(cids) != 1 {
				t.Fatalf("ClusterOf(%d) = %v, %v", ids[0], cids, ok)
			}
			if members := e.Members(cids[0]); len(members) != 4 {
				t.Fatalf("Members(%d) = %v", cids[0], members)
			}
			snap := e.Snapshot()
			if snap.NumClusters() != 1 || len(snap.Noise) != 1 {
				t.Fatalf("snapshot: %d clusters, %d noise", snap.NumClusters(), len(snap.Noise))
			}
			if !snap.SameCluster(ids[0], ids[3]) || snap.SameCluster(ids[0], ids[4]) {
				t.Fatal("snapshot SameCluster wrong")
			}
			// Core promotions must have been observed on every algorithm.
			// (Dispatch is async; Sync is the delivery barrier.)
			e.Sync()
			cores := 0
			for _, ev := range events {
				if ev.Kind == dyndbscan.EventPointBecameCore {
					cores++
				}
			}
			if cores == 0 {
				t.Fatal("no PointBecameCore events observed")
			}
			// Deletion surface.
			err = e.DeleteBatch(ids[:1])
			if algo == dyndbscan.AlgoSemiDynamic {
				if !errors.Is(err, dyndbscan.ErrDeletesUnsupported) {
					t.Fatalf("semi DeleteBatch: %v", err)
				}
			} else if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBatchEquivalence checks that batch updates land in exactly the state
// single-point updates produce, and that both match the offline oracle.
func TestBatchEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var pts []dyndbscan.Point
	for i := 0; i < 300; i++ {
		cx, cy := float64(rng.Intn(3)*15), float64(rng.Intn(3)*15)
		pts = append(pts, dyndbscan.Point{cx + rng.NormFloat64()*2.5, cy + rng.NormFloat64()*2.5})
	}
	mk := func() *dyndbscan.Engine {
		e, err := dyndbscan.New(dyndbscan.WithEps(3), dyndbscan.WithMinPts(5), dyndbscan.WithRho(0))
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	batched, single := mk(), mk()

	bIDs, err := batched.InsertBatch(pts)
	if err != nil {
		t.Fatal(err)
	}
	var sIDs []dyndbscan.PointID
	for _, pt := range pts {
		id, err := single.Insert(pt)
		if err != nil {
			t.Fatal(err)
		}
		sIDs = append(sIDs, id)
	}
	if !reflect.DeepEqual(bIDs, sIDs) {
		t.Fatal("batch and single inserts assigned different handles")
	}

	// Delete a random third, batched vs one at a time.
	perm := rng.Perm(len(pts))[:100]
	var doomed []dyndbscan.PointID
	for _, k := range perm {
		doomed = append(doomed, bIDs[k])
	}
	if err := batched.DeleteBatch(doomed); err != nil {
		t.Fatal(err)
	}
	for _, id := range doomed {
		if err := single.Delete(id); err != nil {
			t.Fatal(err)
		}
	}

	rb, err := batched.GroupAll()
	if err != nil {
		t.Fatal(err)
	}
	rs, err := single.GroupAll()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rb, rs) {
		t.Fatalf("batched clustering differs from single-op clustering:\n%+v\nvs\n%+v", rb, rs)
	}

	// Oracle comparison on the survivors.
	dead := make(map[dyndbscan.PointID]bool, len(doomed))
	for _, id := range doomed {
		dead[id] = true
	}
	var alive []dyndbscan.Point
	var aliveIDs []dyndbscan.PointID
	for i, id := range bIDs {
		if !dead[id] {
			alive = append(alive, pts[i])
			aliveIDs = append(aliveIDs, id)
		}
	}
	oracle := dyndbscan.StaticDBSCAN(alive, 2, 3, 5)
	if len(rb.Groups) != oracle.NumClust {
		t.Fatalf("engine found %d clusters, oracle %d", len(rb.Groups), oracle.NumClust)
	}
	for trial := 0; trial < 300; trial++ {
		i, j := rng.Intn(len(aliveIDs)), rng.Intn(len(aliveIDs))
		if rb.SameGroup(aliveIDs[i], aliveIDs[j]) != oracle.SameCluster(i, j) {
			t.Fatalf("pair (%d,%d) disagrees with oracle", i, j)
		}
	}
}

// TestSnapshotVersionMonotonic checks the epoch scheme: every successful
// update advances the version by one, failures and no-ops leave it alone,
// and snapshots are cached per epoch.
func TestSnapshotVersionMonotonic(t *testing.T) {
	e, err := dyndbscan.New(dyndbscan.WithEps(2), dyndbscan.WithMinPts(2))
	if err != nil {
		t.Fatal(err)
	}
	if v := e.Version(); v != 0 {
		t.Fatalf("fresh engine version = %d", v)
	}
	id, err := e.Insert(dyndbscan.Point{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if v := e.Version(); v != 1 {
		t.Fatalf("after Insert version = %d", v)
	}
	if _, err := e.InsertBatch([]dyndbscan.Point{{1, 0}, {0, 1}}); err != nil {
		t.Fatal(err)
	}
	if v := e.Version(); v != 2 {
		t.Fatalf("after InsertBatch version = %d (batch must count once)", v)
	}
	// Failed updates do not advance the epoch.
	if err := e.Delete(9999); !errors.Is(err, dyndbscan.ErrUnknownPoint) {
		t.Fatalf("Delete(9999): %v", err)
	}
	if _, err := e.Insert(dyndbscan.Point{0}); !errors.Is(err, dyndbscan.ErrBadPoint) {
		t.Fatalf("short insert: %v", err)
	}
	if err := e.DeleteBatch(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := e.InsertBatch(nil); err != nil {
		t.Fatal(err)
	}
	if v := e.Version(); v != 2 {
		t.Fatalf("failed/no-op updates moved version to %d", v)
	}
	s1 := e.Snapshot()
	if s1.Version != 2 {
		t.Fatalf("snapshot version = %d", s1.Version)
	}
	if s2 := e.Snapshot(); s2 != s1 {
		t.Fatal("snapshot not cached within an epoch")
	}
	if err := e.Delete(id); err != nil {
		t.Fatal(err)
	}
	s3 := e.Snapshot()
	if s3 == s1 || s3.Version != 3 {
		t.Fatalf("snapshot after update: %+v", s3)
	}
	if _, ok := s3.ClusterOf(id); ok {
		t.Fatal("deleted point still live in fresh snapshot")
	}
	if _, ok := s1.ClusterOf(id); !ok {
		t.Fatal("old snapshot mutated by later update")
	}
}

// TestDeleteBatchValidation checks the all-or-nothing contract of
// DeleteBatch: unknown and duplicate ids reject the batch before any
// deletion happens.
func TestDeleteBatchValidation(t *testing.T) {
	e, err := dyndbscan.New(dyndbscan.WithEps(2), dyndbscan.WithMinPts(2))
	if err != nil {
		t.Fatal(err)
	}
	ids, err := e.InsertBatch([]dyndbscan.Point{{0, 0}, {1, 0}, {2, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.DeleteBatch([]dyndbscan.PointID{ids[0], 777}); !errors.Is(err, dyndbscan.ErrUnknownPoint) {
		t.Fatalf("unknown id: %v", err)
	}
	if err := e.DeleteBatch([]dyndbscan.PointID{ids[0], ids[1], ids[0]}); !errors.Is(err, dyndbscan.ErrDuplicateID) {
		t.Fatalf("duplicate id: %v", err)
	}
	if e.Len() != 3 {
		t.Fatalf("rejected batches deleted points: Len=%d", e.Len())
	}
	if v := e.Version(); v != 1 {
		t.Fatalf("rejected batches advanced version to %d", v)
	}
}

// bridgeScenario drives the merge/split script of the paper's Figure 1: two
// blobs, a bridge of points merging them, then (optionally) the bridge's
// deletion splitting them again. At every stage the engine's clustering is
// compared against the StaticDBSCAN oracle over the same live points.
func bridgeScenario(t *testing.T, algo dyndbscan.Algorithm, withDeletes bool) {
	t.Helper()
	e, err := dyndbscan.New(
		dyndbscan.WithAlgorithm(algo),
		dyndbscan.WithEps(1.5),
		dyndbscan.WithMinPts(3),
		dyndbscan.WithRho(0),
	)
	if err != nil {
		t.Fatal(err)
	}
	var events []dyndbscan.Event
	cancel := e.Subscribe(func(ev dyndbscan.Event) { events = append(events, ev) })
	defer cancel()
	// A second subscription validates the stream invariants (id lifecycle,
	// no unknown references) and, at the end, reconciles the event-derived
	// live cluster set against the snapshot.
	val := evcheck.New()
	cancelVal := e.Subscribe(val.Observe)
	defer cancelVal()
	checkStream := func(stage string) {
		t.Helper()
		e.Sync()
		val.Commit(e.Version())
		if err := val.Err(); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		if err := val.ReconcileLive(e.Snapshot().ClusterIDs()); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
	}
	count := func(kind dyndbscan.EventKind) int {
		e.Sync() // async dispatch: wait for committed events to land
		n := 0
		for _, ev := range events {
			if ev.Kind == kind {
				n++
			}
		}
		return n
	}

	var live []dyndbscan.Point
	checkOracle := func(stage string) int {
		t.Helper()
		res, err := e.GroupAll()
		if err != nil {
			t.Fatal(err)
		}
		oracle := dyndbscan.StaticDBSCAN(live, 2, 1.5, 3)
		if len(res.Groups) != oracle.NumClust {
			t.Fatalf("%s: engine has %d clusters, oracle %d", stage, len(res.Groups), oracle.NumClust)
		}
		return oracle.NumClust
	}

	// Two blobs, far apart. (Each blob spans several grid cells, so building
	// one legitimately emits Formed + micro-Merged events of its own; the
	// assertions below are therefore phrased against the two blobs' final
	// stable ids rather than raw event counts.)
	var left, right []dyndbscan.Point
	for i := 0; i < 6; i++ {
		left = append(left, dyndbscan.Point{float64(i % 3), float64(i / 3)})
		right = append(right, dyndbscan.Point{20 + float64(i%3), float64(i / 3)})
	}
	leftIDs, err := e.InsertBatch(left)
	if err != nil {
		t.Fatal(err)
	}
	rightIDs, err := e.InsertBatch(right)
	if err != nil {
		t.Fatal(err)
	}
	live = append(append(live, left...), right...)
	if n := checkOracle("blobs"); n != 2 {
		t.Fatalf("expected 2 blob clusters, oracle says %d", n)
	}
	if count(dyndbscan.EventClusterFormed) < 2 {
		t.Fatalf("expected ≥2 ClusterFormed events, got %d", count(dyndbscan.EventClusterFormed))
	}
	leftCID, _ := e.ClusterOf(leftIDs[0])
	rightCID, _ := e.ClusterOf(rightIDs[0])
	if len(leftCID) != 1 || len(rightCID) != 1 || leftCID[0] == rightCID[0] {
		t.Fatalf("blob cluster ids: %v vs %v", leftCID, rightCID)
	}
	mergesBefore := count(dyndbscan.EventClusterMerged)

	// Bridge the gap: the two clusters must merge, observably.
	var bridge []dyndbscan.Point
	for x := 3.0; x < 20; x++ {
		for j := 0; j < 3; j++ {
			bridge = append(bridge, dyndbscan.Point{x, 0.4 * float64(j)})
		}
	}
	bridgeIDs, err := e.InsertBatch(bridge)
	if err != nil {
		t.Fatal(err)
	}
	live = append(live, bridge...)
	if n := checkOracle("bridged"); n != 1 {
		t.Fatalf("expected 1 merged cluster, oracle says %d", n)
	}
	if count(dyndbscan.EventClusterMerged) <= mergesBefore {
		t.Fatal("no ClusterMerged event observed for an oracle-confirmed merge")
	}
	lNow, _ := e.ClusterOf(leftIDs[0])
	rNow, _ := e.ClusterOf(rightIDs[0])
	if len(lNow) != 1 || len(rNow) != 1 || lNow[0] != rNow[0] {
		t.Fatalf("blobs not unified after bridging: %v vs %v", lNow, rNow)
	}

	if !withDeletes {
		checkStream("insert-only stream")
		return
	}

	// Delete the bridge: the cluster must split, observably.
	if err := e.DeleteBatch(bridgeIDs); err != nil {
		t.Fatal(err)
	}
	live = live[:len(left)+len(right)]
	if n := checkOracle("split"); n != 2 {
		t.Fatalf("expected 2 clusters after split, oracle says %d", n)
	}
	if count(dyndbscan.EventClusterSplit) == 0 {
		t.Fatal("no ClusterSplit event observed for an oracle-confirmed split")
	}
	lAfter, _ := e.ClusterOf(leftIDs[0])
	rAfter, _ := e.ClusterOf(rightIDs[0])
	if len(lAfter) != 1 || len(rAfter) != 1 || lAfter[0] == rAfter[0] {
		t.Fatalf("blobs not separated after split: %v vs %v", lAfter, rAfter)
	}
	checkStream("full stream")
}

// TestPointNoiseEvents checks the demotion event on the deleting algorithms:
// removing a neighbor below the MinPts threshold demotes a live core point,
// which must surface as PointBecameNoise.
func TestPointNoiseEvents(t *testing.T) {
	for _, algo := range []dyndbscan.Algorithm{dyndbscan.AlgoFullyDynamic, dyndbscan.AlgoIncDBSCAN} {
		t.Run(algo.String(), func(t *testing.T) {
			e, err := dyndbscan.New(
				dyndbscan.WithAlgorithm(algo),
				dyndbscan.WithEps(1.5),
				dyndbscan.WithMinPts(3),
				dyndbscan.WithRho(0),
			)
			if err != nil {
				t.Fatal(err)
			}
			var demoted []dyndbscan.PointID
			cancel := e.Subscribe(func(ev dyndbscan.Event) {
				if ev.Kind == dyndbscan.EventPointBecameNoise {
					demoted = append(demoted, ev.Point)
				}
			})
			defer cancel()
			// (1,0) is the only core point; deleting an end of the chain
			// drops its vicinity below MinPts.
			ids, err := e.InsertBatch([]dyndbscan.Point{{0, 0}, {1, 0}, {2, 0}})
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Delete(ids[0]); err != nil {
				t.Fatal(err)
			}
			e.Sync()
			if len(demoted) == 0 {
				t.Fatal("no PointBecameNoise event for an oracle-confirmed demotion")
			}
			if demoted[0] != ids[1] {
				t.Fatalf("demoted %v, want %v", demoted, ids[1])
			}
		})
	}
}

// TestEngineEventsMergeSplit is the acceptance scenario: a ClusterMerged and
// a ClusterSplit observed through Subscribe, each confirmed by the
// StaticDBSCAN oracle, on every algorithm that supports the operation.
func TestEngineEventsMergeSplit(t *testing.T) {
	t.Run("FullyDynamic", func(t *testing.T) { bridgeScenario(t, dyndbscan.AlgoFullyDynamic, true) })
	t.Run("IncDBSCAN", func(t *testing.T) { bridgeScenario(t, dyndbscan.AlgoIncDBSCAN, true) })
	t.Run("SemiDynamic", func(t *testing.T) { bridgeScenario(t, dyndbscan.AlgoSemiDynamic, false) })
}

// TestStableClusterIdentity checks the identity contract: updates that do
// not merge or split a cluster leave its id (and its members' ClusterOf
// answers) untouched.
func TestStableClusterIdentity(t *testing.T) {
	e, err := dyndbscan.New(dyndbscan.WithEps(1.5), dyndbscan.WithMinPts(3), dyndbscan.WithRho(0))
	if err != nil {
		t.Fatal(err)
	}
	mkBlob := func(x0 float64) []dyndbscan.PointID {
		var pts []dyndbscan.Point
		for i := 0; i < 6; i++ {
			pts = append(pts, dyndbscan.Point{x0 + float64(i%3), float64(i / 3)})
		}
		ids, err := e.InsertBatch(pts)
		if err != nil {
			t.Fatal(err)
		}
		return ids
	}
	a := mkBlob(0)
	b := mkBlob(40)
	ca, _ := e.ClusterOf(a[0])
	cb, _ := e.ClusterOf(b[0])
	if len(ca) != 1 || len(cb) != 1 || ca[0] == cb[0] {
		t.Fatalf("blob ids: %v %v", ca, cb)
	}
	// Unrelated churn: grow and shrink a third blob, sprinkle noise.
	c := mkBlob(80)
	if _, err := e.Insert(dyndbscan.Point{200, 200}); err != nil {
		t.Fatal(err)
	}
	if err := e.DeleteBatch(c); err != nil {
		t.Fatal(err)
	}
	// Also churn inside blob a without changing its connectivity.
	extra, err := e.Insert(dyndbscan.Point{1, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Delete(extra); err != nil {
		t.Fatal(err)
	}
	ca2, _ := e.ClusterOf(a[0])
	cb2, _ := e.ClusterOf(b[0])
	if !reflect.DeepEqual(ca, ca2) || !reflect.DeepEqual(cb, cb2) {
		t.Fatalf("cluster identity drifted under unrelated churn: %v->%v, %v->%v", ca, ca2, cb, cb2)
	}
	if members := e.Members(ca[0]); len(members) != 6 {
		t.Fatalf("Members(%d) = %v", ca[0], members)
	}
}

// TestEngineConcurrentUse hammers a thread-safe Engine from several
// goroutines; with -race this verifies the RWMutex/epoch discipline,
// including concurrent snapshot readers and subscribers.
func TestEngineConcurrentUse(t *testing.T) {
	e, err := dyndbscan.New(dyndbscan.WithEps(5), dyndbscan.WithMinPts(4))
	if err != nil {
		t.Fatal(err)
	}
	var evMu sync.Mutex
	events := 0
	cancel := e.Subscribe(func(dyndbscan.Event) { evMu.Lock(); events++; evMu.Unlock() })
	defer cancel()
	var wg sync.WaitGroup
	const workers = 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var mine []dyndbscan.PointID
			for i := 0; i < 300; i++ {
				switch {
				case len(mine) == 0 || rng.Float64() < 0.5:
					if rng.Float64() < 0.5 {
						id, err := e.Insert(dyndbscan.Point{rng.Float64() * 100, rng.Float64() * 100})
						if err != nil {
							t.Error(err)
							return
						}
						mine = append(mine, id)
					} else {
						pts := make([]dyndbscan.Point, 4)
						for j := range pts {
							pts[j] = dyndbscan.Point{rng.Float64() * 100, rng.Float64() * 100}
						}
						ids, err := e.InsertBatch(pts)
						if err != nil {
							t.Error(err)
							return
						}
						mine = append(mine, ids...)
					}
				case rng.Float64() < 0.4:
					k := rng.Intn(len(mine))
					if err := e.Delete(mine[k]); err != nil {
						t.Error(err)
						return
					}
					mine[k] = mine[len(mine)-1]
					mine = mine[:len(mine)-1]
				case rng.Float64() < 0.5:
					if _, err := e.GroupBy(mine[:1+rng.Intn(len(mine))]); err != nil {
						t.Error(err)
						return
					}
				default:
					snap := e.Snapshot()
					for _, id := range mine {
						snap.ClusterOf(id) // may be stale; must not race
					}
					e.ClusterOf(mine[rng.Intn(len(mine))])
				}
			}
			if err := e.DeleteBatch(mine); err != nil {
				t.Error(err)
			}
		}(int64(w))
	}
	wg.Wait()
	if e.Len() != 0 {
		t.Fatalf("Len=%d after all workers drained", e.Len())
	}
	e.Sync()
	evMu.Lock()
	n := events
	evMu.Unlock()
	if n == 0 {
		t.Fatal("no events observed under concurrent churn")
	}
}
