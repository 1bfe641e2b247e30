package dyndbscan_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"dyndbscan"
	"dyndbscan/internal/evcheck"
	"dyndbscan/internal/wal"
)

// newShardTestEngine builds one engine of the equivalence pair. Rho = 0:
// with exact semantics every clustering decision is a pure function of the
// visible point set, so the sharded engine must reproduce the single-shard
// clustering exactly (the documented equivalence guarantee).
func newShardTestEngine(t *testing.T, algo dyndbscan.Algorithm, dims, shards int) *dyndbscan.Engine {
	t.Helper()
	opts := []dyndbscan.Option{
		dyndbscan.WithAlgorithm(algo),
		dyndbscan.WithDims(dims),
		dyndbscan.WithEps(30),
		dyndbscan.WithMinPts(4),
		dyndbscan.WithRho(0),
		dyndbscan.WithShards(shards),
	}
	if shards > 1 {
		// Narrow stripes (clamped to just past the ghost band) force the
		// test blobs to straddle many seams, stressing the stitching pass.
		opts = append(opts, dyndbscan.WithShardStripe(4))
	}
	e, err := dyndbscan.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// clusteredPoints emits blobs spread along dimension 0 — including negative
// coordinates, exercising the stripe arithmetic below zero — plus uniform
// noise.
func clusteredPoints(rng *rand.Rand, dims, blobs, perBlob, noise int) []dyndbscan.Point {
	var pts []dyndbscan.Point
	for b := 0; b < blobs; b++ {
		center := make(dyndbscan.Point, dims)
		center[0] = -600 + rng.Float64()*1200
		for d := 1; d < dims; d++ {
			center[d] = rng.Float64() * 400
		}
		for i := 0; i < perBlob; i++ {
			pt := make(dyndbscan.Point, dims)
			for d := 0; d < dims; d++ {
				pt[d] = center[d] + (rng.Float64()-0.5)*120
			}
			pts = append(pts, pt)
		}
	}
	for i := 0; i < noise; i++ {
		pt := make(dyndbscan.Point, dims)
		pt[0] = -800 + rng.Float64()*1600
		for d := 1; d < dims; d++ {
			pt[d] = rng.Float64() * 600
		}
		pts = append(pts, pt)
	}
	return pts
}

// checkIsomorphic asserts the two engines hold the same clustering as a
// partition (groups, border multi-membership, noise) — cluster ids may
// differ, which is exactly what GroupAll's canonical Result abstracts away.
func checkIsomorphic(t *testing.T, single, sharded *dyndbscan.Engine, stage string) {
	t.Helper()
	if gl, gs := single.Len(), sharded.Len(); gl != gs {
		t.Fatalf("%s: Len mismatch: single %d, sharded %d", stage, gl, gs)
	}
	r1, err := single.GroupAll()
	if err != nil {
		t.Fatalf("%s: single GroupAll: %v", stage, err)
	}
	r2, err := sharded.GroupAll()
	if err != nil {
		t.Fatalf("%s: sharded GroupAll: %v", stage, err)
	}
	if len(r1.Groups) != len(r2.Groups) {
		t.Fatalf("%s: group count mismatch: single %d, sharded %d", stage, len(r1.Groups), len(r2.Groups))
	}
	for i := range r1.Groups {
		if !reflect.DeepEqual(r1.Groups[i], r2.Groups[i]) {
			t.Fatalf("%s: group %d mismatch:\nsingle:  %v\nsharded: %v", stage, i, r1.Groups[i], r2.Groups[i])
		}
	}
	if !(len(r1.Noise) == 0 && len(r2.Noise) == 0) && !reflect.DeepEqual(r1.Noise, r2.Noise) {
		t.Fatalf("%s: noise mismatch:\nsingle:  %v\nsharded: %v", stage, r1.Noise, r2.Noise)
	}
}

// TestShardedEquivalence drives an identical mixed workload through a
// single-shard and a sharded engine and requires isomorphic snapshots after
// every phase — the acceptance criterion of the sharded mode.
func TestShardedEquivalence(t *testing.T) {
	cases := []struct {
		name    string
		algo    dyndbscan.Algorithm
		dims    int
		shards  int
		deletes bool
	}{
		{"FullyDynamic/2D/3shards", dyndbscan.AlgoFullyDynamic, 2, 3, true},
		{"FullyDynamic/2D/8shards", dyndbscan.AlgoFullyDynamic, 2, 8, true},
		{"FullyDynamic/3D/4shards", dyndbscan.AlgoFullyDynamic, 3, 4, true},
		{"SemiDynamic/2D/4shards", dyndbscan.AlgoSemiDynamic, 2, 4, false},
		{"IncDBSCAN/2D/4shards", dyndbscan.AlgoIncDBSCAN, 2, 4, true},
		{"IncDBSCAN/2D/3shards", dyndbscan.AlgoIncDBSCAN, 2, 3, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			single := newShardTestEngine(t, tc.algo, tc.dims, 1)
			sharded := newShardTestEngine(t, tc.algo, tc.dims, tc.shards)
			if got := sharded.Shards(); got != tc.shards {
				t.Fatalf("Shards() = %d, want %d", got, tc.shards)
			}

			// Phase 1: batch ingestion. Both engines mint the same handles
			// for the same sequence, so ids can be shared below.
			pts := clusteredPoints(rng, tc.dims, 6, 60, 30)
			ids1, err := single.InsertBatch(pts)
			if err != nil {
				t.Fatal(err)
			}
			ids2, err := sharded.InsertBatch(pts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ids1, ids2) {
				t.Fatalf("InsertBatch ids diverge: %v vs %v", ids1[:5], ids2[:5])
			}
			checkIsomorphic(t, single, sharded, "after batch insert")

			live := append([]dyndbscan.PointID(nil), ids1...)

			// Phase 2: mixed Apply batches (fresh points in, random points
			// out) — the pipelined path the sharded mode parallelizes.
			for round := 0; round < 4; round++ {
				fresh := clusteredPoints(rng, tc.dims, 2, 25, 5)
				ops := make([]dyndbscan.Op, 0, len(fresh)+20)
				for _, pt := range fresh {
					ops = append(ops, dyndbscan.InsertOp(pt))
				}
				if tc.deletes {
					for i := 0; i < 20 && len(live) > 0; i++ {
						k := rng.Intn(len(live))
						ops = append(ops, dyndbscan.DeleteOp(live[k]))
						live[k] = live[len(live)-1]
						live = live[:len(live)-1]
					}
				}
				out1, err := single.Apply(ops)
				if err != nil {
					t.Fatal(err)
				}
				out2, err := sharded.Apply(ops)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(out1, out2) {
					t.Fatalf("Apply round %d ids diverge", round)
				}
				for i, op := range ops {
					if op.Kind == dyndbscan.OpInsert {
						live = append(live, out1[i])
					}
				}
				checkIsomorphic(t, single, sharded, fmt.Sprintf("after Apply round %d", round))
			}

			// Phase 3: single-op traffic.
			for i := 0; i < 30; i++ {
				pt := clusteredPoints(rng, tc.dims, 1, 1, 0)[0]
				id1, err := single.Insert(pt)
				if err != nil {
					t.Fatal(err)
				}
				id2, err := sharded.Insert(pt)
				if err != nil {
					t.Fatal(err)
				}
				if id1 != id2 {
					t.Fatalf("Insert ids diverge: %d vs %d", id1, id2)
				}
				live = append(live, id1)
				if tc.deletes && i%3 == 0 && len(live) > 1 {
					k := rng.Intn(len(live))
					if err := single.Delete(live[k]); err != nil {
						t.Fatal(err)
					}
					if err := sharded.Delete(live[k]); err != nil {
						t.Fatal(err)
					}
					live[k] = live[len(live)-1]
					live = live[:len(live)-1]
				}
			}
			checkIsomorphic(t, single, sharded, "after single ops")

			// Phase 4: batched deletion.
			if tc.deletes {
				n := len(live) / 3
				batch := append([]dyndbscan.PointID(nil), live[:n]...)
				if err := single.DeleteBatch(batch); err != nil {
					t.Fatal(err)
				}
				if err := sharded.DeleteBatch(batch); err != nil {
					t.Fatal(err)
				}
				live = live[n:]
				checkIsomorphic(t, single, sharded, "after batch delete")
			}

			// Cross-check the point-level read surface on a sample.
			for i := 0; i < 25 && i < len(live); i++ {
				id := live[i]
				c1, ok1 := single.ClusterOf(id)
				c2, ok2 := sharded.ClusterOf(id)
				if ok1 != ok2 || len(c1) != len(c2) {
					t.Fatalf("ClusterOf(%d) membership count mismatch: %v/%v vs %v/%v", id, c1, ok1, c2, ok2)
				}
				if !sharded.Has(id) {
					t.Fatalf("sharded.Has(%d) = false for live point", id)
				}
			}
		})
	}
}

// TestShardedValidation covers the sharded engine's option and update
// validation surface.
func TestShardedValidation(t *testing.T) {
	if _, err := dyndbscan.New(dyndbscan.WithEps(1), dyndbscan.WithMinPts(2), dyndbscan.WithShards(0)); err == nil {
		t.Fatal("WithShards(0) accepted")
	}
	// A route's copy mask holds 64 shards.
	if _, err := dyndbscan.New(dyndbscan.WithEps(1), dyndbscan.WithMinPts(2), dyndbscan.WithShards(65)); err == nil {
		t.Fatal("WithShards(65) accepted")
	} else if !strings.Contains(err.Error(), "at most 64 shards") {
		t.Fatalf("WithShards(65): error %q does not name the 64-shard limit", err)
	}
	if _, err := dyndbscan.New(dyndbscan.WithEps(1), dyndbscan.WithMinPts(2), dyndbscan.WithShardStripe(0)); err == nil {
		t.Fatal("WithShardStripe(0) accepted")
	}
	// WithShardStripe is meaningless without sharding: a silent no-op until
	// this PR, now a construction error.
	if _, err := dyndbscan.New(
		dyndbscan.WithEps(1), dyndbscan.WithMinPts(2), dyndbscan.WithShardStripe(8),
	); err == nil {
		t.Fatal("WithShardStripe without WithShards(n>1) accepted")
	}
	if _, err := dyndbscan.New(
		dyndbscan.WithEps(1), dyndbscan.WithMinPts(2),
		dyndbscan.WithShards(1), dyndbscan.WithShardStripe(8),
	); err == nil {
		t.Fatal("WithShardStripe with WithShards(1) accepted")
	}
	// Same for the rebalancing policy, which also rejects negative fields.
	if _, err := dyndbscan.New(
		dyndbscan.WithEps(1), dyndbscan.WithMinPts(2),
		dyndbscan.WithRebalance(dyndbscan.DefaultRebalancePolicy()),
	); err == nil {
		t.Fatal("WithRebalance without WithShards(n>1) accepted")
	}
	if _, err := dyndbscan.New(
		dyndbscan.WithEps(1), dyndbscan.WithMinPts(2), dyndbscan.WithShards(2),
		dyndbscan.WithRebalance(dyndbscan.RebalancePolicy{MaxImbalance: -2}),
	); err == nil {
		t.Fatal("WithRebalance with a negative field accepted")
	}

	e, err := dyndbscan.New(dyndbscan.WithEps(10), dyndbscan.WithMinPts(3),
		dyndbscan.WithShards(2), dyndbscan.WithRho(0))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.Shards() != 2 {
		t.Fatalf("Shards() = %d, want 2", e.Shards())
	}
	id, err := e.Insert(dyndbscan.Point{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Insert(dyndbscan.Point{1}); !errors.Is(err, dyndbscan.ErrBadPoint) {
		t.Fatalf("short point: got %v, want ErrBadPoint", err)
	}
	if err := e.Delete(id + 99); !errors.Is(err, dyndbscan.ErrUnknownPoint) {
		t.Fatalf("unknown delete: got %v, want ErrUnknownPoint", err)
	}
	if err := e.DeleteBatch([]dyndbscan.PointID{id, id}); !errors.Is(err, dyndbscan.ErrDuplicateID) {
		t.Fatalf("dup batch: got %v, want ErrDuplicateID", err)
	}
	if err := e.DeleteBatch([]dyndbscan.PointID{id, id + 99}); !errors.Is(err, dyndbscan.ErrUnknownPoint) {
		t.Fatalf("unknown batch: got %v, want ErrUnknownPoint", err)
	}
	if e.Has(id) != true || e.Len() != 1 {
		t.Fatal("failed DeleteBatch mutated state")
	}
	if _, err := e.Apply([]dyndbscan.Op{dyndbscan.InsertOp(dyndbscan.Point{2, 2}), dyndbscan.DeleteOp(id + 99)}); !errors.Is(err, dyndbscan.ErrUnknownPoint) {
		t.Fatalf("Apply unknown delete: got %v, want ErrUnknownPoint", err)
	}
	if e.Len() != 1 {
		t.Fatalf("failed Apply partially committed: Len = %d, want 1", e.Len())
	}

	// Insertion-only algorithm: deletes are rejected without state change.
	se, err := dyndbscan.New(dyndbscan.WithEps(10), dyndbscan.WithMinPts(3),
		dyndbscan.WithAlgorithm(dyndbscan.AlgoSemiDynamic), dyndbscan.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	sid, err := se.Insert(dyndbscan.Point{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := se.Delete(sid); !errors.Is(err, dyndbscan.ErrDeletesUnsupported) {
		t.Fatalf("semi delete: got %v, want ErrDeletesUnsupported", err)
	}
	if err := se.DeleteBatch([]dyndbscan.PointID{sid}); !errors.Is(err, dyndbscan.ErrDeletesUnsupported) {
		t.Fatalf("semi batch delete: got %v, want ErrDeletesUnsupported", err)
	}
	if !se.Has(sid) {
		t.Fatal("rejected delete removed the point")
	}
}

// TestShardedStableIDs verifies the stitched global cluster ids behave like
// the single-backend stable ids: they survive unrelated updates, a merge
// keeps one of the two ids, and a split keeps the old id on one fragment.
func TestShardedStableIDs(t *testing.T) {
	e, err := dyndbscan.New(
		dyndbscan.WithEps(10), dyndbscan.WithMinPts(3), dyndbscan.WithRho(0),
		dyndbscan.WithShards(3), dyndbscan.WithShardStripe(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	blob := func(cx float64, n int) []dyndbscan.Point {
		pts := make([]dyndbscan.Point, n)
		for i := range pts {
			pts[i] = dyndbscan.Point{cx + float64(i%3), float64(i / 3)}
		}
		return pts
	}
	leftIDs, err := e.InsertBatch(blob(0, 9))
	if err != nil {
		t.Fatal(err)
	}
	cidsL, ok := e.ClusterOf(leftIDs[0])
	if !ok || len(cidsL) != 1 {
		t.Fatalf("left blob membership: %v %v", cidsL, ok)
	}
	left := cidsL[0]

	// An unrelated faraway blob must not disturb the left cluster's id.
	rightIDs, err := e.InsertBatch(blob(500, 9))
	if err != nil {
		t.Fatal(err)
	}
	cidsL2, _ := e.ClusterOf(leftIDs[0])
	if len(cidsL2) != 1 || cidsL2[0] != left {
		t.Fatalf("left id changed after unrelated insert: %v -> %v", left, cidsL2)
	}
	cidsR, _ := e.ClusterOf(rightIDs[0])
	if len(cidsR) != 1 || cidsR[0] == left {
		t.Fatalf("right blob id: %v", cidsR)
	}
	right := cidsR[0]

	// Bridge them: the merged cluster keeps one of the two ids.
	var bridge []dyndbscan.Point
	for x := 3.0; x < 500; x += 3 {
		bridge = append(bridge, dyndbscan.Point{x, 0}, dyndbscan.Point{x + 1, 0}, dyndbscan.Point{x + 2, 0})
	}
	bridgeIDs, err := e.InsertBatch(bridge)
	if err != nil {
		t.Fatal(err)
	}
	merged, _ := e.ClusterOf(leftIDs[0])
	if len(merged) != 1 || (merged[0] != left && merged[0] != right) {
		t.Fatalf("merged id %v is neither %v nor %v", merged, left, right)
	}
	if mr, _ := e.ClusterOf(rightIDs[0]); len(mr) != 1 || mr[0] != merged[0] {
		t.Fatalf("blobs not merged: %v vs %v", merged, mr)
	}

	// Split them again: one fragment keeps the merged id.
	if err := e.DeleteBatch(bridgeIDs); err != nil {
		t.Fatal(err)
	}
	sl, _ := e.ClusterOf(leftIDs[0])
	sr, _ := e.ClusterOf(rightIDs[0])
	if len(sl) != 1 || len(sr) != 1 || sl[0] == sr[0] {
		t.Fatalf("split failed: %v vs %v", sl, sr)
	}
	if sl[0] != merged[0] && sr[0] != merged[0] {
		t.Fatalf("no fragment kept the merged id %v: %v / %v", merged[0], sl, sr)
	}
}

// TestShardedEvents verifies the sharded event stream: global handles in
// point events, and cluster transitions (formed / merged / split /
// dissolved) derived by the stitch diff, delivered in commit order.
func TestShardedEvents(t *testing.T) {
	e, err := dyndbscan.New(
		dyndbscan.WithEps(10), dyndbscan.WithMinPts(3), dyndbscan.WithRho(0),
		dyndbscan.WithShards(3), dyndbscan.WithShardStripe(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	var mu sync.Mutex
	var events []dyndbscan.Event
	cancel := e.Subscribe(func(ev dyndbscan.Event) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	})
	defer cancel()
	// Validate the derived global stream invariants on a second subscription.
	val := evcheck.New()
	cancelVal := e.Subscribe(val.Observe)
	defer cancelVal()
	count := func(kind dyndbscan.EventKind) int {
		mu.Lock()
		defer mu.Unlock()
		n := 0
		for _, ev := range events {
			if ev.Kind == kind {
				n++
			}
		}
		return n
	}

	blob := func(cx float64, n int) []dyndbscan.Point {
		pts := make([]dyndbscan.Point, n)
		for i := range pts {
			pts[i] = dyndbscan.Point{cx + float64(i%3), float64(i / 3)}
		}
		return pts
	}
	leftIDs, err := e.InsertBatch(blob(0, 9))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.InsertBatch(blob(300, 9)); err != nil {
		t.Fatal(err)
	}
	e.Sync()
	if got := count(dyndbscan.EventClusterFormed); got < 2 {
		t.Fatalf("formed events = %d, want ≥ 2", got)
	}
	// Point events must carry global handles.
	mu.Lock()
	for _, ev := range events {
		if ev.Kind == dyndbscan.EventPointBecameCore {
			if !e.Has(ev.Point) {
				t.Fatalf("core event for unknown global handle %d", ev.Point)
			}
		}
	}
	mu.Unlock()

	// Bridge: exactly one merged cluster transition.
	var bridge []dyndbscan.Point
	for x := 3.0; x < 300; x += 3 {
		bridge = append(bridge, dyndbscan.Point{x, 0}, dyndbscan.Point{x + 1, 0}, dyndbscan.Point{x + 2, 0})
	}
	bridgeIDs, err := e.InsertBatch(bridge)
	if err != nil {
		t.Fatal(err)
	}
	e.Sync()
	if got := count(dyndbscan.EventClusterMerged); got < 1 {
		t.Fatalf("merged events = %d, want ≥ 1", got)
	}

	// Cut the bridge: a split.
	if err := e.DeleteBatch(bridgeIDs); err != nil {
		t.Fatal(err)
	}
	e.Sync()
	if got := count(dyndbscan.EventClusterSplit); got < 1 {
		t.Fatalf("split events = %d, want ≥ 1", got)
	}

	// Remove one blob entirely: a dissolve.
	if err := e.DeleteBatch(leftIDs); err != nil {
		t.Fatal(err)
	}
	e.Sync()
	if got := count(dyndbscan.EventClusterDissolved); got < 1 {
		t.Fatalf("dissolved events = %d, want ≥ 1", got)
	}

	if err := val.Err(); err != nil {
		t.Fatal(err)
	}
	if err := val.ReconcileLive(e.Snapshot().ClusterIDs()); err != nil {
		t.Fatal(err)
	}
	if err := e.SeamAudit(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedConcurrentCommits hammers a sharded engine with parallel mixed
// batches and concurrent snapshot readers, then checks the surviving
// clustering against a single-shard engine fed the same final point set.
// Run with -race.
func TestShardedConcurrentCommits(t *testing.T) {
	e, err := dyndbscan.New(
		dyndbscan.WithEps(30), dyndbscan.WithMinPts(4), dyndbscan.WithRho(0),
		dyndbscan.WithShards(4), dyndbscan.WithShardStripe(4),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	const (
		writers = 4
		rounds  = 12
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var readers sync.WaitGroup
	// Readers: exercise the stitched snapshot path concurrently with commits.
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := e.Snapshot()
				for cid := range snap.Clusters {
					snap.Members(cid)
					break
				}
				_ = e.Len()
			}
		}()
	}
	// Writers: each churns its own points, so batches overlap on shards but
	// never on handles; every writer records its surviving coordinates for
	// the reference check below.
	surviving := make([]map[dyndbscan.PointID]dyndbscan.Point, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			mine := make(map[dyndbscan.PointID]dyndbscan.Point)
			var live []dyndbscan.PointID
			for round := 0; round < rounds; round++ {
				ops := make([]dyndbscan.Op, 0, 40)
				var fresh []dyndbscan.Point
				for i := 0; i < 30; i++ {
					pt := dyndbscan.Point{-600 + rng.Float64()*1200, float64(w*50) + rng.Float64()*40}
					fresh = append(fresh, pt)
					ops = append(ops, dyndbscan.InsertOp(pt))
				}
				for i := 0; i < 10 && len(live) > 0; i++ {
					k := rng.Intn(len(live))
					ops = append(ops, dyndbscan.DeleteOp(live[k]))
					delete(mine, live[k])
					live[k] = live[len(live)-1]
					live = live[:len(live)-1]
				}
				out, err := e.Apply(ops)
				if err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				next := 0
				for i, op := range ops {
					if op.Kind == dyndbscan.OpInsert {
						live = append(live, out[i])
						mine[out[i]] = fresh[next]
						next++
					}
				}
			}
			surviving[w] = mine
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	// Rebuild the surviving point set in a single-shard reference engine, in
	// ascending global id order; with Rho = 0 the clustering is a pure
	// function of the point set, so the partitions must match regardless of
	// the interleaving that produced them.
	all := make(map[dyndbscan.PointID]dyndbscan.Point)
	for _, m := range surviving {
		for id, pt := range m {
			all[id] = pt
		}
	}
	if got := e.Len(); got != len(all) {
		t.Fatalf("Len = %d, want %d surviving points", got, len(all))
	}
	ordered := make([]dyndbscan.PointID, 0, len(all))
	for id := range all {
		ordered = append(ordered, id)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i] < ordered[j] })
	ref, err := dyndbscan.New(dyndbscan.WithEps(30), dyndbscan.WithMinPts(4), dyndbscan.WithRho(0))
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]dyndbscan.Point, len(ordered))
	for i, id := range ordered {
		pts[i] = all[id]
	}
	refIDs, err := ref.InsertBatch(pts)
	if err != nil {
		t.Fatal(err)
	}
	toGlobal := make(map[dyndbscan.PointID]dyndbscan.PointID, len(refIDs))
	for i, rid := range refIDs {
		toGlobal[rid] = ordered[i]
	}
	refAll, err := ref.GroupAll()
	if err != nil {
		t.Fatal(err)
	}
	for gi, g := range refAll.Groups {
		for i, rid := range g {
			refAll.Groups[gi][i] = toGlobal[rid]
		}
	}
	for i, rid := range refAll.Noise {
		refAll.Noise[i] = toGlobal[rid]
	}
	refAll.Normalize()
	shardedAll, err := e.GroupAll()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(refAll.Groups, shardedAll.Groups) {
		t.Fatalf("final partition diverges: %d ref groups vs %d sharded groups",
			len(refAll.Groups), len(shardedAll.Groups))
	}
	if !(len(refAll.Noise) == 0 && len(shardedAll.Noise) == 0) && !reflect.DeepEqual(refAll.Noise, shardedAll.Noise) {
		t.Fatalf("final noise diverges")
	}
}

// TestStripeMigration drives directed stripe migrations (the MoveStripe test
// hook bypasses the load policy) and asserts the migration contract: point
// handles stay valid, ClusterIDs and the clustering are unchanged (Rho = 0),
// no spurious events reach subscribers, the seam survives its audit, and the
// engine keeps matching a single-shard reference through updates before,
// between, and after migrations — including migrating a stripe back to its
// original shard (which on insertion-only backends must reuse the stale
// copies instead of duplicating them).
//
// The Interior rows migrate a stripe whose clusters sit deeper than the
// ghost band from either stripe edge, then bridge them under the new owner.
// On insertion-only backends the source shard keeps its stale copies of
// those clusters: the seam must track them, or the source and target
// generations of one cluster fall into different components and the bridge
// splits ids instead of merging them.
func TestStripeMigration(t *testing.T) {
	cases := []struct {
		name     string
		algo     dyndbscan.Algorithm
		deletes  bool
		interior bool
	}{
		{"FullyDynamic", dyndbscan.AlgoFullyDynamic, true, false},
		{"SemiDynamic", dyndbscan.AlgoSemiDynamic, false, false},
		{"IncDBSCAN", dyndbscan.AlgoIncDBSCAN, true, false},
		{"FullyDynamicInterior", dyndbscan.AlgoFullyDynamic, true, true},
		{"SemiDynamicInterior", dyndbscan.AlgoSemiDynamic, false, true},
		{"IncDBSCANInterior", dyndbscan.AlgoIncDBSCAN, true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.interior {
				testInteriorStripeMigration(t, tc.algo)
				return
			}
			newEng := func(shards int) *dyndbscan.Engine {
				opts := []dyndbscan.Option{
					dyndbscan.WithAlgorithm(tc.algo),
					dyndbscan.WithEps(10), dyndbscan.WithMinPts(3), dyndbscan.WithRho(0),
					dyndbscan.WithShards(shards),
				}
				if shards > 1 {
					opts = append(opts, dyndbscan.WithShardStripe(8))
				}
				e, err := dyndbscan.New(opts...)
				if err != nil {
					t.Fatal(err)
				}
				return e
			}
			e := newEng(3)
			defer e.Close()
			ref := newEng(1)
			defer ref.Close()

			var mu sync.Mutex
			var clusterEvents int
			cancel := e.Subscribe(func(ev dyndbscan.Event) {
				switch ev.Kind {
				case dyndbscan.EventClusterFormed, dyndbscan.EventClusterMerged,
					dyndbscan.EventClusterSplit, dyndbscan.EventClusterDissolved:
					mu.Lock()
					clusterEvents++
					mu.Unlock()
				}
			})
			defer cancel()
			val := evcheck.New()
			cancelVal := e.Subscribe(val.Observe)
			defer cancelVal()

			both := func(stage string, ops []dyndbscan.Op) []dyndbscan.PointID {
				t.Helper()
				out, err := e.Apply(ops)
				if err != nil {
					t.Fatalf("%s: sharded Apply: %v", stage, err)
				}
				outRef, err := ref.Apply(ops)
				if err != nil {
					t.Fatalf("%s: reference Apply: %v", stage, err)
				}
				if !reflect.DeepEqual(out, outRef) {
					t.Fatalf("%s: handles diverge across modes", stage)
				}
				checkIsomorphic(t, ref, e, stage)
				return out
			}
			check := func(stage string) {
				t.Helper()
				e.Sync()
				if err := val.Err(); err != nil {
					t.Fatalf("%s: event stream invalid: %v", stage, err)
				}
				if err := val.ReconcileLive(e.Snapshot().ClusterIDs()); err != nil {
					t.Fatalf("%s: events vs snapshot: %v", stage, err)
				}
				if err := e.SeamAudit(); err != nil {
					t.Fatalf("%s: %v", stage, err)
				}
				checkIsomorphic(t, ref, e, stage)
			}

			blob := func(cx float64, n int) []dyndbscan.Op {
				ops := make([]dyndbscan.Op, n)
				for i := range ops {
					ops[i] = dyndbscan.InsertOp(dyndbscan.Point{cx + float64(i%3), float64(i / 3)})
				}
				return ops
			}
			// Blob A sits inside stripe 0 (x ∈ [10, 13); the stripe covers
			// x ∈ [0, 56.6) at eps 10, width 8); blob B is far away.
			aIDs := both("insert blob A", blob(10, 9))
			both("insert blob B", blob(500, 9))
			check("before migration")

			cidsA, ok := e.ClusterOf(aIDs[0])
			if !ok || len(cidsA) != 1 {
				t.Fatalf("blob A membership: %v %v", cidsA, ok)
			}
			before := e.Snapshot().GroupAll()
			e.Sync()
			mu.Lock()
			evsBefore := clusterEvents
			mu.Unlock()

			if owner := e.StripeOwner(0); owner != 0 {
				t.Fatalf("stripe 0 owner = %d before any migration", owner)
			}
			e.MoveStripe(0, 1)
			if owner := e.StripeOwner(0); owner != 1 {
				t.Fatalf("stripe 0 owner = %d after MoveStripe(0, 1)", owner)
			}
			check("after migration")

			// The clustering, the ids, and the event stream are untouched.
			cidsA2, ok := e.ClusterOf(aIDs[0])
			if !ok || !reflect.DeepEqual(cidsA, cidsA2) {
				t.Fatalf("blob A ClusterID changed across migration: %v -> %v (live=%v)", cidsA, cidsA2, ok)
			}
			after := e.Snapshot().GroupAll()
			if !reflect.DeepEqual(before, after) {
				t.Fatalf("clustering changed across migration:\nbefore: %+v\nafter:  %+v", before, after)
			}
			e.Sync()
			mu.Lock()
			evsAfter := clusterEvents
			mu.Unlock()
			if evsAfter != evsBefore {
				t.Fatalf("migration leaked %d cluster events (Rho = 0 migrations are silent)", evsAfter-evsBefore)
			}

			// Updates against the migrated stripe: a new blob lands in
			// stripe 0 under its new owner and a bridge merges it with A.
			both("insert blob C post-migration", blob(30, 9))
			bridge := make([]dyndbscan.Op, 0, 18)
			for x := 13.0; x < 30; x += 2 {
				bridge = append(bridge, dyndbscan.InsertOp(dyndbscan.Point{x, 0}), dyndbscan.InsertOp(dyndbscan.Point{x + 1, 0}))
			}
			bridgeIDs := both("bridge A-C", bridge)
			merged, _ := e.ClusterOf(aIDs[0])
			if len(merged) != 1 {
				t.Fatalf("A not in one cluster after bridge: %v", merged)
			}
			check("after post-migration updates")

			if tc.deletes {
				del := make([]dyndbscan.Op, len(bridgeIDs))
				for i, id := range bridgeIDs {
					del[i] = dyndbscan.DeleteOp(id)
				}
				both("cut bridge", del)
				check("after post-migration split")
			}

			// Migrate back: on insertion-only backends this must reuse the
			// stale source copies rather than duplicate them (a duplicate
			// would inflate densities and break the reference equivalence).
			e.MoveStripe(0, 0)
			check("after migrating back")
			e.MoveStripe(0, 2)
			check("after third migration")

			both("growth after migrations", blob(14, 9))
			check("final")
		})
	}
}

// testInteriorStripeMigration is the Interior row of TestStripeMigration.
// Stripe 0 spans columns 0..15 (eps 10, width 16); both blobs sit in column
// 7, more than the 4-column ghost band from either edge, so no placement
// replicates them before or after the move.
func testInteriorStripeMigration(t *testing.T, algo dyndbscan.Algorithm) {
	e, err := dyndbscan.New(
		dyndbscan.WithAlgorithm(algo),
		dyndbscan.WithEps(10), dyndbscan.WithMinPts(3), dyndbscan.WithRho(0),
		dyndbscan.WithShards(3), dyndbscan.WithShardStripe(16),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var mu sync.Mutex
	var kinds []dyndbscan.EventKind
	cancel := e.Subscribe(func(ev dyndbscan.Event) {
		switch ev.Kind {
		case dyndbscan.EventClusterFormed, dyndbscan.EventClusterMerged,
			dyndbscan.EventClusterSplit, dyndbscan.EventClusterDissolved:
			mu.Lock()
			kinds = append(kinds, ev.Kind)
			mu.Unlock()
		}
	})
	defer cancel()

	blob := func(cx, cy float64) []dyndbscan.Point {
		pts := make([]dyndbscan.Point, 9)
		for i := range pts {
			pts[i] = dyndbscan.Point{cx + float64(i%3), cy + float64(i/3)}
		}
		return pts
	}
	aIDs, err := e.InsertBatch(blob(50, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.InsertBatch(blob(50, 40)); err != nil {
		t.Fatal(err)
	}
	if ids := e.Snapshot().ClusterIDs(); !reflect.DeepEqual(ids, []dyndbscan.ClusterID{0, 1}) {
		t.Fatalf("cluster ids before the move = %v, want [0 1]", ids)
	}

	e.MoveStripe(0, 1)
	if err := e.SeamAudit(); err != nil {
		t.Fatalf("after the move: %v", err)
	}

	e.Sync()
	mu.Lock()
	kinds = nil
	mu.Unlock()
	var bridge []dyndbscan.Point
	for y := 3.0; y < 40; y += 2 {
		bridge = append(bridge, dyndbscan.Point{51, y}, dyndbscan.Point{52, y})
	}
	if _, err := e.InsertBatch(bridge); err != nil {
		t.Fatal(err)
	}
	if err := e.SeamAudit(); err != nil {
		t.Fatalf("after the bridge: %v", err)
	}
	if cids, _ := e.ClusterOf(aIDs[0]); !reflect.DeepEqual(cids, []dyndbscan.ClusterID{0}) {
		t.Fatalf("merged cluster id = %v, want [0] (the older id survives)", cids)
	}
	e.Sync()
	mu.Lock()
	defer mu.Unlock()
	if !reflect.DeepEqual(kinds, []dyndbscan.EventKind{dyndbscan.EventClusterMerged}) {
		t.Fatalf("bridge published %v, want exactly one ClusterMerged", kinds)
	}
}

// TestMigrationVsWriters runs a Rebalance pass on a plain WithRebalance
// engine (no hotspot) while writers keep committing to the stripes it may
// move, with the migration forced into many short rounds. SemiDynamic keeps
// its stale copies (it cannot delete them), so its writers only insert.
func TestMigrationVsWriters(t *testing.T) {
	for _, tc := range []struct {
		name    string
		algo    dyndbscan.Algorithm
		deletes bool
	}{
		{"FullyDynamic", dyndbscan.AlgoFullyDynamic, true},
		{"SemiDynamic", dyndbscan.AlgoSemiDynamic, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := dyndbscan.New(
				dyndbscan.WithAlgorithm(tc.algo),
				dyndbscan.WithEps(10), dyndbscan.WithMinPts(4), dyndbscan.WithRho(0),
				dyndbscan.WithShards(2), dyndbscan.WithShardStripe(16),
				dyndbscan.WithRebalance(dyndbscan.RebalancePolicy{MaxImbalance: 1.01, MinLoad: 1}),
			)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			// Stripes 0 (x ∈ [0, 113.1)) and 2 (x ∈ [226.3, 339.4)) both
			// start on shard 0 with equal load, so the pass moves one. The
			// points sit deeper than the 4-column ghost band from either
			// stripe edge, so the move must copy them all.
			pts := make([]dyndbscan.Point, 0, 800)
			for i := 0; i < 400; i++ {
				x, y := 30+float64(i%50), float64(i/50)
				pts = append(pts, dyndbscan.Point{x, y}, dyndbscan.Point{x + 226.3, y})
			}
			base, err := e.InsertBatch(pts)
			if err != nil {
				t.Fatal(err)
			}
			owners := [2]int{e.StripeOwner(0), e.StripeOwner(2)}
			migrationVsWriters(t, e, base, true, tc.deletes,
				func(w, i int) dyndbscan.Point {
					return dyndbscan.Point{30 + float64((w*3+i)%50) + 226.3*float64(i%2), float64(20 + i%40)}
				},
				func() {
					if moved, err := e.Rebalance(); err != nil || moved != 1 {
						t.Errorf("Rebalance = (%d, %v), want (1, nil)", moved, err)
					}
				})
			if now := [2]int{e.StripeOwner(0), e.StripeOwner(2)}; now == owners {
				t.Fatalf("no stripe moved: owners %v", now)
			}
		})
	}
}

// TestGrowRoundReroutesDelete pins the grow round's epoch bump. A delete
// routes a point, then waits for the world lock behind a grow round that
// copies that point to the migration's target shard. The delete must
// re-route and remove the new copy too; with its stale route it would leave
// the copy behind in a backend, which the seam audit's copy count reports.
func TestGrowRoundReroutesDelete(t *testing.T) {
	e, err := dyndbscan.New(
		dyndbscan.WithEps(10), dyndbscan.WithMinPts(4), dyndbscan.WithRho(0),
		dyndbscan.WithShards(2), dyndbscan.WithShardStripe(16),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// One copied point per round. The points sit deeper than the ghost band
	// inside stripe 0 (x ∈ [0, 113.1)), so each needs a new copy, and the
	// oldest handle is the first a round copies.
	e.SetMigrateRoundBudget(time.Nanosecond)
	ids, err := e.InsertBatch([]dyndbscan.Point{{40, 0}, {41, 0}, {42, 0}, {43, 0}, {44, 0}, {45, 0}})
	if err != nil {
		t.Fatal(err)
	}
	release := e.HoldWorldShared()
	moved := make(chan error, 1)
	go func() { moved <- e.MoveStripe(0, 1) }()
	time.Sleep(20 * time.Millisecond) // the first grow round waits for the lock
	deleted := make(chan error, 1)
	go func() { deleted <- e.Delete(ids[0]) }()
	time.Sleep(20 * time.Millisecond) // the delete has routed and queues behind the round
	release()
	if err := <-deleted; err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := <-moved; err != nil {
		t.Fatalf("MoveStripe: %v", err)
	}
	if e.Has(ids[0]) {
		t.Fatalf("point %d survived its delete", ids[0])
	}
	if err := e.SeamAudit(); err != nil {
		t.Fatalf("after the migration: %v", err)
	}
}

// migrationVsWriters runs migrate while three writers insert the points at
// gives and, with deletes, delete points of base. The engine's migration
// rounds are cut to a small time budget first, so the move takes many
// rounds with writers admitted between them. Afterwards no acknowledged
// insert may be missing, at least one migration must have taken more than
// one round, and the seam must pass its audit; with subscribed, an event
// validator attached before the move must accept the stream and agree with
// the final snapshot.
func migrationVsWriters(t *testing.T, e *dyndbscan.Engine, base []dyndbscan.PointID, subscribed, deletes bool, at func(w, i int) dyndbscan.Point, migrate func()) {
	t.Helper()
	const budget = 100 * time.Microsecond
	e.SetMigrateRoundBudget(budget)
	var val *evcheck.Validator
	if subscribed {
		val = evcheck.New()
		val.Seed(e.Snapshot().ClusterIDs())
		defer e.Subscribe(val.Observe)()
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		extra []dyndbscan.PointID
	)
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Bounded iterations: staged inserts cost almost nothing, so an
			// unbounded spin against the paced migration would pile up
			// millions of staged ops and turn the final join into one
			// enormous commit.
			for i := 0; i < 4000; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id, err := e.Insert(at(w, i))
				if err != nil {
					t.Errorf("writer %d: Insert: %v", w, err)
					return
				}
				mu.Lock()
				extra = append(extra, id)
				mu.Unlock()
				if deletes && i%7 == 3 {
					if err := e.Delete(base[(w*53+i)%len(base)]); err != nil &&
						err != dyndbscan.ErrUnknownPoint {
						// Another writer may have deleted it first.
						t.Errorf("writer %d: Delete: %v", w, err)
						return
					}
				}
			}
		}(w)
	}
	migrate()
	close(stop)
	wg.Wait()
	e.Sync()
	mu.Lock()
	for _, id := range extra {
		if !e.Has(id) {
			t.Fatalf("insert %d lost during the migration", id)
		}
	}
	mu.Unlock()
	if n := e.MultiRoundMigrations(); n == 0 {
		t.Fatalf("no migration took more than one round under a %v budget", budget)
	}
	if err := e.SeamAudit(); err != nil {
		t.Fatalf("seam audit after the migration: %v", err)
	}
	if _, err := e.GroupAll(); err != nil {
		t.Fatalf("GroupAll after the migration: %v", err)
	}
	if val != nil {
		if err := val.Err(); err != nil {
			t.Fatalf("event stream invalid: %v", err)
		}
		if err := val.ReconcileLive(e.Snapshot().ClusterIDs()); err != nil {
			t.Fatalf("events vs snapshot: %v", err)
		}
	}
}

// TestAdaptiveStripeWidth covers the cold-start width decision: without
// WithShardStripe the width derives from the first committed batch's extent,
// so a spatially compact workload spreads across shards instead of landing
// in one 64-cell stripe; a wide workload keeps the default cap. Explicit
// widths are clamped to just past the ghost band.
func TestAdaptiveStripeWidth(t *testing.T) {
	// 2D, Rho = 0: the ghost band is always 4 cells, so the minimum
	// (clamped) width is 5 regardless of eps.
	const minWidth = 5

	narrow, err := dyndbscan.New(
		dyndbscan.WithEps(30), dyndbscan.WithMinPts(4), dyndbscan.WithRho(0),
		dyndbscan.WithShards(4),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer narrow.Close()
	if got := narrow.StripeCells(); got != dyndbscan.DefaultStripeCells {
		t.Fatalf("provisional width = %d, want %d before the first commit", got, dyndbscan.DefaultStripeCells)
	}
	rng := rand.New(rand.NewSource(5))
	pts := make([]dyndbscan.Point, 400)
	for i := range pts {
		pts[i] = dyndbscan.Point{rng.Float64() * 200, rng.Float64() * 200}
	}
	if _, err := narrow.InsertBatch(pts); err != nil {
		t.Fatal(err)
	}
	// Extent ≈ 10 cells (200 units / 21.2 per cell) over 4 shards → clamped
	// to the minimum width, spreading the compact workload across shards.
	if got := narrow.StripeCells(); got != minWidth {
		t.Fatalf("adaptive width = %d, want %d for a compact extent", got, minWidth)
	}
	spread := 0
	for _, sl := range narrow.ShardLoads() {
		if sl.Points > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Fatalf("compact workload landed on %d shard(s); adaptive width should spread it", spread)
	}

	wide, err := dyndbscan.New(
		dyndbscan.WithEps(30), dyndbscan.WithMinPts(4), dyndbscan.WithRho(0),
		dyndbscan.WithShards(4),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer wide.Close()
	for i := range pts {
		pts[i] = dyndbscan.Point{rng.Float64() * 50000, rng.Float64() * 200}
	}
	if _, err := wide.InsertBatch(pts); err != nil {
		t.Fatal(err)
	}
	if got := wide.StripeCells(); got != dyndbscan.DefaultStripeCells {
		t.Fatalf("adaptive width = %d, want the %d-cell cap for a wide extent", got, dyndbscan.DefaultStripeCells)
	}

	// Satellite regression: a tiny explicit stripe with a large Eps used to
	// replicate every cell into many shards; the effective width is now
	// clamped to one cell past the ghost band.
	clamped, err := dyndbscan.New(
		dyndbscan.WithEps(100), dyndbscan.WithMinPts(3), dyndbscan.WithRho(0),
		dyndbscan.WithShards(4), dyndbscan.WithShardStripe(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer clamped.Close()
	if got := clamped.StripeCells(); got != minWidth {
		t.Fatalf("WithShardStripe(1) effective width = %d, want clamp to %d", got, minWidth)
	}
	single, err := dyndbscan.New(dyndbscan.WithEps(100), dyndbscan.WithMinPts(3), dyndbscan.WithRho(0))
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	for i := range pts {
		pts[i] = dyndbscan.Point{-2000 + rng.Float64()*4000, rng.Float64() * 500}
	}
	if _, err := clamped.InsertBatch(pts); err != nil {
		t.Fatal(err)
	}
	if _, err := single.InsertBatch(pts); err != nil {
		t.Fatal(err)
	}
	checkIsomorphic(t, single, clamped, "clamped stripe equivalence")

	// Widths above the clamp are taken as given.
	explicit, err := dyndbscan.New(
		dyndbscan.WithEps(10), dyndbscan.WithMinPts(3),
		dyndbscan.WithShards(2), dyndbscan.WithShardStripe(10),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer explicit.Close()
	if got := explicit.StripeCells(); got != 10 {
		t.Fatalf("WithShardStripe(10) effective width = %d", got)
	}
}

// TestAdaptiveWidthRederivation covers the width decision past the cold
// start: when the workload wanders far enough that the derived width differs
// ≥4x from the one in effect, the engine re-derives at its commit cadence,
// logs the change as one wal.OpWidth record, and keeps the clustering
// equivalent to a single backend — and replay flips the width at the same
// point in the op stream, so a reopened engine lands on the same placement.
// The restarted variant checkpoints and reopens the engine between the
// compact start and the wander: a restored adaptive width must keep being
// re-derived, so placement does not depend on restart history.
func TestAdaptiveWidthRederivation(t *testing.T) {
	for _, restart := range []bool{false, true} {
		name := "live"
		if restart {
			name = "restarted"
		}
		t.Run(name, func(t *testing.T) { testAdaptiveWidthRederivation(t, restart) })
	}
}

func testAdaptiveWidthRederivation(t *testing.T, restart bool) {
	dir := t.TempDir()
	eng, err := dyndbscan.New(
		dyndbscan.WithEps(30), dyndbscan.WithMinPts(4), dyndbscan.WithRho(0),
		dyndbscan.WithShards(4),
		dyndbscan.WithWAL(dir, dyndbscan.SyncAlways()),
		dyndbscan.WithWALCheckpointEvery(0), // reopen must replay the width flip
	)
	if err != nil {
		t.Fatal(err)
	}
	single, err := dyndbscan.New(
		dyndbscan.WithEps(30), dyndbscan.WithMinPts(4), dyndbscan.WithRho(0))
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()

	// First commit: a compact extent (~160 cells over 16 stripes) derives a
	// narrow width.
	rng := rand.New(rand.NewSource(9))
	pts := make([]dyndbscan.Point, 400)
	for i := range pts {
		pts[i] = dyndbscan.Point{rng.Float64() * 3400, rng.Float64() * 200}
	}
	if _, err := eng.InsertBatch(pts); err != nil {
		t.Fatal(err)
	}
	if _, err := single.InsertBatch(pts); err != nil {
		t.Fatal(err)
	}
	w0 := eng.StripeCells()
	if w0 <= 5 || w0 > 11 {
		t.Fatalf("first-commit width = %d, want a derived narrow width in (5, 11]", w0)
	}
	if restart {
		if err := eng.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		if eng, err = dyndbscan.Open(dir, dyndbscan.WithWALCheckpointEvery(0)); err != nil {
			t.Fatal(err)
		}
		if got := eng.StripeCells(); got != w0 {
			t.Fatalf("restored width = %d, want %d", got, w0)
		}
	}

	// The workload wanders: isolated singles marching out to x ≈ 156k. By the
	// width check the derived width hits the cell cap, ≥4x the narrow one.
	for i := 0; i < 80; i++ {
		pt := dyndbscan.Point{3400 + float64(i+1)*1900, 100}
		if _, err := eng.Insert(pt); err != nil {
			t.Fatal(err)
		}
		if _, err := single.Insert(pt); err != nil {
			t.Fatal(err)
		}
	}
	if got := eng.StripeCells(); got != dyndbscan.DefaultStripeCells {
		t.Fatalf("width after wandering = %d, want re-derived %d", got, dyndbscan.DefaultStripeCells)
	}
	checkIsomorphic(t, single, eng, "after width re-derivation")
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	// The re-derivation is in the log exactly once, as a placement record.
	r, err := wal.OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	widths := 0
	for {
		_, ops, err := r.Next()
		if errors.Is(err, wal.ErrCaughtUp) {
			break
		}
		if err != nil {
			t.Fatalf("scanning the log: %v", err)
		}
		for _, op := range ops {
			if op.Kind == wal.OpWidth {
				widths++
				if op.ID != int64(dyndbscan.DefaultStripeCells) {
					t.Fatalf("OpWidth logged %d, want %d", op.ID, dyndbscan.DefaultStripeCells)
				}
			}
		}
	}
	r.Close()
	if widths != 1 {
		t.Fatalf("log holds %d OpWidth records, want exactly 1", widths)
	}

	// Replay (no checkpoint was ever written) re-derives through the record.
	re, err := dyndbscan.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.StripeCells(); got != dyndbscan.DefaultStripeCells {
		t.Fatalf("replayed width = %d, want %d", got, dyndbscan.DefaultStripeCells)
	}
	checkIsomorphic(t, single, re, "replayed width re-derivation")
}

// TestAutoRebalance drives hotspot traffic whose hot stripes alias onto one
// shard through the round-robin, with automatic rebalancing enabled, and
// asserts the engine separates them — then hammers the same configuration
// from concurrent writers with a validating subscriber attached (run with
// -race: commits racing automatic migrations exercise the placement-epoch
// re-route path).
func TestAutoRebalance(t *testing.T) {
	newEng := func() *dyndbscan.Engine {
		e, err := dyndbscan.New(
			dyndbscan.WithEps(10), dyndbscan.WithMinPts(4), dyndbscan.WithRho(0),
			dyndbscan.WithShards(2), dyndbscan.WithShardStripe(8),
			dyndbscan.WithRebalance(dyndbscan.RebalancePolicy{
				MaxImbalance: 1.01, MinLoad: 1, CheckEvery: 4,
			}),
		)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	// Stripes 0 (x ∈ [0, 56.6)) and 2 (x ∈ [113.1, 169.7)) both map to
	// shard 0 under the round-robin: the aliased-hotspot pathology.
	hot := func(rng *rand.Rand) dyndbscan.Point {
		x := 5 + rng.Float64()*45
		if rng.Intn(2) == 1 {
			x += 113
		}
		return dyndbscan.Point{x, rng.Float64() * 40}
	}

	t.Run("separates aliased hot stripes", func(t *testing.T) {
		e := newEng()
		defer e.Close()
		rng := rand.New(rand.NewSource(9))
		var live []dyndbscan.PointID
		for round := 0; round < 80; round++ {
			ops := make([]dyndbscan.Op, 0, 24)
			for i := 0; i < 20; i++ {
				ops = append(ops, dyndbscan.InsertOp(hot(rng)))
			}
			for i := 0; i < 4 && len(live) > 0; i++ {
				k := rng.Intn(len(live))
				ops = append(ops, dyndbscan.DeleteOp(live[k]))
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			out, err := e.Apply(ops)
			if err != nil {
				t.Fatal(err)
			}
			for i, op := range ops {
				if op.Kind == dyndbscan.OpInsert {
					live = append(live, out[i])
				}
			}
		}
		if a, b := e.StripeOwner(0), e.StripeOwner(2); a == b {
			t.Fatalf("hot stripes 0 and 2 still share shard %d after automatic rebalancing\nloads: %+v",
				a, e.ShardLoads())
		}
	})

	t.Run("concurrent writers", func(t *testing.T) {
		e := newEng()
		defer e.Close()
		val := evcheck.New()
		cancel := e.Subscribe(val.Observe)
		defer cancel()
		var wg sync.WaitGroup
		for w := 0; w < 3; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(40 + w)))
				var live []dyndbscan.PointID
				for round := 0; round < 30; round++ {
					ops := make([]dyndbscan.Op, 0, 16)
					for i := 0; i < 12; i++ {
						ops = append(ops, dyndbscan.InsertOp(hot(rng)))
					}
					for i := 0; i < 4 && len(live) > 0; i++ {
						k := rng.Intn(len(live))
						ops = append(ops, dyndbscan.DeleteOp(live[k]))
						live[k] = live[len(live)-1]
						live = live[:len(live)-1]
					}
					out, err := e.Apply(ops)
					if err != nil {
						t.Errorf("writer %d: %v", w, err)
						return
					}
					for i, op := range ops {
						if op.Kind == dyndbscan.OpInsert {
							live = append(live, out[i])
						}
					}
				}
			}(w)
		}
		wg.Wait()
		e.Sync()
		if err := val.Err(); err != nil {
			t.Fatalf("event stream invalid under racing migrations: %v", err)
		}
		if err := val.ReconcileLive(e.Snapshot().ClusterIDs()); err != nil {
			t.Fatalf("events vs snapshot: %v", err)
		}
		if err := e.SeamAudit(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRebalanceReportsLogError: every migration is logged before it runs, so
// a pass that cannot append must say so instead of reporting a quiet
// (0, nil). Stripes 0 and 2 both map to shard 0 and carry equal load; with
// the log open Rebalance moves one of them, and after Close it returns the
// append error and leaves the placement alone.
func TestRebalanceReportsLogError(t *testing.T) {
	newEng := func() *dyndbscan.Engine {
		e, err := dyndbscan.New(
			dyndbscan.WithEps(10), dyndbscan.WithMinPts(4), dyndbscan.WithRho(0),
			dyndbscan.WithShards(2), dyndbscan.WithShardStripe(8),
			dyndbscan.WithRebalance(dyndbscan.RebalancePolicy{MaxImbalance: 1.01, MinLoad: 1}),
			dyndbscan.WithWAL(t.TempDir(), dyndbscan.SyncAlways()),
		)
		if err != nil {
			t.Fatal(err)
		}
		// Stripe 0 is x ∈ [0, 56.6), stripe 2 is x ∈ [113.1, 169.7).
		pts := make([]dyndbscan.Point, 0, 400)
		for i := 0; i < 200; i++ {
			x, y := 5+float64(i%45), float64(i/45)
			pts = append(pts, dyndbscan.Point{x, y}, dyndbscan.Point{x + 113, y})
		}
		if _, err := e.InsertBatch(pts); err != nil {
			t.Fatal(err)
		}
		return e
	}

	open := newEng()
	defer open.Close()
	if moved, err := open.Rebalance(); err != nil || moved != 1 {
		t.Fatalf("Rebalance with the log open = (%d, %v), want (1, nil)", moved, err)
	}

	closed := newEng()
	before := closed.ShardLoads()
	if err := closed.Close(); err != nil {
		t.Fatal(err)
	}
	moved, err := closed.Rebalance()
	if err == nil {
		t.Fatalf("Rebalance after Close = (%d, nil), want the append error", moved)
	}
	if moved != 0 {
		t.Fatalf("Rebalance after Close moved %d stripes", moved)
	}
	if after := closed.ShardLoads(); !reflect.DeepEqual(after, before) {
		t.Fatalf("placement changed after a refused migration: %+v → %+v", before, after)
	}
}
