// Tests for the concurrent serving layer: lock-free snapshot reads under
// write churn, async event dispatch ordering and overflow policies, and the
// mixed-op Apply batch API. Run with -race.
package dyndbscan_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"dyndbscan"
	"dyndbscan/internal/evcheck"
)

// TestConcurrentReadStress hammers Snapshot/ClusterOf/Members/GroupBy from
// reader goroutines while writers churn the point set with InsertBatch,
// DeleteBatch, and Apply. Every observed snapshot must be internally
// consistent and versions must be monotone per reader.
func TestConcurrentReadStress(t *testing.T) {
	e, err := dyndbscan.New(
		dyndbscan.WithEps(5), dyndbscan.WithMinPts(4), dyndbscan.WithWorkers(4),
	)
	if err != nil {
		t.Fatal(err)
	}
	const writers, readers, rounds = 4, 4, 120
	var wwg, rwg sync.WaitGroup
	done := make(chan struct{})

	for w := 0; w < writers; w++ {
		wwg.Add(1)
		go func(seed int64) {
			defer wwg.Done()
			rng := rand.New(rand.NewSource(seed))
			var mine []dyndbscan.PointID
			for i := 0; i < rounds; i++ {
				switch {
				case len(mine) < 32 || rng.Float64() < 0.45:
					pts := make([]dyndbscan.Point, 16)
					for j := range pts {
						pts[j] = dyndbscan.Point{rng.Float64() * 120, rng.Float64() * 120}
					}
					ids, err := e.InsertBatch(pts)
					if err != nil {
						t.Error(err)
						return
					}
					mine = append(mine, ids...)
				case rng.Float64() < 0.5:
					k := 8 + rng.Intn(8)
					if k > len(mine) {
						k = len(mine)
					}
					if err := e.DeleteBatch(mine[:k]); err != nil {
						t.Error(err)
						return
					}
					mine = mine[k:]
				default:
					// Mixed batch: delete a few of ours, insert replacements.
					ops := make([]dyndbscan.Op, 0, 8)
					k := 4
					if k > len(mine) {
						k = len(mine)
					}
					for _, id := range mine[:k] {
						ops = append(ops, dyndbscan.DeleteOp(id))
					}
					mine = mine[k:]
					for j := 0; j < 4; j++ {
						ops = append(ops, dyndbscan.InsertOp(dyndbscan.Point{rng.Float64() * 120, rng.Float64() * 120}))
					}
					res, err := e.Apply(ops)
					if err != nil {
						t.Error(err)
						return
					}
					mine = append(mine, res[k:]...)
				}
			}
			if err := e.DeleteBatch(mine); err != nil {
				t.Error(err)
			}
		}(int64(w + 1))
	}

	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(seed int64) {
			defer rwg.Done()
			rng := rand.New(rand.NewSource(seed))
			var lastVersion uint64
			for {
				select {
				case <-done:
					return
				default:
				}
				v := e.Version()
				if v < lastVersion {
					t.Errorf("Version went backwards: %d after %d", v, lastVersion)
					return
				}
				snap := e.Snapshot()
				if snap.Version < v {
					t.Errorf("snapshot version %d older than previously observed %d", snap.Version, v)
					return
				}
				lastVersion = snap.Version
				if !checkSnapshotConsistent(t, snap, rng) {
					return
				}
				// GroupBy over ids sampled from the snapshot: the engine may
				// have moved on (unknown ids are acceptable), but a
				// successful result must group only queried ids.
				if len(snap.Noise) > 0 {
					q := []dyndbscan.PointID{snap.Noise[rng.Intn(len(snap.Noise))]}
					if res, err := e.GroupBy(q); err == nil {
						if len(res.Groups) > 0 && len(res.Groups[0]) > 1 {
							t.Error("GroupBy returned ids not queried")
							return
						}
					} else if !errors.Is(err, dyndbscan.ErrUnknownPoint) {
						t.Error(err)
						return
					}
				}
			}
		}(int64(100 + r))
	}

	wwg.Wait()
	close(done)
	rwg.Wait()
	if e.Len() != 0 {
		t.Fatalf("Len=%d after all writers drained", e.Len())
	}
}

// checkSnapshotConsistent verifies the internal invariants of one snapshot:
// member lists sorted ascending with no duplicates, membership agreeing with
// ClusterOf in both directions, and noise points carrying no clusters.
func checkSnapshotConsistent(t *testing.T, snap *dyndbscan.Snapshot, rng *rand.Rand) bool {
	t.Helper()
	checked := 0
	for cid, members := range snap.Clusters {
		if len(members) == 0 {
			t.Errorf("snapshot v%d: cluster %d has no members", snap.Version, cid)
			return false
		}
		for i, id := range members {
			if i > 0 && members[i-1] >= id {
				t.Errorf("snapshot v%d: cluster %d members not ascending", snap.Version, cid)
				return false
			}
			cids, ok := snap.ClusterOf(id)
			if !ok {
				t.Errorf("snapshot v%d: member %d of cluster %d not live", snap.Version, id, cid)
				return false
			}
			found := false
			for _, c := range cids {
				if c == cid {
					found = true
				}
			}
			if !found {
				t.Errorf("snapshot v%d: point %d in cluster %d's members but ClusterOf says %v", snap.Version, id, cid, cids)
				return false
			}
		}
		if checked++; checked >= 3 {
			break // bound the per-iteration work; clusters are sampled across iterations
		}
	}
	if len(snap.Noise) > 0 {
		id := snap.Noise[rng.Intn(len(snap.Noise))]
		cids, ok := snap.ClusterOf(id)
		if !ok || len(cids) != 0 {
			t.Errorf("snapshot v%d: noise point %d has ClusterOf %v, %v", snap.Version, id, cids, ok)
			return false
		}
	}
	return true
}

// TestParallelSnapshotEquivalence crosses the parallel snapshot-construction
// threshold (≥2048 live points) on every algorithm, at one shard and at
// three, and checks, under -race, that the fanned-out build produces exactly
// the snapshot the serial walk does — and that lock-free readers of the
// parallel-built snapshot see consistent answers while further epochs churn.
func TestParallelSnapshotEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	pts := make([]dyndbscan.Point, 4500)
	for i := range pts {
		cx, cy := float64(rng.Intn(6)*30), float64(rng.Intn(6)*30)
		pts[i] = dyndbscan.Point{cx + rng.NormFloat64()*4, cy + rng.NormFloat64()*4}
	}
	for _, algo := range []dyndbscan.Algorithm{
		dyndbscan.AlgoFullyDynamic, dyndbscan.AlgoSemiDynamic, dyndbscan.AlgoIncDBSCAN,
	} {
		for _, shards := range []int{1, 3} {
			t.Run(fmt.Sprintf("%v/shards=%d", algo, shards), func(t *testing.T) {
				parallelSnapshotEquivalence(t, algo, shards, pts)
			})
		}
	}
}

func parallelSnapshotEquivalence(t *testing.T, algo dyndbscan.Algorithm, shards int, pts []dyndbscan.Point) {
	mk := func(workers int) *dyndbscan.Engine {
		e, err := dyndbscan.New(
			dyndbscan.WithAlgorithm(algo), dyndbscan.WithShards(shards),
			dyndbscan.WithEps(3), dyndbscan.WithMinPts(5), dyndbscan.WithRho(0),
			dyndbscan.WithWorkers(workers),
		)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.InsertBatch(pts); err != nil {
			t.Fatal(err)
		}
		return e
	}
	par, ser := mk(8), mk(1)
	sp, ss := par.Snapshot(), ser.Snapshot()
	if sp.Version != ss.Version {
		t.Fatalf("versions diverged: %d vs %d", sp.Version, ss.Version)
	}
	// Stable cluster *labels* are not comparable across engine instances
	// (merge order depends on pointer-keyed map iteration), but the
	// partition is deterministic: same cluster count, same noise set, and
	// — via the normalized GroupAll below — identical member groups.
	if len(sp.Clusters) != len(ss.Clusters) {
		t.Fatalf("parallel build found %d clusters, serial %d", len(sp.Clusters), len(ss.Clusters))
	}
	if !reflect.DeepEqual(sp.Noise, ss.Noise) {
		t.Fatalf("parallel-built Noise differs from serial: %d vs %d points", len(sp.Noise), len(ss.Noise))
	}
	pa, err := par.GroupAll()
	if err != nil {
		t.Fatal(err)
	}
	sa, err := ser.GroupAll()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pa, sa) {
		t.Fatal("GroupAll through the parallel-built snapshot diverged")
	}
	// Concurrent readers against parallel rebuilds: every epoch stays
	// internally consistent while updates force fresh parallel builds.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if !checkSnapshotConsistent(t, par.Snapshot(), rng) {
					return
				}
			}
		}(int64(200 + r))
	}
	rng := rand.New(rand.NewSource(45))
	for i := 0; i < 40; i++ {
		id, err := par.Insert(dyndbscan.Point{rng.Float64() * 180, rng.Float64() * 180})
		if err != nil {
			t.Fatal(err)
		}
		par.Snapshot() // force a parallel rebuild of the new epoch
		if algo == dyndbscan.AlgoSemiDynamic {
			continue // insert-only
		}
		if err := par.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestLiveReadersVsWriters runs live ClusterOf, GroupBy and GroupAll readers
// (no snapshot is ever built) against writers on every algorithm, at one
// shard and at three. Live reads of every algorithm share the shard locks,
// so under -race this checks that the backends' queries write nothing: the
// union-find algorithms must look up roots without compressing paths. Each
// writer builds a row of blobs and then bridges them pairwise, then pairs of
// pairs, and so on, so that every bridge hangs a whole cluster under another
// root and deepens the union-find forests the readers walk; where deletes are
// supported it then removes the bridges again, splitting the row.
func TestLiveReadersVsWriters(t *testing.T) {
	for _, algo := range []dyndbscan.Algorithm{
		dyndbscan.AlgoFullyDynamic, dyndbscan.AlgoSemiDynamic, dyndbscan.AlgoIncDBSCAN,
	} {
		for _, shards := range []int{1, 3} {
			t.Run(fmt.Sprintf("%v/shards=%d", algo, shards), func(t *testing.T) {
				liveReadersVsWriters(t, algo, shards)
			})
		}
	}
}

// bridgedRow returns one writer's commits: nBlobs 4×4 lattices (one batch
// each, every point core at ε = 5, MinPts = 4) spaced beyond ε along the row
// at height y, then for each merge level the 4-point bridges joining the
// clusters of that level. bridges[i] holds the index in commits of the i-th
// bridge.
func bridgedRow(y float64, nBlobs int) (commits [][]dyndbscan.Point, bridges []int) {
	const pitch = 14.0
	for k := 0; k < nBlobs; k++ {
		blob := make([]dyndbscan.Point, 0, 16)
		for i := 0; i < 16; i++ {
			blob = append(blob, dyndbscan.Point{pitch*float64(k) + float64(i%4), y + float64(i/4)})
		}
		commits = append(commits, blob)
	}
	for step := 1; step < nBlobs; step *= 2 {
		for k := step - 1; k+1 < nBlobs; k += 2 * step {
			x := pitch * float64(k)
			bridges = append(bridges, len(commits))
			commits = append(commits, []dyndbscan.Point{
				{x + 5, y + 1.5}, {x + 7, y + 1.5}, {x + 9, y + 1.5}, {x + 11, y + 1.5},
			})
		}
	}
	return commits, bridges
}

func liveReadersVsWriters(t *testing.T, algo dyndbscan.Algorithm, shards int) {
	const writers, readers, blobs = 2, 3, 32
	e, err := dyndbscan.New(
		dyndbscan.WithAlgorithm(algo), dyndbscan.WithShards(shards),
		dyndbscan.WithEps(5), dyndbscan.WithMinPts(4), dyndbscan.WithWorkers(4),
	)
	if err != nil {
		t.Fatal(err)
	}
	deletes := algo != dyndbscan.AlgoSemiDynamic
	// A pause after each commit lets reads overlap one another with no
	// commit between them, which is where a read that writes would race.
	commit := func(f func() error) bool {
		if err := f(); err != nil {
			t.Error(err)
			return false
		}
		time.Sleep(time.Millisecond)
		return true
	}
	var wwg, rwg sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		wwg.Add(1)
		go func(y float64) {
			defer wwg.Done()
			commits, bridges := bridgedRow(y, blobs)
			ids := make([][]dyndbscan.PointID, len(commits))
			for i, pts := range commits {
				if !commit(func() (err error) { ids[i], err = e.InsertBatch(pts); return err }) {
					return
				}
			}
			if !deletes {
				return
			}
			for _, b := range slices.Backward(bridges) {
				if !commit(func() error { return e.DeleteBatch(ids[b]) }) {
					return
				}
			}
		}(40 * float64(w))
	}
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(seed int64) {
			defer rwg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-done:
					return
				default:
				}
				all, err := e.GroupAll()
				if err != nil {
					t.Error(err)
					return
				}
				noise := make(map[dyndbscan.PointID]struct{}, len(all.Noise))
				for _, id := range all.Noise {
					noise[id] = struct{}{}
				}
				var ids []dyndbscan.PointID
				for _, g := range all.Groups {
					for _, id := range g {
						if _, ok := noise[id]; ok {
							t.Errorf("GroupAll: point %d is both noise and in a cluster", id)
							return
						}
					}
					ids = append(ids, g...)
				}
				ids = append(ids, all.Noise...)
				if len(ids) == 0 {
					continue
				}
				// Points read from GroupAll may be deleted since: unknown ids
				// are acceptable, wrong answers are not.
				q := make([]dyndbscan.PointID, 1+rng.Intn(16))
				for i := range q {
					q[i] = ids[rng.Intn(len(ids))]
				}
				for _, id := range q {
					e.ClusterOf(id)
				}
				res, err := e.GroupBy(q)
				if errors.Is(err, dyndbscan.ErrUnknownPoint) {
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				asked := make(map[dyndbscan.PointID]struct{}, len(q))
				for _, id := range q {
					asked[id] = struct{}{}
				}
				for _, g := range append(res.Groups, res.Noise) {
					for _, id := range g {
						if _, ok := asked[id]; !ok {
							t.Errorf("GroupBy returned point %d, which was not queried", id)
							return
						}
					}
				}
			}
		}(int64(100 + r))
	}
	wwg.Wait()
	close(done)
	rwg.Wait()
	// Each row ends as one cluster, or as its separate blobs once the
	// bridges are gone.
	want := writers
	if deletes {
		want = writers * blobs
	}
	if all, err := e.GroupAll(); err != nil || len(all.Groups) != want || len(all.Noise) != 0 {
		t.Fatalf("final clustering: %d clusters and %d noise points (err %v), want %d clusters", len(all.Groups), len(all.Noise), err, want)
	}
}

// regionPoints is the deterministic insertion sequence used by the dispatch
// order test: a chain that keeps promoting points as it grows.
func regionPoints(n int, offset float64) []dyndbscan.Point {
	pts := make([]dyndbscan.Point, n)
	for i := range pts {
		pts[i] = dyndbscan.Point{offset + float64(i), 0}
	}
	return pts
}

// referencePromotionOrder runs the sequence on a private engine and returns
// the order (as op indices) in which points were promoted to core.
func referencePromotionOrder(t *testing.T, pts []dyndbscan.Point) []int {
	t.Helper()
	e, err := dyndbscan.New(dyndbscan.WithEps(1.5), dyndbscan.WithMinPts(3), dyndbscan.WithRho(0))
	if err != nil {
		t.Fatal(err)
	}
	var events []dyndbscan.Event
	cancel := e.Subscribe(func(ev dyndbscan.Event) { events = append(events, ev) })
	defer cancel()
	seqOf := make(map[dyndbscan.PointID]int)
	for i, pt := range pts {
		id, err := e.Insert(pt)
		if err != nil {
			t.Fatal(err)
		}
		seqOf[id] = i
	}
	e.Sync()
	var order []int
	for _, ev := range events {
		if ev.Kind == dyndbscan.EventPointBecameCore {
			order = append(order, seqOf[ev.Point])
		}
	}
	if len(order) == 0 {
		t.Fatal("reference run promoted nothing")
	}
	return order
}

// TestAsyncDispatchCommitOrder checks the per-subscriber ordering guarantee
// under concurrent updaters: events arrive in commit order. Several
// goroutines insert into disjoint far-apart regions; the promotion events
// restricted to one region must replay that region's deterministic
// single-threaded order, however the regions interleave.
func TestAsyncDispatchCommitOrder(t *testing.T) {
	const regions, perRegion = 6, 40
	ref := referencePromotionOrder(t, regionPoints(perRegion, 0))

	e, err := dyndbscan.New(dyndbscan.WithEps(1.5), dyndbscan.WithMinPts(3), dyndbscan.WithRho(0))
	if err != nil {
		t.Fatal(err)
	}
	var events []dyndbscan.Event
	cancel := e.Subscribe(func(ev dyndbscan.Event) { events = append(events, ev) })
	defer cancel()
	// The stream of a second subscription must satisfy the lifecycle
	// invariants even under concurrent updaters.
	val := evcheck.New()
	cancelVal := e.Subscribe(val.Observe)
	defer cancelVal()

	var (
		mu    sync.Mutex
		seqOf = map[dyndbscan.PointID][2]int{} // id -> (region, op index)
		wg    sync.WaitGroup
	)
	for g := 0; g < regions; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pts := regionPoints(perRegion, float64(g)*10_000)
			for i, pt := range pts {
				id, err := e.Insert(pt)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				seqOf[id] = [2]int{g, i}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	e.Sync()

	perRegionOrder := make([][]int, regions)
	for _, ev := range events {
		if ev.Kind != dyndbscan.EventPointBecameCore {
			continue
		}
		rs, ok := seqOf[ev.Point]
		if !ok {
			t.Fatalf("core event for unknown point %d", ev.Point)
		}
		perRegionOrder[rs[0]] = append(perRegionOrder[rs[0]], rs[1])
	}
	for g, got := range perRegionOrder {
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("region %d promotion order diverged from commit order:\ngot  %v\nwant %v", g, got, ref)
		}
	}
	if err := val.Err(); err != nil {
		t.Fatal(err)
	}
	if err := val.ReconcileLive(e.Snapshot().ClusterIDs()); err != nil {
		t.Fatal(err)
	}
}

// eventStream runs ops on a fresh engine with a default (lossless)
// subscription and returns the full delivered stream.
func eventStream(t *testing.T, pts []dyndbscan.Point, opts ...dyndbscan.SubscribeOption) []dyndbscan.Event {
	t.Helper()
	e, err := dyndbscan.New(dyndbscan.WithEps(1.5), dyndbscan.WithMinPts(3), dyndbscan.WithRho(0))
	if err != nil {
		t.Fatal(err)
	}
	var events []dyndbscan.Event
	cancel := e.Subscribe(func(ev dyndbscan.Event) { events = append(events, ev) }, opts...)
	defer cancel()
	for _, pt := range pts {
		if _, err := e.Insert(pt); err != nil {
			t.Fatal(err)
		}
	}
	e.Sync()
	return events
}

// TestSubscribeOverflowBlock checks the lossless policy: even with a
// one-slot buffer, every event arrives, in order.
func TestSubscribeOverflowBlock(t *testing.T) {
	pts := regionPoints(60, 0)
	want := eventStream(t, pts)
	got := eventStream(t, pts, dyndbscan.SubscribeBuffer(1))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BlockSubscriber with tiny buffer lost or reordered events:\ngot  %d events\nwant %d events", len(got), len(want))
	}
}

// TestSubscribeOverflowDropOldest checks the lossy policy: a stalled
// subscriber never blocks updates, and whatever it does receive is an
// order-preserving subsequence of the full stream.
func TestSubscribeOverflowDropOldest(t *testing.T) {
	pts := regionPoints(60, 0)
	want := eventStream(t, pts)

	e, err := dyndbscan.New(dyndbscan.WithEps(1.5), dyndbscan.WithMinPts(3), dyndbscan.WithRho(0))
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	first := true
	var got []dyndbscan.Event
	cancel := e.Subscribe(func(ev dyndbscan.Event) {
		if first {
			first = false
			<-gate // stall the dispatcher: the queue must overflow
		}
		got = append(got, ev)
	}, dyndbscan.SubscribeBuffer(2), dyndbscan.SubscribeOverflow(dyndbscan.DropOldest))
	defer cancel()

	// With the dispatcher stalled, all updates must still complete.
	for _, pt := range pts {
		if _, err := e.Insert(pt); err != nil {
			t.Fatal(err)
		}
	}
	close(gate)
	e.Sync()

	if len(got) >= len(want) {
		t.Fatalf("expected drops with a stalled 2-slot subscriber: got %d of %d", len(got), len(want))
	}
	// Subsequence check: got must embed into want in order.
	j := 0
	for _, ev := range got {
		for j < len(want) && !reflect.DeepEqual(want[j], ev) {
			j++
		}
		if j == len(want) {
			t.Fatalf("delivered event %v is not an in-order member of the full stream", ev)
		}
		j++
	}
}

// TestReentrantCallbackDropOldest checks the documented write-back pattern:
// a DropOldest subscriber whose callback updates the Engine (queries and an
// insert/delete pair per event) makes progress even when its own queue
// overflows — no deadlock against concurrent updaters.
func TestReentrantCallbackDropOldest(t *testing.T) {
	e, err := dyndbscan.New(dyndbscan.WithEps(1.5), dyndbscan.WithMinPts(3), dyndbscan.WithRho(0))
	if err != nil {
		t.Fatal(err)
	}
	reacted := 0
	cancel := e.Subscribe(func(ev dyndbscan.Event) {
		// Query, then write back: the re-entrant updates join a dense far
		// blob, so they emit events of their own that land on (or drop
		// from) this subscriber's already-full queue. The cap keeps the
		// self-feeding loop finite so the test can drain and terminate.
		if reacted >= 50 {
			return
		}
		reacted++
		e.ClusterOf(ev.Point)
		id, err := e.Insert(dyndbscan.Point{500 + float64(reacted%3), 500})
		if err != nil {
			t.Error(err)
			return
		}
		if err := e.Delete(id); err != nil {
			t.Error(err)
			return
		}
	}, dyndbscan.SubscribeBuffer(2), dyndbscan.SubscribeOverflow(dyndbscan.DropOldest))
	defer cancel()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, pt := range regionPoints(80, 0) {
			if _, err := e.Insert(pt); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("re-entrant DropOldest subscriber deadlocked the engine")
	}
	e.Sync()
	if reacted == 0 {
		t.Fatal("callback never ran")
	}
}

// TestBlockedPublisherDoesNotStallQueries is the regression test for the
// ticket-ordered publication scheme: while one updater is backpressured on
// a full BlockSubscriber queue and other updaters are waiting their
// publication turn, the subscriber's callback must still be able to query
// the Engine (Snapshot needs the write lock when stale) — i.e., no engine
// lock may be held across a blocking enqueue.
func TestBlockedPublisherDoesNotStallQueries(t *testing.T) {
	e, err := dyndbscan.New(dyndbscan.WithEps(1.5), dyndbscan.WithMinPts(3), dyndbscan.WithRho(0))
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	released := false
	cancel := e.Subscribe(func(ev dyndbscan.Event) {
		if !released {
			released = true
			<-gate // let publishers stack up behind a full queue
		}
		// Queries from the callback must never deadlock, even with
		// publishers blocked and updaters queued for their turn.
		e.Snapshot()
		e.ClusterOf(ev.Point)
	}, dyndbscan.SubscribeBuffer(1))
	defer cancel()

	var wg sync.WaitGroup
	done := make(chan struct{})
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, pt := range regionPoints(25, float64(g)*10_000) {
				if _, err := e.Insert(pt); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	go func() { wg.Wait(); close(done) }()

	time.Sleep(50 * time.Millisecond) // give updaters time to pile up blocked
	close(gate)
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("updates deadlocked against a querying subscriber callback")
	}
	e.Sync()
}

// TestSyncLiveUnderSustainedStream checks Sync's liveness guarantee: with
// an updater that never stops (keeping a small DropOldest queue permanently
// full), Sync must still return once its horizon is settled — it waits for
// a drain point, not for an empty queue.
func TestSyncLiveUnderSustainedStream(t *testing.T) {
	e, err := dyndbscan.New(dyndbscan.WithEps(1.5), dyndbscan.WithMinPts(3), dyndbscan.WithRho(0))
	if err != nil {
		t.Fatal(err)
	}
	cancel := e.Subscribe(func(dyndbscan.Event) {
		time.Sleep(time.Millisecond) // slower than the update stream
	}, dyndbscan.SubscribeBuffer(2), dyndbscan.SubscribeOverflow(dyndbscan.DropOldest))
	defer cancel()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // sustained update stream; never stops until told
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			pts := regionPoints(4, float64(i%64)*100)
			ids, err := e.InsertBatch(pts)
			if err != nil {
				t.Error(err)
				return
			}
			if err := e.DeleteBatch(ids); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	synced := make(chan struct{})
	go func() { e.Sync(); close(synced) }()
	select {
	case <-synced:
	case <-time.After(30 * time.Second):
		t.Error("Sync hung under a sustained update stream")
	}
	close(stop)
	wg.Wait()
}

// TestEngineClose checks that Close cancels every subscription, stops
// delivery, and leaves the Engine usable.
func TestEngineClose(t *testing.T) {
	e, err := dyndbscan.New(dyndbscan.WithEps(1.5), dyndbscan.WithMinPts(3), dyndbscan.WithRho(0))
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	cancel := e.Subscribe(func(dyndbscan.Event) { delivered++ })
	if _, err := e.InsertBatch(regionPoints(3, 0)); err != nil {
		t.Fatal(err)
	}
	e.Sync()
	if delivered == 0 {
		t.Fatal("no events before Close")
	}
	e.Close()
	e.Close() // idempotent
	before := delivered
	if _, err := e.InsertBatch(regionPoints(3, 100)); err != nil {
		t.Fatal(err)
	}
	e.Sync()
	if delivered != before {
		t.Fatal("events delivered after Close")
	}
	cancel() // canceling a closed subscription is a no-op
	// The Engine stays usable: new subscriptions receive events again.
	var after int
	cancel2 := e.Subscribe(func(dyndbscan.Event) { after++ })
	defer cancel2()
	if _, err := e.InsertBatch(regionPoints(3, 200)); err != nil {
		t.Fatal(err)
	}
	e.Sync()
	if after == 0 {
		t.Fatal("no events after re-subscribing post-Close")
	}
}

// TestReentrantBlockSubscriberPanics checks the fail-fast guard on the one
// unresolvable self-wait: a BlockSubscriber callback performing updates
// whose events land on its own full queue must panic with a diagnosable
// message instead of silently deadlocking the engine. (The recover here is
// observation only — the panic marks a programming error and the engine's
// event pipeline is not usable afterwards.)
func TestReentrantBlockSubscriberPanics(t *testing.T) {
	e, err := dyndbscan.New(dyndbscan.WithEps(1.5), dyndbscan.WithMinPts(3), dyndbscan.WithRho(0))
	if err != nil {
		t.Fatal(err)
	}
	// Two dense blobs built before subscribing (no events yet): any point
	// inserted into one immediately promotes and emits PointBecameCore.
	if _, err := e.InsertBatch([]dyndbscan.Point{{0, 0}, {1, 0}, {0, 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.InsertBatch([]dyndbscan.Point{{500, 500}, {501, 500}, {500, 501}}); err != nil {
		t.Fatal(err)
	}
	panicked := make(chan string, 1)
	cancel := e.Subscribe(func(dyndbscan.Event) {
		defer func() {
			if r := recover(); r != nil {
				select {
				case panicked <- fmt.Sprint(r):
				default:
				}
			}
		}()
		// First re-entrant insert fills the 1-slot queue with its event;
		// the second finds its own queue full: guaranteed self-wait.
		if _, err := e.Insert(dyndbscan.Point{500.2, 500.2}); err != nil {
			t.Error(err)
		}
		if _, err := e.Insert(dyndbscan.Point{500.3, 500.3}); err != nil {
			t.Error(err)
		}
	}, dyndbscan.SubscribeBuffer(1))
	defer cancel()

	if _, err := e.Insert(dyndbscan.Point{0.5, 0.5}); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-panicked:
		if !strings.Contains(msg, "deadlock") {
			t.Fatalf("panic message not diagnosable: %q", msg)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("self-feeding BlockSubscriber did not panic (would have deadlocked)")
	}
}

// TestApplyMixedEquivalence checks that one mixed Apply batch lands in
// exactly the state the equivalent single-op sequence produces.
func TestApplyMixedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	mk := func() *dyndbscan.Engine {
		e, err := dyndbscan.New(dyndbscan.WithEps(3), dyndbscan.WithMinPts(4), dyndbscan.WithRho(0))
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	batched, single := mk(), mk()

	// Seed both engines identically.
	var seed []dyndbscan.Point
	for i := 0; i < 200; i++ {
		cx, cy := float64(rng.Intn(3)*12), float64(rng.Intn(3)*12)
		seed = append(seed, dyndbscan.Point{cx + rng.NormFloat64()*2, cy + rng.NormFloat64()*2})
	}
	bIDs, err := batched.InsertBatch(seed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := single.InsertBatch(seed); err != nil {
		t.Fatal(err)
	}

	// One mixed batch: delete a third, insert fresh points.
	var ops []dyndbscan.Op
	for _, k := range rng.Perm(len(seed))[:70] {
		ops = append(ops, dyndbscan.DeleteOp(bIDs[k]))
	}
	var fresh []dyndbscan.Point
	for i := 0; i < 50; i++ {
		fresh = append(fresh, dyndbscan.Point{rng.Float64() * 30, rng.Float64() * 30})
		ops = append(ops, dyndbscan.InsertOp(fresh[i]))
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })

	v0 := batched.Version()
	res, err := batched.Apply(ops)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(ops) {
		t.Fatalf("Apply returned %d results for %d ops", len(res), len(ops))
	}
	if batched.Version() != v0+1 {
		t.Fatalf("Apply advanced version by %d, want 1", batched.Version()-v0)
	}
	for i, op := range ops {
		switch op.Kind {
		case dyndbscan.OpDelete:
			if res[i] != op.ID {
				t.Fatalf("op %d: delete result %d, want %d", i, res[i], op.ID)
			}
			if batched.Has(op.ID) {
				t.Fatalf("op %d: deleted id %d still live", i, op.ID)
			}
		case dyndbscan.OpInsert:
			if !batched.Has(res[i]) {
				t.Fatalf("op %d: inserted id %d not live", i, res[i])
			}
		}
	}

	// Replay the same batch as single ops on the other engine.
	for _, op := range ops {
		switch op.Kind {
		case dyndbscan.OpDelete:
			if err := single.Delete(op.ID); err != nil {
				t.Fatal(err)
			}
		case dyndbscan.OpInsert:
			if _, err := single.Insert(op.Pt); err != nil {
				t.Fatal(err)
			}
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
		t.Fatalf("Apply clustering differs from single-op clustering:\n%+v\nvs\n%+v", rb, rs)
	}
}

// TestApplyValidation checks the all-or-nothing pre-commit contract of
// Apply: malformed points, unknown or duplicated delete targets, and
// invalid kinds reject the batch with no state change.
func TestApplyValidation(t *testing.T) {
	e, err := dyndbscan.New(dyndbscan.WithEps(2), dyndbscan.WithMinPts(2))
	if err != nil {
		t.Fatal(err)
	}
	ids, err := e.InsertBatch([]dyndbscan.Point{{0, 0}, {1, 0}, {2, 0}})
	if err != nil {
		t.Fatal(err)
	}
	v0 := e.Version()

	cases := []struct {
		name string
		ops  []dyndbscan.Op
		want error
	}{
		{"bad point", []dyndbscan.Op{dyndbscan.InsertOp(dyndbscan.Point{1})}, dyndbscan.ErrBadPoint},
		{"bad point after delete", []dyndbscan.Op{dyndbscan.DeleteOp(ids[1]), dyndbscan.InsertOp(dyndbscan.Point{2})}, dyndbscan.ErrBadPoint},
		{"unknown delete", []dyndbscan.Op{dyndbscan.DeleteOp(777)}, dyndbscan.ErrUnknownPoint},
		{"duplicate delete", []dyndbscan.Op{dyndbscan.DeleteOp(ids[0]), dyndbscan.InsertOp(dyndbscan.Point{5, 5}), dyndbscan.DeleteOp(ids[0])}, dyndbscan.ErrDuplicateID},
		{"mixed valid+unknown", []dyndbscan.Op{dyndbscan.InsertOp(dyndbscan.Point{5, 5}), dyndbscan.DeleteOp(999)}, dyndbscan.ErrUnknownPoint},
		{"invalid kind", []dyndbscan.Op{{Kind: 42}}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := e.Apply(tc.ops)
			if err == nil {
				t.Fatal("Apply succeeded, want error")
			}
			if tc.want != nil && !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			if res != nil {
				t.Fatalf("rejected Apply returned results %v", res)
			}
		})
	}
	// Errors name positions in op coordinates, not the insert subsequence.
	if _, err := e.Apply([]dyndbscan.Op{dyndbscan.DeleteOp(ids[1]), dyndbscan.InsertOp(dyndbscan.Point{3})}); err == nil || !strings.Contains(err.Error(), "op 1") {
		t.Fatalf("staged error not in op coordinates: %v", err)
	}
	if e.Version() != v0 {
		t.Fatalf("rejected batches advanced version %d -> %d", v0, e.Version())
	}
	if e.Len() != 3 {
		t.Fatalf("rejected batches changed state: Len=%d", e.Len())
	}
	// Empty batch: no-op, no version bump.
	if res, err := e.Apply(nil); err != nil || res != nil {
		t.Fatalf("Apply(nil) = %v, %v", res, err)
	}
	if e.Version() != v0 {
		t.Fatal("empty Apply advanced the version")
	}
	// Deletes cannot target inserts of the same batch (handles unknown yet):
	// documented ErrUnknownPoint.
	next := dyndbscan.PointID(1000)
	if _, err := e.Apply([]dyndbscan.Op{
		dyndbscan.InsertOp(dyndbscan.Point{9, 9}),
		dyndbscan.DeleteOp(next),
	}); !errors.Is(err, dyndbscan.ErrUnknownPoint) {
		t.Fatalf("same-batch delete: %v", err)
	}
	// On the insertion-only algorithm, any delete op fails the batch
	// pre-commit — no partial insert sneaks in before the doomed delete.
	semi, err := dyndbscan.New(dyndbscan.WithAlgorithm(dyndbscan.AlgoSemiDynamic), dyndbscan.WithEps(2), dyndbscan.WithMinPts(2))
	if err != nil {
		t.Fatal(err)
	}
	sid, err := semi.Insert(dyndbscan.Point{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := semi.Apply([]dyndbscan.Op{
		dyndbscan.InsertOp(dyndbscan.Point{1, 1}),
		dyndbscan.DeleteOp(sid),
	}); !errors.Is(err, dyndbscan.ErrDeletesUnsupported) {
		t.Fatalf("semi-dynamic Apply delete: %v", err)
	}
	if semi.Len() != 1 || semi.Version() != 1 {
		t.Fatalf("semi-dynamic Apply partially committed: Len=%d Version=%d", semi.Len(), semi.Version())
	}
}

// TestSnapshotGroupByEquivalence checks that the lock-free snapshot query
// path answers GroupBy/GroupAll exactly like the live structure, on every
// algorithm.
func TestSnapshotGroupByEquivalence(t *testing.T) {
	algos := []dyndbscan.Algorithm{
		dyndbscan.AlgoFullyDynamic, dyndbscan.AlgoSemiDynamic, dyndbscan.AlgoIncDBSCAN,
	}
	rng := rand.New(rand.NewSource(9))
	var pts []dyndbscan.Point
	for i := 0; i < 300; i++ {
		cx, cy := float64(rng.Intn(3)*12), float64(rng.Intn(3)*12)
		pts = append(pts, dyndbscan.Point{cx + rng.NormFloat64()*2.5, cy + rng.NormFloat64()*2.5})
	}
	for _, algo := range algos {
		t.Run(algo.String(), func(t *testing.T) {
			// live never builds a snapshot, so its GroupBy always uses the
			// live structure; snap pre-builds one, so its GroupBy always
			// uses the lock-free path.
			mk := func() *dyndbscan.Engine {
				e, err := dyndbscan.New(
					dyndbscan.WithAlgorithm(algo),
					dyndbscan.WithEps(3), dyndbscan.WithMinPts(5), dyndbscan.WithRho(0),
				)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := e.InsertBatch(pts); err != nil {
					t.Fatal(err)
				}
				return e
			}
			live, snap := mk(), mk()
			s := snap.Snapshot()

			la, err := live.GroupAll()
			if err != nil {
				t.Fatal(err)
			}
			sa, err := snap.GroupAll()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(la, sa) {
				t.Fatal("GroupAll: snapshot path differs from live path")
			}
			ids := live.IDs()
			for trial := 0; trial < 50; trial++ {
				q := make([]dyndbscan.PointID, 1+rng.Intn(20))
				for i := range q {
					q[i] = ids[rng.Intn(len(ids))] // duplicates allowed: Q is a set
				}
				lr, err := live.GroupBy(q)
				if err != nil {
					t.Fatal(err)
				}
				sr, err := snap.GroupBy(q)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(lr, sr) {
					t.Fatalf("GroupBy(%v): snapshot %+v, live %+v", q, sr, lr)
				}
				// The Snapshot's own exported query agrees too.
				sr2, err := s.GroupBy(q)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(lr, sr2) {
					t.Fatalf("Snapshot.GroupBy(%v) diverged", q)
				}
			}
			if _, err := snap.GroupBy([]dyndbscan.PointID{99999}); !errors.Is(err, dyndbscan.ErrUnknownPoint) {
				t.Fatalf("snapshot-path GroupBy unknown id: %v", err)
			}
		})
	}
}

// TestWithWorkersValidation checks the option's validation and resolution.
func TestWithWorkersValidation(t *testing.T) {
	if _, err := dyndbscan.New(dyndbscan.WithEps(2), dyndbscan.WithMinPts(2), dyndbscan.WithWorkers(-1)); err == nil {
		t.Fatal("negative workers accepted")
	}
	e, err := dyndbscan.New(dyndbscan.WithEps(2), dyndbscan.WithMinPts(2), dyndbscan.WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	if e.Workers() != 3 {
		t.Fatalf("Workers() = %d", e.Workers())
	}
	auto, err := dyndbscan.New(dyndbscan.WithEps(2), dyndbscan.WithMinPts(2))
	if err != nil {
		t.Fatal(err)
	}
	if auto.Workers() < 1 {
		t.Fatalf("auto Workers() = %d", auto.Workers())
	}
}

// TestInsertBatchParallelStaging pushes a batch large enough to engage the
// parallel staging path and confirms id assignment and error reporting stay
// deterministic.
func TestInsertBatchParallelStaging(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := make([]dyndbscan.Point, 5000)
	for i := range pts {
		pts[i] = dyndbscan.Point{rng.Float64() * 1000, rng.Float64() * 1000}
	}
	par, err := dyndbscan.New(dyndbscan.WithEps(20), dyndbscan.WithMinPts(5), dyndbscan.WithWorkers(8))
	if err != nil {
		t.Fatal(err)
	}
	ser, err := dyndbscan.New(dyndbscan.WithEps(20), dyndbscan.WithMinPts(5), dyndbscan.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	pIDs, err := par.InsertBatch(pts)
	if err != nil {
		t.Fatal(err)
	}
	sIDs, err := ser.InsertBatch(pts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pIDs, sIDs) {
		t.Fatal("parallel staging changed id assignment")
	}
	ra, err := par.GroupAll()
	if err != nil {
		t.Fatal(err)
	}
	rs, err := ser.GroupAll()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ra, rs) {
		t.Fatal("parallel staging changed the clustering")
	}
	// Deterministic error index even under parallel staging: the lowest
	// malformed point is reported.
	bad := append(append([]dyndbscan.Point{}, pts...), pts...)
	bad[1234] = dyndbscan.Point{1}
	bad[4321] = dyndbscan.Point{2}
	_, err = par.InsertBatch(bad)
	if err == nil || !errors.Is(err, dyndbscan.ErrBadPoint) {
		t.Fatalf("bad batch: %v", err)
	}
	if want := fmt.Sprintf("point %d", 1234); !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name the lowest bad index %q", err, want)
	}
	if par.Len() != len(pts) {
		t.Fatalf("failed batch mutated state: Len=%d", par.Len())
	}
}
