package dyndbscan_test

// Directed tests for the contention-adaptive hot-stripe commit path: staging
// visibility and join triggers, split→join→split cycles under concurrent
// writers, a reconcile racing Close, placement staying put under sustained
// contention (with WAL replay), a live migration against concurrent writers, the
// Subscribe seam-reuse fast path, and option validation. The randomized
// cross-mode harness (equivalence_test.go) covers the same machinery
// end-to-end; these tests pin the individual mechanisms.

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"dyndbscan"
)

// hairTrigger returns a policy under which a handful of inserts puts a
// stripe in split phase and reconciles stay manual (huge ReconcileOps), so
// tests control exactly when joins happen.
func hairTrigger() dyndbscan.HotspotPolicy {
	return dyndbscan.HotspotPolicy{
		ScoreThreshold: 2,
		WaitWeight:     4,
		CheckEvery:     1,
		ReconcileOps:   1 << 20,
	}
}

func newHotEngine(t *testing.T, pol dyndbscan.HotspotPolicy, extra ...dyndbscan.Option) *dyndbscan.Engine {
	t.Helper()
	opts := append([]dyndbscan.Option{
		dyndbscan.WithAlgorithm(dyndbscan.AlgoFullyDynamic),
		dyndbscan.WithDims(2),
		dyndbscan.WithEps(10),
		dyndbscan.WithMinPts(3),
		dyndbscan.WithRho(0),
		dyndbscan.WithShards(2),
		dyndbscan.WithShardStripe(3),
		dyndbscan.WithHotspot(pol),
	}, extra...)
	e, err := dyndbscan.New(opts...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return e
}

// hotPoints emits n points clustered inside one stripe around x.
func hotPoints(n int, x float64) []dyndbscan.Point {
	pts := make([]dyndbscan.Point, n)
	for i := range pts {
		pts[i] = dyndbscan.Point{x + float64(i%7), float64(i % 11)}
	}
	return pts
}

func TestHotspotOptionValidation(t *testing.T) {
	if _, err := dyndbscan.New(
		dyndbscan.WithDims(2), dyndbscan.WithEps(10), dyndbscan.WithMinPts(3),
		dyndbscan.WithHotspot(dyndbscan.DefaultHotspotPolicy()),
	); err == nil {
		t.Fatal("WithHotspot on a single-shard engine must be rejected")
	}
	if _, err := dyndbscan.New(
		dyndbscan.WithDims(2), dyndbscan.WithEps(10), dyndbscan.WithMinPts(3),
		dyndbscan.WithShards(2),
		dyndbscan.WithHotspot(dyndbscan.HotspotPolicy{ScoreThreshold: -1}),
	); err == nil {
		t.Fatal("negative HotspotPolicy field must be rejected")
	}
	e, err := dyndbscan.New(
		dyndbscan.WithDims(2), dyndbscan.WithEps(10), dyndbscan.WithMinPts(3),
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer e.Close()
	if st := e.HotspotStats(); st.Enabled {
		t.Fatalf("HotspotStats.Enabled on an engine without WithHotspot: %+v", st)
	}
}

// TestHotspotStagingVisibilityAndJoins drives a stripe into split phase,
// checks that staged inserts are visible on the handle surface but deferred
// on the clustering surface, and that each join trigger folds them in.
func TestHotspotStagingVisibilityAndJoins(t *testing.T) {
	e := newHotEngine(t, hairTrigger())
	defer e.Close()

	// Heat the stripe: enough committed traffic to cross the threshold.
	warm, err := e.InsertBatch(hotPoints(32, 0))
	if err != nil {
		t.Fatalf("warm InsertBatch: %v", err)
	}
	// Now single inserts into the hot stripe divert into staging.
	var staged []dyndbscan.PointID
	for i := 0; i < 16; i++ {
		id, err := e.Insert(dyndbscan.Point{float64(i % 5), 20})
		if err != nil {
			t.Fatalf("hot Insert: %v", err)
		}
		staged = append(staged, id)
	}
	if e.StagedOps() == 0 {
		t.Fatalf("no insert was diverted into staging (stats %+v)", e.HotspotStats())
	}
	// Handle surface: staged points count, are Has-visible, and appear in IDs.
	if got, want := e.Len(), len(warm)+len(staged); got != want {
		t.Fatalf("Len with staged inserts: got %d, want %d", got, want)
	}
	for _, id := range staged {
		if !e.Has(id) {
			t.Fatalf("staged insert %d invisible to Has", id)
		}
	}
	ids := e.IDs()
	seen := make(map[dyndbscan.PointID]bool, len(ids))
	for _, id := range ids {
		seen[id] = true
	}
	for _, id := range staged {
		if !seen[id] {
			t.Fatalf("staged insert %d missing from IDs", id)
		}
	}

	// Query join: GroupAll must reflect every staged point.
	res, err := e.GroupAll()
	if err != nil {
		t.Fatalf("GroupAll: %v", err)
	}
	members := 0
	for _, g := range res.Groups {
		members += len(g)
	}
	if members+len(res.Noise) != len(warm)+len(staged) {
		t.Fatalf("GroupAll after join covers %d points, want %d", members+len(res.Noise), len(warm)+len(staged))
	}
	if e.StagedOps() != 0 {
		t.Fatalf("staged ops remain after a query join: %d", e.StagedOps())
	}
	st := e.HotspotStats()
	if st.Joins["query"] == 0 || st.Reconciles == 0 {
		t.Fatalf("query join not recorded: %+v", st)
	}

	// Delete join: deleting a staged point must find it.
	for i := 0; i < 8; i++ {
		id, err := e.Insert(dyndbscan.Point{2, 30})
		if err != nil {
			t.Fatalf("re-stage Insert: %v", err)
		}
		staged = append(staged, id)
	}
	if e.StagedOps() == 0 {
		t.Fatal("stripe no longer staging; cannot exercise the delete join")
	}
	victim := staged[len(staged)-1]
	if err := e.Delete(victim); err != nil {
		t.Fatalf("Delete of a staged insert: %v", err)
	}
	if e.Has(victim) {
		t.Fatalf("deleted staged insert %d still visible", victim)
	}

	// Sync join drains whatever the delete join left behind.
	if _, err := e.Insert(dyndbscan.Point{3, 40}); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	e.Sync()
	if e.StagedOps() != 0 {
		t.Fatalf("staged ops remain after Sync: %d", e.StagedOps())
	}
}

// TestHotspotEquivalenceWithReference replays one deterministic skewed stream
// into a hotspot engine and a plain sharded engine and requires identical
// handles and clustering at the end — with real split-phase traffic in
// between (the coverage guard at the bottom).
func TestHotspotEquivalenceWithReference(t *testing.T) {
	pol := hairTrigger()
	pol.ReconcileOps = 24 // exercise threshold-triggered background reconciles
	hot := newHotEngine(t, pol)
	defer hot.Close()
	ref, err := dyndbscan.New(
		dyndbscan.WithAlgorithm(dyndbscan.AlgoFullyDynamic),
		dyndbscan.WithDims(2), dyndbscan.WithEps(10), dyndbscan.WithMinPts(3),
		dyndbscan.WithRho(0), dyndbscan.WithShards(2), dyndbscan.WithShardStripe(3),
	)
	if err != nil {
		t.Fatalf("New ref: %v", err)
	}
	defer ref.Close()

	rng := rand.New(rand.NewSource(7))
	var live []dyndbscan.PointID
	for round := 0; round < 120; round++ {
		pts := make([]dyndbscan.Point, 12)
		for i := range pts {
			x := rng.NormFloat64() * 4 // Zipf-ish: most mass in one stripe
			if rng.Intn(8) == 0 {
				x += float64(rng.Intn(200) - 100)
			}
			pts[i] = dyndbscan.Point{x, rng.Float64() * 30}
		}
		outHot, err := hot.InsertBatch(pts)
		if err != nil {
			t.Fatalf("round %d: hot InsertBatch: %v", round, err)
		}
		outRef, err := ref.InsertBatch(pts)
		if err != nil {
			t.Fatalf("round %d: ref InsertBatch: %v", round, err)
		}
		if !reflect.DeepEqual(outHot, outRef) {
			t.Fatalf("round %d: handles diverge", round)
		}
		live = append(live, outHot...)
		if round%5 == 4 && len(live) > 0 {
			id := live[rng.Intn(len(live))]
			if err := hot.Delete(id); err != nil {
				t.Fatalf("round %d: hot Delete(%d): %v", round, id, err)
			}
			if err := ref.Delete(id); err != nil {
				t.Fatalf("round %d: ref Delete(%d): %v", round, id, err)
			}
			for i, v := range live {
				if v == id {
					live = append(live[:i], live[i+1:]...)
					break
				}
			}
		}
	}
	gHot, err := hot.GroupAll()
	if err != nil {
		t.Fatalf("hot GroupAll: %v", err)
	}
	gRef, err := ref.GroupAll()
	if err != nil {
		t.Fatalf("ref GroupAll: %v", err)
	}
	if !reflect.DeepEqual(gHot.Groups, gRef.Groups) || !reflect.DeepEqual(gHot.Noise, gRef.Noise) {
		t.Fatalf("clustering diverges:\nhot: %d groups %d noise\nref: %d groups %d noise",
			len(gHot.Groups), len(gHot.Noise), len(gRef.Groups), len(gRef.Noise))
	}
	st := hot.HotspotStats()
	if st.Reconciles == 0 || st.ReconciledOps == 0 {
		t.Fatalf("stream never exercised split phase: %+v", st)
	}
}

// TestHotspotSplitJoinSplitCycleRace hammers a hot stripe from several
// writers while a reader keeps forcing joins — split phase must be entered,
// drained, and re-entered without losing a point. Run with -race.
func TestHotspotSplitJoinSplitCycleRace(t *testing.T) {
	e := newHotEngine(t, hairTrigger())
	defer e.Close()
	const writers, perWriter = 4, 150
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		ids []dyndbscan.PointID
	)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id, err := e.Insert(dyndbscan.Point{float64((w + i) % 9), float64(i % 50)})
				if err != nil {
					t.Errorf("writer %d: Insert: %v", w, err)
					return
				}
				mu.Lock()
				ids = append(ids, id)
				mu.Unlock()
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			e.Sync() // forced joins interleave with staging
			if _, err := e.GroupAll(); err != nil {
				t.Errorf("reader GroupAll: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	e.Sync()
	if e.StagedOps() != 0 {
		t.Fatalf("staged ops remain after the final Sync: %d", e.StagedOps())
	}
	if got, want := e.Len(), writers*perWriter; got != want {
		t.Fatalf("Len after concurrent split/join cycles: got %d, want %d", got, want)
	}
	for _, id := range ids {
		if !e.Has(id) {
			t.Fatalf("acked insert %d lost", id)
		}
	}
}

// TestHotspotReconcileRacingClose races writers (whose inserts keep landing
// in staging) against Close: every insert that was acknowledged must survive
// into the reopened engine — Close's drain and the closing gate make a clean
// shutdown lossless even mid-traffic. Run with -race.
func TestHotspotReconcileRacingClose(t *testing.T) {
	dir, err := os.MkdirTemp("", "dyndbscan-hot-close-")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	e := newHotEngine(t, hairTrigger(), dyndbscan.WithWAL(dir, dyndbscan.SyncAlways()))

	if _, err := e.InsertBatch(hotPoints(32, 0)); err != nil {
		t.Fatalf("warm InsertBatch: %v", err)
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		acked []dyndbscan.PointID
	)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				id, err := e.Insert(dyndbscan.Point{float64((w + i) % 9), float64(i % 40)})
				if err != nil {
					return // the log sealed mid-race; unacked, may be lost
				}
				mu.Lock()
				acked = append(acked, id)
				mu.Unlock()
			}
		}(w)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close racing writers: %v", err)
	}
	wg.Wait()

	re, err := dyndbscan.Open(dir, dyndbscan.WithHotspot(hairTrigger()))
	if err != nil {
		t.Fatalf("Open after racing Close: %v", err)
	}
	defer re.Close()
	mu.Lock()
	defer mu.Unlock()
	for _, id := range acked {
		if !re.Has(id) {
			t.Fatalf("acked insert %d missing after Close/Open (%d acked)", id, len(acked))
		}
	}
}

// TestHotspotCloseReopenStaged closes an engine with a non-empty staging
// buffer and requires the reopened engine to serve every acked handle with
// the same clustering — staged deltas must reach the log before it seals and
// must never leak into a checkpoint unreconciled.
func TestHotspotCloseReopenStaged(t *testing.T) {
	dir, err := os.MkdirTemp("", "dyndbscan-hot-reopen-")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	e := newHotEngine(t, hairTrigger(),
		dyndbscan.WithWAL(dir, dyndbscan.SyncAlways()), dyndbscan.WithWALCheckpointEvery(8))

	var all []dyndbscan.PointID
	out, err := e.InsertBatch(hotPoints(40, 0))
	if err != nil {
		t.Fatalf("InsertBatch: %v", err)
	}
	all = append(all, out...)
	for i := 0; i < 20; i++ { // single inserts divert once the stripe is hot
		id, err := e.Insert(dyndbscan.Point{float64(i % 6), 60})
		if err != nil {
			t.Fatalf("Insert: %v", err)
		}
		all = append(all, id)
	}
	if e.StagedOps() == 0 {
		t.Fatal("no staged deltas at Close; the test lost its scenario")
	}
	before, err := e.GroupAll()
	if err != nil {
		t.Fatalf("GroupAll: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close with staged deltas: %v", err)
	}

	re, err := dyndbscan.Open(dir, dyndbscan.WithHotspot(hairTrigger()))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer re.Close()
	if got, want := re.Len(), len(all); got != want {
		t.Fatalf("Len after reopen: got %d, want %d", got, want)
	}
	for _, id := range all {
		if !re.Has(id) {
			t.Fatalf("handle %d lost across Close/Open", id)
		}
	}
	after, err := re.GroupAll()
	if err != nil {
		t.Fatalf("reopened GroupAll: %v", err)
	}
	if !reflect.DeepEqual(before.Groups, after.Groups) || !reflect.DeepEqual(before.Noise, after.Noise) {
		t.Fatal("clustering changed across Close/Open with staged deltas")
	}
}

// TestHotspotPlacementUnchangedUnderContention keeps one stripe hot through
// repeated joins under a policy that once escalated to splitting the stripe
// (SplitAfter 2). The stripe is the only placement unit now: the stripe
// width, the per-shard stripe counts and the split counter must not move,
// neither live nor across a WAL restart.
func TestHotspotPlacementUnchangedUnderContention(t *testing.T) {
	dir := t.TempDir()
	pol := hairTrigger()
	pol.SplitAfter = 2 // deprecated and ignored; it must stay inert
	pol.ReconcileOps = 8
	// Wide enough (≥ 2·(bandCells+1) = 10 cells at eps 10) that a two-way
	// split of stripe 0 would be geometrically possible.
	e := newHotEngine(t, pol, dyndbscan.WithWAL(dir, dyndbscan.SyncAlways()), dyndbscan.WithShardStripe(16))

	stripesPerShard := func(e *dyndbscan.Engine) []int {
		var out []int
		for _, l := range e.ShardLoads() {
			out = append(out, l.Stripes)
		}
		return out
	}
	if _, err := e.InsertBatch(hotPoints(12, 0)); err != nil {
		t.Fatal(err)
	}
	e.Sync()
	width, stripes := e.StripeCells(), stripesPerShard(e)
	for round := 1; round < 60; round++ {
		if _, err := e.InsertBatch(hotPoints(12, float64(round%3))); err != nil {
			t.Fatalf("round %d: InsertBatch: %v", round, err)
		}
		e.Sync() // each join once counted toward SplitAfter
	}
	st := e.HotspotStats()
	if st.Reconciles == 0 {
		t.Fatalf("the stripe never went through split phase: %+v", st)
	}
	if st.Splits != 0 {
		t.Fatalf("HotspotStats.Splits = %d, want 0", st.Splits)
	}
	if got := e.StripeCells(); got != width {
		t.Fatalf("StripeCells moved under contention: %d → %d", width, got)
	}
	if got := stripesPerShard(e); !reflect.DeepEqual(got, stripes) {
		t.Fatalf("per-shard stripe counts moved under contention: %v → %v", stripes, got)
	}
	n := e.Len()
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	re, err := dyndbscan.Open(dir, dyndbscan.WithHotspot(pol))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer re.Close()
	if got := re.StripeCells(); got != width {
		t.Fatalf("StripeCells after restart: got %d, want %d", got, width)
	}
	if got := stripesPerShard(re); !reflect.DeepEqual(got, stripes) {
		t.Fatalf("per-shard stripe counts after restart: got %v, want %v", got, stripes)
	}
	if got := re.Len(); got != n {
		t.Fatalf("Len after restart: got %d, want %d", got, n)
	}
}

// TestHotspotChunkedMigrationVsWriters runs a live migration, forced into
// many short rounds, against concurrent writers and deleters on a hotspot
// engine: the move must land, no handle may be lost, and the seam must pass
// its audit. Run with -race.
func TestHotspotChunkedMigrationVsWriters(t *testing.T) {
	testHotMigrationVsWriters(t, false)
}

// TestHotspotChunkedMigrationVsWritersSubscribed is the same race with an
// event validator attached before the move: every round folds into the
// seam, and the published stream must stay valid and agree with the
// snapshot.
func TestHotspotChunkedMigrationVsWritersSubscribed(t *testing.T) {
	testHotMigrationVsWriters(t, true)
}

func testHotMigrationVsWriters(t *testing.T, subscribed bool) {
	e := newHotEngine(t, hairTrigger())
	defer e.Close()
	// A populous stripe 0, then migrate it while writers keep appending to
	// it and deleting from it.
	base, err := e.InsertBatch(hotPoints(400, 0))
	if err != nil {
		t.Fatalf("InsertBatch: %v", err)
	}
	e.Sync()
	dst := 1 - e.StripeOwner(0)
	migrationVsWriters(t, e, base, subscribed, true,
		func(w, i int) dyndbscan.Point { return dyndbscan.Point{float64((w*3 + i) % 10), float64(100 + i%40)} },
		func() {
			if err := e.MoveStripe(0, dst); err != nil {
				t.Errorf("MoveStripe: %v", err)
			}
		})
	if got := e.StripeOwner(0); got != dst {
		t.Fatalf("migration did not land: owner %d, want %d", got, dst)
	}
}

// TestSubscribeSeamReuse pins the warm-seam subscribe invariant: a sharded
// engine's seam is warm from birth and folded by every commit, so Subscribe —
// first, repeated, or after interleaved commits — attaches to a seam that
// must pass its audit. (No restitch code exists, so the O(1) attach holds by
// construction.)
func TestSubscribeSeamReuse(t *testing.T) {
	e, err := dyndbscan.New(
		dyndbscan.WithAlgorithm(dyndbscan.AlgoFullyDynamic),
		dyndbscan.WithDims(2), dyndbscan.WithEps(10), dyndbscan.WithMinPts(3),
		dyndbscan.WithRho(0), dyndbscan.WithShards(2), dyndbscan.WithShardStripe(3),
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer e.Close()
	if _, err := e.InsertBatch(hotPoints(64, 0)); err != nil {
		t.Fatalf("InsertBatch: %v", err)
	}

	cancel := e.Subscribe(func(dyndbscan.Event) {})
	e.Sync()
	if err := e.SeamAudit(); err != nil {
		t.Fatalf("warm seam fails its audit: %v", err)
	}
	cancel()
	e.Sync() // teardown stops publication; the seam stays warm and folding

	cancel2 := e.Subscribe(func(dyndbscan.Event) {})
	e.Sync()
	if err := e.SeamAudit(); err != nil {
		t.Fatalf("reused seam fails its audit: %v", err)
	}
	cancel2()
	e.Sync()

	// Commits between teardown and the next Subscribe fold into the warm
	// seam as they happen — attaching afterwards still needs no rebuild.
	if _, err := e.Insert(dyndbscan.Point{50, 50}); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	cancel3 := e.Subscribe(func(dyndbscan.Event) {})
	e.Sync()
	defer cancel3()
	if err := e.SeamAudit(); err != nil {
		t.Fatalf("folded seam fails its audit: %v", err)
	}
}

// TestHotspotSyncBarrierWaitsOutInflightReconcile pins the join-barrier fix:
// a barrier join (Sync here) that finds a reconcile in flight must wait it
// out, not return on a lost TryLock. The in-flight reconcile snapshotted its
// stripe list before these ops staged, so it cannot subsume the join — under
// the old advisory behavior Sync returned with StagedOps > 0. Run with -race.
func TestHotspotSyncBarrierWaitsOutInflightReconcile(t *testing.T) {
	e := newHotEngine(t, hairTrigger())
	defer e.Close()
	if _, err := e.InsertBatch(hotPoints(32, 0)); err != nil {
		t.Fatalf("warm InsertBatch: %v", err)
	}
	// The "in-flight reconcile": holds the reconcile lock with a stripe
	// snapshot that predates everything staged below.
	release := e.HoldReconcile()
	for i := 0; i < 12; i++ {
		if _, err := e.Insert(dyndbscan.Point{float64(i % 5), 20}); err != nil {
			t.Fatalf("hot Insert: %v", err)
		}
	}
	if e.StagedOps() == 0 {
		release()
		t.Fatal("no insert was diverted into staging; the test lost its scenario")
	}
	done := make(chan struct{})
	go func() {
		e.Sync()
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("Sync returned while a reconcile was in flight and deltas it cannot have folded were staged")
	case <-time.After(50 * time.Millisecond):
	}
	release()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Sync never returned after the in-flight reconcile released")
	}
	if n := e.StagedOps(); n != 0 {
		t.Fatalf("staged ops remain after a barrier Sync: %d", n)
	}
}

// TestHotspotConcurrentStagers diverts multi-op insert batches from several
// writers into the same hot stripes while threshold reconciles fold them, and
// readers check the handle surface: IDs never lists a handle twice, and every
// acked handle is Has. Afterwards the handle views agree, the clustering
// equals a non-hotspot engine fed the same points, and Close/Open recovers
// the same snapshot. Run with -race at several -cpu values.
func TestHotspotConcurrentStagers(t *testing.T) {
	dir, err := os.MkdirTemp("", "dyndbscan-hot-stagers-")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	pol := hairTrigger()
	pol.ReconcileOps = 128 // threshold folds race the stagers
	e := newHotEngine(t, pol, dyndbscan.WithWAL(dir, dyndbscan.SyncAlways()))

	// Two hot stripes: a stripe is 3 cells of side 10/√2 wide, so x ≈ 0 and
	// x ≈ 45 fall in stripes 0 and 2.
	bases := []float64{0, 45}
	var (
		mu    sync.Mutex
		acked []dyndbscan.PointID
		pts   = make(map[dyndbscan.PointID]dyndbscan.Point)
	)
	record := func(ids []dyndbscan.PointID, batch []dyndbscan.Point) {
		mu.Lock()
		defer mu.Unlock()
		for i, id := range ids {
			acked = append(acked, id)
			pts[id] = batch[i]
		}
	}
	for _, x := range bases {
		warm := hotPoints(32, x)
		ids, err := e.InsertBatch(warm)
		if err != nil {
			t.Fatalf("warm InsertBatch: %v", err)
		}
		record(ids, warm)
	}

	const writers, batches, batchOps = 4, 16, 64
	var wg, rg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				want := append([]dyndbscan.PointID(nil), acked...)
				mu.Unlock()
				ids := e.IDs()
				seen := make(map[dyndbscan.PointID]bool, len(ids))
				for _, id := range ids {
					if seen[id] {
						t.Errorf("IDs lists handle %d twice", id)
						return
					}
					seen[id] = true
				}
				for _, id := range want {
					if !e.Has(id) {
						t.Errorf("acked handle %d is not Has", id)
						return
					}
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				batch := make([]dyndbscan.Point, batchOps)
				for j := range batch {
					batch[j] = dyndbscan.Point{
						bases[j%len(bases)] + float64((w+j)%7),
						float64((b*batchOps + j) % 97),
					}
				}
				ids, err := e.InsertBatch(batch)
				if err != nil {
					t.Errorf("writer %d: InsertBatch: %v", w, err)
					return
				}
				record(ids, batch)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	rg.Wait()
	if t.Failed() {
		e.Close()
		return
	}
	st := e.HotspotStats()
	if st.ReconciledOps == 0 {
		e.Close()
		t.Fatalf("no batch was diverted into staging; the test lost its scenario (stats %+v)", st)
	}

	e.Sync()
	if n := e.StagedOps(); n != 0 {
		t.Fatalf("staged ops remain after Sync: %d", n)
	}
	if got, ids := e.Len(), e.IDs(); got != len(ids) || got != len(acked) {
		t.Fatalf("Len %d, len(IDs) %d, acked %d", got, len(ids), len(acked))
	}

	// The reference engine mints its own handles; map them onto the hot
	// engine's before comparing the partitions.
	ref, err := dyndbscan.New(
		dyndbscan.WithAlgorithm(dyndbscan.AlgoFullyDynamic),
		dyndbscan.WithDims(2), dyndbscan.WithEps(10), dyndbscan.WithMinPts(3),
		dyndbscan.WithRho(0), dyndbscan.WithShards(2), dyndbscan.WithShardStripe(3),
	)
	if err != nil {
		t.Fatalf("New ref: %v", err)
	}
	defer ref.Close()
	refPts := make([]dyndbscan.Point, len(acked))
	for i, id := range acked {
		refPts[i] = pts[id]
	}
	refIDs, err := ref.InsertBatch(refPts)
	if err != nil {
		t.Fatalf("ref InsertBatch: %v", err)
	}
	toHot := make(map[dyndbscan.PointID]dyndbscan.PointID, len(refIDs))
	for i, id := range refIDs {
		toHot[id] = acked[i]
	}
	want, err := ref.GroupAll()
	if err != nil {
		t.Fatalf("ref GroupAll: %v", err)
	}
	for _, g := range want.Groups {
		for i := range g {
			g[i] = toHot[g[i]]
		}
	}
	for i := range want.Noise {
		want.Noise[i] = toHot[want.Noise[i]]
	}
	want.Normalize()
	got, err := e.GroupAll()
	if err != nil {
		t.Fatalf("hot GroupAll: %v", err)
	}
	if !reflect.DeepEqual(got.Groups, want.Groups) || !reflect.DeepEqual(got.Noise, want.Noise) {
		t.Fatalf("clustering diverges from the reference:\nhot: %d groups %d noise\nref: %d groups %d noise",
			len(got.Groups), len(got.Noise), len(want.Groups), len(want.Noise))
	}

	before := e.Snapshot()
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	re, err := dyndbscan.Open(dir, dyndbscan.WithHotspot(pol))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer re.Close()
	after := re.Snapshot()
	if !reflect.DeepEqual(before.Clusters, after.Clusters) || !reflect.DeepEqual(before.Noise, after.Noise) {
		t.Fatal("recovered snapshot differs from the one before Close")
	}
}

// TestHotspotCheckpointCoversStaged drives staged inserts into an engine,
// checkpoints while writers keep staging, and requires the checkpoint's world
// to be complete: everything staged before the checkpoint folds first (the
// barrier join), nothing stages under its sequence horizon (the staging
// pause), and the reopened engine — which restores the checkpoint, then
// replays the tail — serves every acked handle. Run with -race.
func TestHotspotCheckpointCoversStaged(t *testing.T) {
	dir, err := os.MkdirTemp("", "dyndbscan-hot-ckpt-")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	e := newHotEngine(t, hairTrigger(), dyndbscan.WithWAL(dir, dyndbscan.SyncAlways()))

	if _, err := e.InsertBatch(hotPoints(32, 0)); err != nil {
		t.Fatalf("warm InsertBatch: %v", err)
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		acked []dyndbscan.PointID
	)
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id, err := e.Insert(dyndbscan.Point{float64((w + i) % 7), float64(30 + i%20)})
				if err != nil {
					t.Errorf("writer %d: Insert: %v", w, err)
					return
				}
				mu.Lock()
				acked = append(acked, id)
				mu.Unlock()
			}
		}(w)
	}
	for i := 0; i < 8; i++ {
		if err := e.Checkpoint(); err != nil {
			t.Fatalf("Checkpoint %d racing staging writers: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	re, err := dyndbscan.Open(dir, dyndbscan.WithHotspot(hairTrigger()))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer re.Close()
	for _, id := range acked {
		if !re.Has(id) {
			t.Fatalf("acked insert %d missing after checkpointed recovery (%d acked)", id, len(acked))
		}
	}
}

// TestHotspotStatsSurface checks the stats report the full lifecycle.
func TestHotspotStatsSurface(t *testing.T) {
	pol := hairTrigger()
	pol.ReconcileOps = 8
	e := newHotEngine(t, pol)
	defer e.Close()
	for round := 0; round < 30; round++ {
		if _, err := e.InsertBatch(hotPoints(10, 0)); err != nil {
			t.Fatalf("InsertBatch: %v", err)
		}
	}
	e.Sync()
	st := e.HotspotStats()
	if !st.Enabled {
		t.Fatal("stats disabled on a hotspot engine")
	}
	if st.Reconciles == 0 || st.ReconciledOps == 0 {
		t.Fatalf("no reconcile recorded: %+v", st)
	}
	if st.MeanReconcile <= 0 {
		t.Fatalf("MeanReconcile not measured: %+v", st)
	}
	total := uint64(0)
	for _, v := range st.Joins {
		total += v
	}
	if total == 0 {
		t.Fatalf("no join recorded: %+v", st)
	}
	if fmt.Sprint(st.Joins) == "" { // the map must be a copy, not internal state
		t.Fatal("unreachable")
	}
}
