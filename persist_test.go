package dyndbscan

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"dyndbscan/internal/wal"
)

// Durability tests: WAL replay, checkpoint restore, Open validation, and the
// Close contract. The crash (kill -9) path has its own harness in
// crash_test.go; here the shutdowns are clean.

// scriptStep is one abstract update of a deterministic workload: a batch of
// insertions plus a batch of deletions referencing earlier insertions by
// ordinal, so the same script drives any engine and the minted handles can be
// compared across engines.
type scriptStep struct {
	inserts []Point
	deletes []int // ordinals into the stream of successful insertions
}

// genScript builds a randomized clustered workload: n steps of mixed batches
// over a few Gaussian blobs, deletes drawn from the still-live insertions.
func genScript(rng *rand.Rand, steps int, withDeletes bool) []scriptStep {
	centers := [][2]float64{{0, 0}, {60, 10}, {-40, 50}}
	var script []scriptStep
	inserted := 0
	live := []int{}
	for s := 0; s < steps; s++ {
		var st scriptStep
		// Deletes first, drawn from insertions of earlier steps only: Apply
		// cannot delete a point inserted in the same batch.
		if withDeletes && len(live) > 4 && rng.Intn(2) == 0 {
			nDel := 1 + rng.Intn(3)
			for i := 0; i < nDel && len(live) > 0; i++ {
				k := rng.Intn(len(live))
				st.deletes = append(st.deletes, live[k])
				live = append(live[:k], live[k+1:]...)
			}
		}
		nIns := 1 + rng.Intn(8)
		for i := 0; i < nIns; i++ {
			c := centers[rng.Intn(len(centers))]
			st.inserts = append(st.inserts, Point{
				c[0] + rng.NormFloat64()*4,
				c[1] + rng.NormFloat64()*4,
			})
			live = append(live, inserted)
			inserted++
		}
		script = append(script, st)
	}
	return script
}

// playScript drives an engine through the script via Apply, resolving the
// delete ordinals through the handles the engine actually minted. Returns
// every minted handle in insertion order.
func playScript(t *testing.T, e *Engine, script []scriptStep) []PointID {
	t.Helper()
	var minted []PointID
	for si, st := range script {
		var ops []Op
		for _, pt := range st.inserts {
			ops = append(ops, InsertOp(pt))
		}
		for _, ord := range st.deletes {
			ops = append(ops, DeleteOp(minted[ord]))
		}
		out, err := e.Apply(ops)
		if err != nil {
			t.Fatalf("step %d: Apply: %v", si, err)
		}
		minted = append(minted, out[:len(st.inserts)]...)
	}
	return minted
}

// requireSameClustering asserts two snapshots agree on everything except the
// engine epoch (Version legitimately diverges across recovery).
func requireSameClustering(t *testing.T, want, got *Snapshot, what string) {
	t.Helper()
	if !reflect.DeepEqual(want.Clusters, got.Clusters) {
		t.Fatalf("%s: cluster maps diverge:\nwant %v\n got %v", what, want.Clusters, got.Clusters)
	}
	if !reflect.DeepEqual(want.Noise, got.Noise) {
		t.Fatalf("%s: noise diverges:\nwant %v\n got %v", what, want.Noise, got.Noise)
	}
}

var walAlgos = []struct {
	name string
	algo Algorithm
	dels bool
}{
	{"FullyDynamic", AlgoFullyDynamic, true},
	{"SemiDynamic", AlgoSemiDynamic, false},
	{"IncDBSCAN", AlgoIncDBSCAN, true},
}

// TestWALReplayRestoresState: a clean Close and Open must reproduce the
// exact clustering — same handles, same stable ClusterIDs — for every
// algorithm, single-backend and sharded, with no checkpoint involved (pure
// replay).
func TestWALReplayRestoresState(t *testing.T) {
	for _, tc := range walAlgos {
		for _, shards := range []int{1, 3} {
			tc, shards := tc, shards
			name := tc.name + "/single"
			if shards > 1 {
				name = tc.name + "/sharded"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				dir := t.TempDir()
				opts := []Option{
					WithAlgorithm(tc.algo), WithEps(6), WithMinPts(3),
					WithWAL(dir, SyncEvery(time.Millisecond)),
					WithWALCheckpointEvery(0), // force full replay
				}
				if shards > 1 {
					opts = append(opts, WithShards(shards), WithShardStripe(4))
				}
				e, err := New(opts...)
				if err != nil {
					t.Fatal(err)
				}
				script := genScript(rand.New(rand.NewSource(7)), 40, tc.dels)
				minted := playScript(t, e, script)
				want := e.Snapshot()
				if err := e.Close(); err != nil {
					t.Fatalf("Close: %v", err)
				}

				re, err := Open(dir)
				if err != nil {
					t.Fatalf("Open: %v", err)
				}
				defer re.Close()
				if re.Algorithm() != tc.algo || re.Shards() != shards {
					t.Fatalf("recovered shape %v/%d, want %v/%d", re.Algorithm(), re.Shards(), tc.algo, shards)
				}
				requireSameClustering(t, want, re.Snapshot(), "after replay")
				st := re.WALStats()
				if !st.Enabled || st.Replayed == 0 {
					t.Fatalf("stats after recovery: %+v", st)
				}

				// The recovered engine stays live: fresh handles continue the
				// original sequence (no collision with any pre-crash handle).
				id, err := re.Insert(Point{1000, 1000})
				if err != nil {
					t.Fatal(err)
				}
				for _, old := range minted {
					if id == old {
						t.Fatalf("recovered engine re-minted handle %d", id)
					}
				}
			})
		}
	}
}

// TestCheckpointRestore: with aggressive checkpointing and Rho = 0 (so the
// rebuild is exact), restart must reproduce the clustering while replaying
// only the records after the newest checkpoint.
func TestCheckpointRestore(t *testing.T) {
	for _, tc := range walAlgos {
		for _, shards := range []int{1, 3} {
			tc, shards := tc, shards
			name := tc.name + "/single"
			if shards > 1 {
				name = tc.name + "/sharded"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				dir := t.TempDir()
				opts := []Option{
					WithAlgorithm(tc.algo), WithEps(6), WithMinPts(3), WithRho(0),
					WithWAL(dir, SyncEvery(time.Millisecond)),
					WithWALCheckpointEvery(5),
				}
				if shards > 1 {
					opts = append(opts, WithShards(shards), WithShardStripe(4))
				}
				e, err := New(opts...)
				if err != nil {
					t.Fatal(err)
				}
				script := genScript(rand.New(rand.NewSource(11)), 60, tc.dels)
				playScript(t, e, script)
				want := e.Snapshot()
				st := e.WALStats()
				if st.Checkpoints == 0 || st.CheckpointSeq == 0 {
					t.Fatalf("no checkpoint was written: %+v", st)
				}
				if err := e.Close(); err != nil {
					t.Fatal(err)
				}

				re, err := Open(dir)
				if err != nil {
					t.Fatalf("Open: %v", err)
				}
				defer re.Close()
				requireSameClustering(t, want, re.Snapshot(), "after checkpointed recovery")
				rst := re.WALStats()
				if rst.Replayed >= 60 {
					t.Fatalf("checkpoint did not bound replay: replayed %d records", rst.Replayed)
				}

				// Updates after recovery keep working and keep the grafted
				// identities consistent between live reads and snapshots.
				id, err := re.Insert(Point{0, 0.5})
				if err != nil {
					t.Fatal(err)
				}
				liveCIDs, ok := re.ClusterOf(id)
				if !ok {
					t.Fatal("fresh insert not live")
				}
				snapCIDs, _ := re.Snapshot().ClusterOf(id)
				if !reflect.DeepEqual(liveCIDs, snapCIDs) {
					t.Fatalf("live/snapshot cluster ids diverge after restore: %v vs %v", liveCIDs, snapCIDs)
				}
			})
		}
	}
}

// TestExplicitCheckpointTrimsLog: Checkpoint lets the log drop the segments
// behind it, and recovery from a checkpoint alone (no tail records) works.
func TestExplicitCheckpointTrimsLog(t *testing.T) {
	dir := t.TempDir()
	e, err := New(WithEps(6), WithMinPts(3), WithRho(0),
		WithWAL(dir, SyncAlways()),
		WithWALSegmentBytes(256), // rotate eagerly so there are segments to trim
		WithWALCheckpointEvery(0))
	if err != nil {
		t.Fatal(err)
	}
	playScript(t, e, genScript(rand.New(rand.NewSource(3)), 30, true))
	before := e.WALStats()
	if before.Segments < 2 {
		t.Fatalf("expected several segments before the checkpoint, got %d", before.Segments)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	after := e.WALStats()
	if after.CheckpointSeq != after.LastSeq {
		t.Fatalf("checkpoint seq %d != last seq %d", after.CheckpointSeq, after.LastSeq)
	}
	if after.Segments >= before.Segments {
		t.Fatalf("checkpoint trimmed nothing: %d -> %d segments", before.Segments, after.Segments)
	}
	want := e.Snapshot()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.WALStats().Replayed != 0 {
		t.Fatalf("nothing should replay past a tail checkpoint, replayed %d", re.WALStats().Replayed)
	}
	requireSameClustering(t, want, re.Snapshot(), "checkpoint-only recovery")
}

// TestCheckpointNoWAL: Checkpoint without WithWAL reports ErrNoWAL, and
// WALStats is zero.
func TestCheckpointNoWAL(t *testing.T) {
	e, err := New(WithEps(6), WithMinPts(3))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.Checkpoint(); !errors.Is(err, ErrNoWAL) {
		t.Fatalf("Checkpoint without WAL: %v", err)
	}
	if st := e.WALStats(); st.Enabled {
		t.Fatalf("WALStats without WAL: %+v", st)
	}
}

// TestOpenValidation: the Open/New option surface rejects misuse with
// specific errors.
func TestOpenValidation(t *testing.T) {
	if _, err := Open(t.TempDir()); !errors.Is(err, wal.ErrNoLog) {
		t.Fatalf("Open of an empty dir: %v", err)
	}
	if _, err := New(WithEps(6), WithMinPts(3), WithWALCheckpointEvery(2)); err == nil {
		t.Fatal("WAL tuning without WithWAL must fail New")
	}
	if _, err := New(WithEps(6), WithMinPts(3), WithWAL("", SyncAlways())); err == nil {
		t.Fatal("empty WAL dir must fail New")
	}

	dir := t.TempDir()
	e, err := New(WithEps(6), WithMinPts(3), WithWAL(dir, SyncAlways()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Insert(Point{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// Constructing over an existing log is refused (recover with Open).
	if _, err := New(WithEps(6), WithMinPts(3), WithWAL(dir, SyncAlways())); !errors.Is(err, wal.ErrExists) {
		t.Fatalf("New over an existing log: %v", err)
	}
	// Shape options conflict with the log's meta record.
	if _, err := Open(dir, WithEps(9)); err == nil {
		t.Fatal("Open with a shape option must fail")
	}
	if _, err := Open(dir, WithShards(4)); err == nil {
		t.Fatal("Open with a topology option must fail")
	}
	if _, err := Open(dir, WithWAL(t.TempDir(), SyncAlways())); err == nil {
		t.Fatal("Open combined with WithWAL must fail")
	}
	// Runtime options are fine.
	re, err := Open(dir, WithWorkers(2), WithWALSync(SyncAlways()), WithWALCheckpointEvery(100))
	if err != nil {
		t.Fatalf("Open with runtime options: %v", err)
	}
	if re.Len() != 1 {
		t.Fatalf("recovered %d points, want 1", re.Len())
	}
	re.Close()
}

// TestOpenRefusesRetiredAlgorithm: a log whose meta record names the
// removed IncDBSCANRTree algorithm (byte 3) is refused with an error that
// names the replacement, instead of being recovered under a different
// range index.
func TestOpenRefusesRetiredAlgorithm(t *testing.T) {
	e, err := New(WithAlgorithm(AlgoIncDBSCAN), WithEps(6), WithMinPts(3))
	if err != nil {
		t.Fatal(err)
	}
	meta := encodeEngineMeta(e, newSettings())
	meta[1] = 3
	check := func(what string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s accepted a meta record naming algorithm 3", what)
		}
		if msg := err.Error(); !strings.Contains(msg, "IncDBSCANRTree") || !strings.Contains(msg, "removed") || !strings.Contains(msg, "AlgoIncDBSCAN") {
			t.Fatalf("%s: error %q does not say IncDBSCANRTree was removed and name AlgoIncDBSCAN", what, msg)
		}
	}
	_, err = decodeEngineMeta(meta)
	check("decodeEngineMeta", err)

	dir := t.TempDir()
	log, err := wal.Open(dir, wal.Options{Meta: meta, MustCreate: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.Append([]wal.Op{{Kind: wal.OpInsert, Coord: []float64{1, 2}}}); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir)
	check("Open", err)
}

// TestDecodersRefuseRetiredSplits: the sharded placement tail still carries
// the split count of the removed stripe-splitting tier, always written as 0.
// A full payload and a sharded delta payload decode with the 0 the engine
// writes, and are refused with errRetiredSplit when the count is non-zero.
func TestDecodersRefuseRetiredSplits(t *testing.T) {
	// withSplit swaps the trailing zero split count for one split entry
	// (stripe 1 in 2 parts), the bytes a splitting engine wrote.
	withSplit := func(b []byte) []byte {
		if b[len(b)-1] != 0 {
			t.Fatalf("payload does not end in a zero split count: % x", b)
		}
		out := append([]byte(nil), b[:len(b)-1]...)
		out = appendUvarint(out, 1)
		out = appendVarint(out, 1)
		return appendUvarint(out, 2)
	}
	assign := map[int64]int32{1: 0, 3: 1}

	full := []byte{ckptVersion, ckptSharded}
	full = encodeCheckpointCommon(full, 2, 3, 0, []PointID{0, 1, 2},
		func(i int) Point { return Point{float64(i), 0} }, nil)
	full = appendPlacement(full, 4, assign)
	if _, err := decodeCheckpoint(full); err != nil {
		t.Fatalf("full payload with no splits: %v", err)
	}
	if _, err := decodeCheckpoint(withSplit(full)); !errors.Is(err, errRetiredSplit) {
		t.Fatalf("full payload with a split: error = %v, want errRetiredSplit", err)
	}

	delta := encodeCkptDelta(&ckptDelta{
		mode: ckptDeltaSharded, dims: 2, nextPt: 3,
		stripeCells: 4, assign: assign,
	})
	if _, err := decodeCkptDelta(delta); err != nil {
		t.Fatalf("delta payload with no splits: %v", err)
	}
	if _, err := decodeCkptDelta(withSplit(delta)); !errors.Is(err, errRetiredSplit) {
		t.Fatalf("delta payload with a split: error = %v, want errRetiredSplit", err)
	}
}

// TestDecodersRefuseWrappedIDs: checkpoint id lists are delta-encoded
// ascending from -1, so a descending or negative id reaches the decoder as a
// delta that wraps the running id past the int64 range. Every id list of the
// full and the delta payload refuses one with errCorruptCkpt.
func TestDecodersRefuseWrappedIDs(t *testing.T) {
	full := func(ids []PointID, clusters map[ClusterID][]PointID) []byte {
		b := []byte{ckptVersion, ckptSharded}
		b = encodeCheckpointCommon(b, 2, 10, 1, ids, func(i int) Point { return Point{float64(i), 0} }, clusters)
		return appendPlacement(b, 4, nil)
	}
	if _, err := decodeCheckpoint(full([]PointID{0, 5}, map[ClusterID][]PointID{0: {0, 5}})); err != nil {
		t.Fatalf("well-formed full payload: %v", err)
	}
	delta := func(dl ckptDelta) []byte {
		dl.mode, dl.dims, dl.nextPt, dl.stripeCells = ckptDeltaSharded, 2, 10, 4
		for range dl.upIDs {
			dl.upCoords = append(dl.upCoords, Point{1, 1})
		}
		for range dl.patchIDs {
			dl.patchGIDs = append(dl.patchGIDs, nil)
		}
		return encodeCkptDelta(&dl)
	}
	if _, err := decodeCkptDelta(delta(ckptDelta{del: []PointID{1, 2}, upIDs: []PointID{3}, patchIDs: []PointID{3, 4}})); err != nil {
		t.Fatalf("well-formed delta payload: %v", err)
	}
	for name, b := range map[string][]byte{
		"full ids descending":      full([]PointID{5, 2}, nil),
		"full ids negative":        full([]PointID{-3}, nil),
		"full members descending":  full([]PointID{0, 5}, map[ClusterID][]PointID{0: {5, 0}}),
		"delta deletes descending": delta(ckptDelta{del: []PointID{4, 1}}),
		"delta upserts negative":   delta(ckptDelta{upIDs: []PointID{-2}}),
		"delta patches descending": delta(ckptDelta{patchIDs: []PointID{7, 3}}),
	} {
		var err error
		if b[1] == ckptSharded {
			_, err = decodeCheckpoint(b)
		} else {
			_, err = decodeCkptDelta(b)
		}
		if !errors.Is(err, errCorruptCkpt) {
			t.Errorf("%s: error = %v, want errCorruptCkpt", name, err)
		}
	}
}

// TestCloseDurability: Close flushes the group-commit tail (an interval so
// long the flusher never runs), is idempotent, and fails later updates.
func TestCloseDurability(t *testing.T) {
	dir := t.TempDir()
	e, err := New(WithEps(6), WithMinPts(3), WithWAL(dir, SyncEvery(time.Hour)))
	if err != nil {
		t.Fatal(err)
	}
	id, err := e.Insert(Point{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := e.Insert(Point{3, 4}); !errors.Is(err, wal.ErrClosed) {
		t.Fatalf("insert after Close: %v", err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !re.Has(id) {
		t.Fatal("the tail insert was lost despite a clean Close")
	}
}

// TestSyncPolicies: SyncAlways makes every commit durable before returning;
// the group-commit flusher catches up on its own.
func TestSyncPolicies(t *testing.T) {
	t.Run("always", func(t *testing.T) {
		e, err := New(WithEps(6), WithMinPts(3), WithWAL(t.TempDir(), SyncAlways()))
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		for i := 0; i < 10; i++ {
			if _, err := e.Insert(Point{float64(i), 0}); err != nil {
				t.Fatal(err)
			}
			if st := e.WALStats(); st.DurableSeq != st.LastSeq {
				t.Fatalf("SyncAlways left seq %d durable at %d", st.LastSeq, st.DurableSeq)
			}
		}
	})
	t.Run("interval", func(t *testing.T) {
		e, err := New(WithEps(6), WithMinPts(3), WithWAL(t.TempDir(), SyncEvery(time.Millisecond)))
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		for i := 0; i < 10; i++ {
			if _, err := e.Insert(Point{float64(i), 0}); err != nil {
				t.Fatal(err)
			}
		}
		deadline := time.Now().Add(5 * time.Second)
		for {
			st := e.WALStats()
			if st.DurableSeq == st.LastSeq {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("flusher never caught up: %+v", st)
			}
			time.Sleep(time.Millisecond)
		}
	})
}

// TestWALEngineMatchesPlainEngine: logging must not change behavior — the
// same script on a WAL engine and a plain engine yields identical handles
// and clusterings.
func TestWALEngineMatchesPlainEngine(t *testing.T) {
	script := genScript(rand.New(rand.NewSource(19)), 50, true)
	plain, err := New(WithEps(6), WithMinPts(3))
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	logged, err := New(WithEps(6), WithMinPts(3), WithWAL(t.TempDir(), SyncAlways()))
	if err != nil {
		t.Fatal(err)
	}
	defer logged.Close()
	mp := playScript(t, plain, script)
	ml := playScript(t, logged, script)
	if !reflect.DeepEqual(mp, ml) {
		t.Fatal("logged engine minted different handles")
	}
	requireSameClustering(t, plain.Snapshot(), logged.Snapshot(), "wal-on vs wal-off")
}

// TestRecoveredEventsUseGraftedIDs: events emitted after a checkpointed
// recovery must carry the grafted global ids, not raw backend ids — a
// subscriber watching across the restart keeps a consistent id space with
// the snapshots it takes.
func TestRecoveredEventsUseGraftedIDs(t *testing.T) {
	dir := t.TempDir()
	e, err := New(WithEps(6), WithMinPts(3), WithRho(0),
		WithWAL(dir, SyncAlways()), WithWALCheckpointEvery(1))
	if err != nil {
		t.Fatal(err)
	}
	// One tight cluster, checkpointed.
	for i := 0; i < 5; i++ {
		if _, err := e.Insert(Point{float64(i) * 0.1, 0}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	var formed []ClusterID
	cancel := re.Subscribe(func(ev Event) {
		if ev.Kind == EventClusterFormed {
			formed = append(formed, ev.Cluster)
		}
	})
	defer cancel()
	// A second cluster far away: its Formed event must mint above every
	// grafted id and agree with what the snapshot reports.
	for i := 0; i < 5; i++ {
		if _, err := re.Insert(Point{500 + float64(i)*0.1, 0}); err != nil {
			t.Fatal(err)
		}
	}
	re.Sync()
	if len(formed) == 0 {
		t.Fatal("no cluster-formed event after recovery")
	}
	snap := re.Snapshot()
	for _, cid := range formed {
		if _, ok := snap.Clusters[cid]; !ok {
			t.Fatalf("event cluster id %d unknown to the snapshot (ids %v)", cid, snap.Clusters)
		}
	}
}

// TestDeltaChainShape pins the checkpoint chain's on-disk evolution: with a
// checkpoint every 2 records and compaction every 3rd capture, the chain
// cycles base → delta → delta → fresh base. The updates between captures are
// isolated singles far from the populated region, so the delta captures never
// hit the patch-size fallback — a fallback would surface as a base where a
// delta is expected. A kill mid-chain recovers by composing base+deltas and
// replaying only the records past the tip.
func TestDeltaChainShape(t *testing.T) {
	dir := t.TempDir()
	e, err := New(WithEps(6), WithMinPts(3), WithRho(0),
		WithWAL(dir, SyncAlways()),
		WithWALCheckpointEvery(2), WithWALCompactEvery(3))
	if err != nil {
		t.Fatal(err)
	}
	// Record 1: a populated world — 40 five-point clusters along the x axis.
	var batch []Op
	for i := 0; i < 200; i++ {
		batch = append(batch, InsertOp(Point{float64(i/5)*40 + float64(i%5)*2, float64(i%5) * 2}))
	}
	if _, err := e.Apply(batch); err != nil {
		t.Fatal(err)
	}
	// Records 2..13: far-apart noise singles. Checkpoints land on the even
	// sequences; compactEvery=3 folds every third capture into a new base.
	type shape struct {
		base   uint64
		deltas int
	}
	want := map[uint64]shape{
		2: {2, 0}, 4: {2, 1}, 6: {2, 2},
		8: {8, 0}, 10: {8, 1}, 12: {8, 2},
	}
	for seq := uint64(2); seq <= 13; seq++ {
		if _, err := e.Apply([]Op{InsertOp(Point{3000 + float64(seq)*100, 500})}); err != nil {
			t.Fatal(err)
		}
		st := e.WALStats()
		if st.LastSeq != seq {
			t.Fatalf("expected one record per Apply: LastSeq %d after record %d", st.LastSeq, seq)
		}
		w, ok := want[seq]
		if !ok {
			continue
		}
		if st.ChainBaseSeq != w.base || st.ChainDeltas != w.deltas {
			t.Fatalf("after record %d: chain base@%d+%d deltas, want base@%d+%d",
				seq, st.ChainBaseSeq, st.ChainDeltas, w.base, w.deltas)
		}
	}

	// Kill with the chain at base@8+2 deltas and one tail record (13): the
	// copy recovers by composing the chain, then replaying just the tail.
	cp := t.TempDir()
	copyFlatDir(t, dir, cp)
	wantSnap := e.Snapshot()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(cp)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	rst := re.WALStats()
	if rst.ChainBaseSeq != 8 || rst.ChainDeltas != 2 {
		t.Fatalf("recovered chain base@%d+%d deltas, want base@8+2", rst.ChainBaseSeq, rst.ChainDeltas)
	}
	if rst.Replayed != 1 {
		t.Fatalf("composing the chain should leave 1 record to replay, replayed %d", rst.Replayed)
	}
	requireSameClustering(t, wantSnap, re.Snapshot(), "mid-chain kill recovery")
}

// TestDeltaCheckpointSpeedup is the tentpole's pause-bound acceptance: with a
// large live set and a small dirty set, a delta capture must run at least an
// order of magnitude faster than a full one, and grow the chain by at most a
// tenth of a base's bytes. Timing is min-of-3 on both sides; the byte ratio
// is the load-independent backstop.
func TestDeltaCheckpointSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test over a 100k-point live set")
	}
	const live = 100_000
	build := func(compactEvery int) *Engine {
		e, err := New(WithEps(6), WithMinPts(3), WithRho(0),
			WithWAL(t.TempDir(), SyncAlways()),
			WithWALCheckpointEvery(0), WithWALCompactEvery(compactEvery))
		if err != nil {
			t.Fatal(err)
		}
		batch := make([]Op, live)
		for i := range batch {
			batch[i] = InsertOp(Point{float64(i%1000) * 100, float64(i/1000) * 100})
		}
		if _, err := e.Apply(batch); err != nil {
			t.Fatal(err)
		}
		if err := e.Checkpoint(); err != nil { // the base every round builds on
			t.Fatal(err)
		}
		return e
	}
	measure := func(e *Engine) time.Duration {
		best := time.Duration(0)
		for round := 0; round < 3; round++ {
			ops := make([]Op, 16)
			for i := range ops {
				ops[i] = InsertOp(Point{float64(i) * 100, -200 - float64(round)*100})
			}
			if _, err := e.Apply(ops); err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			if err := e.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); best == 0 || d < best {
				best = d
			}
		}
		return best
	}

	delta := build(1 << 10) // far from the fold cadence: every capture a delta
	defer delta.Close()
	baseBytes := delta.WALStats().ChainBytes
	deltaMin := measure(delta)
	dst := delta.WALStats()
	if dst.ChainDeltas != 3 {
		t.Fatalf("every capture should have been a delta, chain has %d", dst.ChainDeltas)
	}
	if growth := dst.ChainBytes - baseBytes; growth*10 > baseBytes {
		t.Fatalf("3 deltas grew the chain by %d bytes on a %d-byte base", growth, baseBytes)
	}

	full := build(1) // compaction every capture: always a full base
	defer full.Close()
	fullMin := measure(full)
	if fst := full.WALStats(); fst.ChainDeltas != 0 {
		t.Fatalf("compactEvery=1 must keep every capture full, chain has %d deltas", fst.ChainDeltas)
	}
	if fullMin < 10*deltaMin {
		t.Fatalf("delta checkpoint not ≥10x faster: full %v, delta %v", fullMin, deltaMin)
	}
	t.Logf("full %v, delta %v (%.1fx)", fullMin, deltaMin, float64(fullMin)/float64(deltaMin))
}
