package dyndbscan

// Crash-recovery tests: a child process (this test binary re-executing
// itself) drives the public API against a WAL until the parent SIGKILLs it
// mid-stream. The parent then recovers with Open and checks the result is
// exactly the engine you get by feeding the durable log prefix to a fresh
// in-memory engine — same clustering, same stable ids, and the next minted
// handle agrees. Kill -9 leaves no chance for deferred cleanup: whatever
// recovery sees is what a real crash leaves behind, torn tail included.

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"strconv"
	"testing"
	"time"

	"dyndbscan/internal/wal"
)

const (
	helperEnvFlag    = "DYNDBSCAN_WAL_HELPER"
	helperEnvDir     = "DYNDBSCAN_WAL_DIR"
	helperEnvAlgo    = "DYNDBSCAN_WAL_ALGO"
	helperEnvShards  = "DYNDBSCAN_WAL_SHARDS"
	helperEnvHotspot = "DYNDBSCAN_WAL_HOTSPOT"
	helperEnvChain   = "DYNDBSCAN_WAL_CHAIN"
)

// chainCheckpointEvery / chainCompactEvery are the chain-mode child's cadence:
// a checkpoint every 25 records and a compaction horizon the test never
// reaches, so from record 50 on the kill always lands on a live base+delta
// chain and recovery must compose it. chainScriptSteps is sized so the child
// cannot finish before the parent kills it.
const (
	chainCheckpointEvery = 25
	chainCompactEvery    = 64
	chainScriptSteps     = 40000
)

// genChainScript builds the chain-mode crash workload: spatially bounded
// churn. genScript's Gaussian blobs defeat delta checkpoints by construction —
// every capture window dirties cells in the blob cores, so the patch radius
// sweeps most of the live set into the patch and the capture falls back to a
// full base. Here the inserts grow small 5-point clusters marching along a
// coarse grid (every group ≥ 40 units from every other, beyond any patch
// radius at eps 6), so a window's patch stays proportional to the window's
// ops and the checkpoints really are deltas.
func genChainScript(rng *rand.Rand, steps int) []scriptStep {
	var script []scriptStep
	inserted := 0
	live := []int{}
	for s := 0; s < steps; s++ {
		var st scriptStep
		// Deletes first, from earlier steps only (Apply's contract), drawn
		// from the still-live insertions.
		if len(live) > 4 && rng.Intn(4) == 0 {
			k := rng.Intn(len(live))
			st.deletes = append(st.deletes, live[k])
			live = append(live[:k], live[k+1:]...)
		}
		nIns := 1 + rng.Intn(3)
		for i := 0; i < nIns; i++ {
			k := inserted
			g := k / 5
			st.inserts = append(st.inserts, Point{
				float64(g%350)*40 + float64(k%5)*2,
				float64(g/350)*40 + float64(k%5)*2,
			})
			live = append(live, k)
			inserted++
		}
		script = append(script, st)
	}
	return script
}

// crashHotspotPolicy is the child's split-phase tuning: staging engages after
// a handful of commits (hair-trigger threshold, detection on every commit)
// and never reconciles on its own (huge ReconcileOps, no join triggers in the
// insert-only workload) — so from shortly after startup until the kill, the
// child provably has unreconciled staged inserts whose only durability is
// their staged-delta WAL records.
func crashHotspotPolicy() HotspotPolicy {
	return HotspotPolicy{
		ScoreThreshold: 2,
		WaitWeight:     4,
		CheckEvery:     1,
		ReconcileOps:   1 << 20,
	}
}

// helperOpts builds the engine options the crash-test child runs with; the
// parent mirrors them (minus the WAL) for its reference engine. Chain mode
// checkpoints aggressively instead of never: the log trims behind the chain,
// so the parent cannot rebuild its reference from record 1 and must instead
// trust recovery's base+delta compose (checked against a script replay).
func helperOpts(algoIdx, shards int, hotspot, chain bool, dir string) []Option {
	opts := []Option{
		WithEps(6), WithMinPts(3),
		WithAlgorithm(walAlgos[algoIdx].algo),
	}
	if shards > 1 {
		opts = append(opts, WithShards(shards), WithShardStripe(4))
	}
	if hotspot {
		opts = append(opts, WithHotspot(crashHotspotPolicy()))
	}
	if dir != "" {
		opts = append(opts,
			WithWAL(dir, SyncEvery(100*time.Microsecond)),
			WithWALSegmentBytes(8192))
		if chain {
			opts = append(opts,
				WithWALCheckpointEvery(chainCheckpointEvery),
				WithWALCompactEvery(chainCompactEvery))
		} else {
			// No checkpoints: the log must hold the full history so the
			// parent can rebuild the reference from record 1.
			opts = append(opts, WithWALCheckpointEvery(0))
		}
	}
	return opts
}

// TestHelperWALWriter is not a test: it is the crash-test child process. It
// only runs when re-executed by TestKill9Recovery with the helper
// environment set, and it never finishes on its own timetable — the parent
// SIGKILLs it mid-stream.
func TestHelperWALWriter(t *testing.T) {
	if os.Getenv(helperEnvFlag) != "1" {
		t.Skip("crash-test child; only runs re-executed")
	}
	dir := os.Getenv(helperEnvDir)
	algoIdx, _ := strconv.Atoi(os.Getenv(helperEnvAlgo))
	shards, _ := strconv.Atoi(os.Getenv(helperEnvShards))
	hotspot := os.Getenv(helperEnvHotspot) == "1"
	chain := os.Getenv(helperEnvChain) == "1"
	e, err := New(helperOpts(algoIdx, shards, hotspot, chain, dir)...)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if hotspot {
		// Insert-only traffic concentrated in one stripe (x within the first
		// four eps-6 cells): the stripe crosses the hair-trigger threshold
		// within a few commits, and every insert after that diverts into
		// split-phase staging. No deletes, queries, or Syncs means no join
		// trigger ever folds them — the child stays mid-split-phase until
		// the parent kills it.
		rng := rand.New(rand.NewSource(99))
		for {
			if _, err := e.Insert(Point{rng.Float64() * 23, rng.Float64() * 23}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if chain {
		playScript(t, e, genChainScript(rand.New(rand.NewSource(99)), chainScriptSteps))
		return
	}
	withDeletes := walAlgos[algoIdx].dels
	script := genScript(rand.New(rand.NewSource(99)), 4000, withDeletes)
	playScript(t, e, script)
}

func TestKill9Recovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills child processes")
	}
	for ai := range walAlgos {
		for _, shards := range []int{1, 3} {
			ai, shards := ai, shards
			name := fmt.Sprintf("%s/shards=%d", walAlgos[ai].name, shards)
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				runKill9(t, ai, shards, false)
			})
		}
	}
	// The split-phase entry: a WithHotspot engine killed while staging is
	// provably active — acked inserts whose only durability is their
	// staged-delta records, the fold still pending.
	t.Run("Hotspot/shards=3", func(t *testing.T) {
		t.Parallel()
		runKill9(t, 0, 3, true) // FullyDynamic
	})
	// The checkpoint-chain entries: a child that checkpoints every 25 records
	// (base + riding deltas) is killed mid-stream, so recovery must compose a
	// base+delta chain and replay only the suffix — the log behind the chain
	// has been trimmed and cannot vouch for anything.
	for _, shards := range []int{1, 3} {
		shards := shards
		t.Run(fmt.Sprintf("Chain/%s/shards=%d", walAlgos[0].name, shards), func(t *testing.T) {
			t.Parallel()
			runKill9Chain(t, 0, shards) // FullyDynamic: deletes churn the chain
		})
	}
}

func runKill9(t *testing.T, algoIdx, shards int, hotspot bool) {
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestHelperWALWriter$")
	cmd.Env = append(os.Environ(),
		helperEnvFlag+"=1",
		helperEnvDir+"="+dir,
		helperEnvAlgo+"="+strconv.Itoa(algoIdx),
		helperEnvShards+"="+strconv.Itoa(shards),
	)
	if hotspot {
		cmd.Env = append(cmd.Env, helperEnvHotspot+"=1")
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Let the child make real progress, then kill it without warning.
	deadline := time.Now().Add(60 * time.Second)
	for {
		if head, err := wal.HeadSeq(dir); err == nil && head >= 300 {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatal("child never reached 300 WAL records")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait() // expected to report the kill; the log is all that matters

	// Reference: a fresh in-memory engine fed the durable prefix the log
	// actually holds. The reader stops at the first incomplete frame — the
	// same boundary recovery truncates at.
	ref, err := New(helperOpts(algoIdx, shards, false, false, "")...)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	rd, err := wal.OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	records, stagedRecs, lastStaged := 0, 0, false
	for {
		_, wops, err := rd.Next()
		if errors.Is(err, wal.ErrCaughtUp) {
			break
		}
		if err != nil {
			t.Fatalf("reading durable prefix after record %d: %v", records, err)
		}
		lastStaged = false
		for i := range wops {
			if wops[i].Kind == wal.OpStagedInsert {
				stagedRecs++
				lastStaged = true
			}
		}
		if err := ref.applyWALRecord(wops); err != nil {
			t.Fatalf("reference apply of record %d: %v", records+1, err)
		}
		records++
	}
	rd.Close()
	if records < 300 {
		t.Fatalf("durable prefix holds only %d records", records)
	}
	if hotspot {
		// Staging must be provably active at kill time: a large share of the
		// prefix consists of staged-delta records, and the newest durable
		// record is one — its fold had not happened when the process died, so
		// recovering its insert exercises exactly the acked-before-folded
		// window the staged-delta records exist to close.
		if stagedRecs < 100 {
			t.Fatalf("only %d of %d durable records are staged deltas; split phase never engaged", stagedRecs, records)
		}
		if !lastStaged {
			t.Fatalf("newest durable record is not a staged delta (%d staged of %d); the kill missed the staging window", stagedRecs, records)
		}
	}

	// Recovery: reopen the crashed directory, with the same hotspot runtime
	// options the writer ran with.
	var reopenOpts []Option
	if hotspot {
		reopenOpts = append(reopenOpts, WithHotspot(crashHotspotPolicy()))
	}
	rec, err := Open(dir, reopenOpts...)
	if err != nil {
		t.Fatalf("recovering after kill -9: %v", err)
	}
	defer rec.Close()
	st := rec.WALStats()
	if st.Replayed != records {
		t.Fatalf("recovery replayed %d records, durable prefix has %d", st.Replayed, records)
	}
	requireSameClustering(t, ref.Snapshot(), rec.Snapshot(), "recovered vs reference")

	// Handles keep minting from the same place: the same insert gets the
	// same id on both, and clusterings stay in lockstep.
	probe := Point{0.25, 0.25}
	wantID, err := ref.Insert(probe)
	if err != nil {
		t.Fatal(err)
	}
	gotID, err := rec.Insert(probe)
	if err != nil {
		t.Fatal(err)
	}
	if gotID != wantID {
		t.Fatalf("post-recovery insert minted handle %d, reference minted %d", gotID, wantID)
	}
	requireSameClustering(t, ref.Snapshot(), rec.Snapshot(), "after post-recovery insert")
}

// runKill9Chain kills a checkpointing child and checks recovery through the
// base+delta chain. The child logs exactly one record per script step (no
// rebalancing, no hotspot, explicit stripe width — nothing mints placement
// records), so the recovered LastSeq names the script prefix that became
// durable, and the reference is a fresh in-memory engine replaying exactly
// that prefix. Unlike runKill9 the parent cannot read the whole log back —
// checkpoints trim the segments behind the chain — which is the point: the
// composed chain itself must vouch for the trimmed history.
func runKill9Chain(t *testing.T, algoIdx, shards int) {
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestHelperWALWriter$")
	cmd.Env = append(os.Environ(),
		helperEnvFlag+"=1",
		helperEnvDir+"="+dir,
		helperEnvAlgo+"="+strconv.Itoa(algoIdx),
		helperEnvShards+"="+strconv.Itoa(shards),
		helperEnvChain+"=1",
	)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Kill only once the chain scenario is real: enough records that several
	// checkpoints have happened, and a live chain that carries ≥ 1 delta.
	// (The compaction horizon is far beyond the kill point, so once a delta
	// exists the chain keeps its base — the shape cannot fold away between
	// this observation and the kill.)
	deadline := time.Now().Add(60 * time.Second)
	for {
		head, err := wal.HeadSeq(dir)
		if err == nil && head >= 300 {
			if rd, err := wal.OpenReader(dir); err == nil {
				cs := rd.Chain()
				rd.Close()
				if cs.Deltas >= 1 {
					break
				}
			}
			// A reader error here is a cleanup race with the live writer
			// (checkpoint files come and go); just poll again.
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatal("child never built a base+delta checkpoint chain past 300 records")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait() // expected to report the kill; the directory is all that matters

	rec, err := Open(dir)
	if err != nil {
		t.Fatalf("recovering chain after kill -9: %v", err)
	}
	defer rec.Close()
	st := rec.WALStats()
	if st.ChainBaseSeq == 0 {
		t.Fatal("recovery reports no checkpoint chain; the chain scenario was lost")
	}
	if st.ChainDeltas < 1 {
		t.Fatalf("recovered chain has no deltas (base seq %d); compose was never exercised", st.ChainBaseSeq)
	}
	// The chain must have carried the bulk of the history: replay covers at
	// most a couple of checkpoint cadences (one boundary can slip when a
	// capture races the kill), never the whole log.
	if st.Replayed > 2*chainCheckpointEvery {
		t.Fatalf("recovery replayed %d records over a chain tip at %d; the chain did not carry its history", st.Replayed, st.CheckpointSeq)
	}
	steps := int(st.LastSeq)
	if steps < 300 {
		t.Fatalf("durable history holds only %d records", steps)
	}

	// Reference: replay the exact script prefix the log made durable.
	script := genChainScript(rand.New(rand.NewSource(99)), chainScriptSteps)
	if steps > len(script) {
		t.Fatalf("durable history %d outruns the %d-step script", steps, len(script))
	}
	ref, err := New(helperOpts(algoIdx, shards, false, false, "")...)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	playScript(t, ref, script[:steps])
	requireSameClustering(t, ref.Snapshot(), rec.Snapshot(), "chain-recovered vs script replay")

	// Handles keep minting from the same place through the composed chain.
	probe := Point{0.25, 0.25}
	wantID, err := ref.Insert(probe)
	if err != nil {
		t.Fatal(err)
	}
	gotID, err := rec.Insert(probe)
	if err != nil {
		t.Fatal(err)
	}
	if gotID != wantID {
		t.Fatalf("post-recovery insert minted handle %d, reference minted %d", gotID, wantID)
	}
	requireSameClustering(t, ref.Snapshot(), rec.Snapshot(), "after post-recovery insert")
}
