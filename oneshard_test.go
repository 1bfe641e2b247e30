package dyndbscan_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dyndbscan"
	"dyndbscan/internal/wal"
)

// checkInertPlacement asserts the documented placement surface of a one-shard
// engine: no stripe width and no load accounts.
func checkInertPlacement(t *testing.T, e *dyndbscan.Engine, stage string) {
	t.Helper()
	if n := e.Shards(); n != 1 {
		t.Fatalf("%s: Shards() = %d, want 1", stage, n)
	}
	if w := e.StripeCells(); w != 0 {
		t.Fatalf("%s: StripeCells() = %d, want 0", stage, w)
	}
	if l := e.ShardLoads(); l != nil {
		t.Fatalf("%s: ShardLoads() = %v, want nil", stage, l)
	}
}

// TestOneShardLogHasNoPlacementRecords drives a default (one-shard) WAL
// engine through the workload shape of TestAdaptiveWidthRederivation — a
// compact first batch (about 19 cells wide, so a first-batch width decision
// would pick the narrowest stripe), then singles wandering far along
// dimension 0, which re-derives a multi-shard engine's stripe width. With
// one shard placement is inert: the log holds exactly one data record per
// commit and no placement record, and replaying it reproduces the engine.
func TestOneShardLogHasNoPlacementRecords(t *testing.T) {
	dir := t.TempDir()
	e, err := dyndbscan.New(
		dyndbscan.WithEps(30), dyndbscan.WithMinPts(4), dyndbscan.WithRho(0),
		dyndbscan.WithWAL(dir, dyndbscan.SyncAlways()),
		dyndbscan.WithWALCheckpointEvery(0), // reopen replays every record
	)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	pts := make([]dyndbscan.Point, 400)
	for i := range pts {
		pts[i] = dyndbscan.Point{rng.Float64() * 400, rng.Float64() * 200}
	}
	if _, err := e.InsertBatch(pts); err != nil {
		t.Fatal(err)
	}
	commits := 1
	checkInertPlacement(t, e, "after the first batch")
	for i := 0; i < 80; i++ {
		if _, err := e.Insert(dyndbscan.Point{400 + float64(i+1)*1900, 100}); err != nil {
			t.Fatal(err)
		}
		commits++
	}
	checkInertPlacement(t, e, "after wandering")
	want := e.Snapshot()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := wal.OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	records := 0
	for {
		_, ops, err := r.Next()
		if errors.Is(err, wal.ErrCaughtUp) {
			break
		}
		if err != nil {
			t.Fatalf("scanning the log: %v", err)
		}
		records++
		for _, op := range ops {
			if op.Kind != wal.OpInsert {
				t.Fatalf("record %d holds an op of kind %d; a one-shard log holds only data ops with minted handles", records, op.Kind)
			}
		}
	}
	r.Close()
	if records != commits {
		t.Fatalf("log holds %d records for %d commits", records, commits)
	}

	re, err := dyndbscan.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	checkInertPlacement(t, re, "after replay")
	got := re.Snapshot()
	if !reflect.DeepEqual(want.Clusters, got.Clusters) || !reflect.DeepEqual(want.Noise, got.Noise) {
		t.Fatalf("replay changed the clustering:\nbefore: %v noise %v\nafter:  %v noise %v",
			want.Clusters, want.Noise, got.Clusters, got.Noise)
	}
}

// TestLiveReadsBuildNoSnapshot checks that after a commit a one-point
// ClusterOf, a GroupBy and a GroupAll are answered live — no snapshot is
// built or published — at one and at four shards, that the answers are the
// ones the snapshot built afterwards gives, and that once that snapshot is
// current a point read is served from it without allocating.
func TestLiveReadsBuildNoSnapshot(t *testing.T) {
	algos := []dyndbscan.Algorithm{dyndbscan.AlgoFullyDynamic, dyndbscan.AlgoSemiDynamic, dyndbscan.AlgoIncDBSCAN}
	for _, algo := range algos {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%v/shards=%d", algo, shards), func(t *testing.T) {
				e, err := dyndbscan.New(dyndbscan.WithAlgorithm(algo),
					dyndbscan.WithEps(25), dyndbscan.WithMinPts(4), dyndbscan.WithRho(0),
					dyndbscan.WithShards(shards))
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				ops := genEqOps(3, 1200, false)
				pts := make([]dyndbscan.Point, len(ops))
				for i, op := range ops {
					pts[i] = dyndbscan.Point{op.X, op.Y}
				}
				ids, err := e.InsertBatch(pts)
				if err != nil {
					t.Fatal(err)
				}
				stale := e.Snapshot()
				id, err := e.Insert(pts[0])
				if err != nil {
					t.Fatal(err)
				}
				if stale.Version == e.Version() {
					t.Fatal("the commit did not advance the version")
				}
				q := append(ids[:200:200], id)

				cids, ok := e.ClusterOf(id)
				if !ok {
					t.Fatalf("ClusterOf(%d): not live", id)
				}
				res, err := e.GroupBy(q)
				if err != nil {
					t.Fatal(err)
				}
				all, err := e.GroupAll()
				if err != nil {
					t.Fatal(err)
				}
				if e.PublishedSnapshot() != stale {
					t.Fatal("a live read built and published a snapshot")
				}

				s := e.Snapshot()
				if s == stale || s.Version != e.Version() {
					t.Fatal("Snapshot did not build the current epoch")
				}
				if w, _ := s.ClusterOf(id); !reflect.DeepEqual(cids, w) {
					t.Fatalf("live ClusterOf = %v, snapshot %v", cids, w)
				}
				if w, _ := s.GroupBy(q); !reflect.DeepEqual(res, w) {
					t.Fatalf("live GroupBy = %v, snapshot %v", res, w)
				}
				if w := s.GroupAll(); !reflect.DeepEqual(all, w) {
					t.Fatalf("live GroupAll = %v, snapshot %v", all, w)
				}
				// With the snapshot current, a point read is served from it
				// without allocating.
				if n := testing.AllocsPerRun(100, func() { e.ClusterOf(id) }); n != 0 {
					t.Fatalf("cached-snapshot ClusterOf allocates %v times per call", n)
				}
			})
		}
	}
}
