package dyndbscan_test

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"dyndbscan"
)

// shapes are the two engine shapes every update entry point must agree on.
var shapes = []struct {
	name string
	opts []dyndbscan.Option
}{
	{"single", nil},
	{"sharded", []dyndbscan.Option{dyndbscan.WithShards(2)}},
}

// TestRestartKeepsClusterIDs pins cluster identity across a restart: after a
// clean Close and a recovery through Open or OpenReplica, a later merge must
// pick the survivor exactly as an engine that never restarted does. The
// script makes the rebuild mint the two clusters in the opposite order
// (deleting the left blob's oldest point leaves its core complete only
// after the right blob's), so a recovered engine that breaks merge ties by
// its rebuilt ids instead of the ids its clients saw reports the wrong
// survivor.
func TestRestartKeepsClusterIDs(t *testing.T) {
	seed := []dyndbscan.Point{{0, 0}, {0.1, 0}, {0.2, 0}, {10, 0}, {10.1, 0}, {10.2, 0}, {0.3, 0}}
	var bridge []dyndbscan.Point
	for x := 0.8; x < 10; x += 0.5 {
		bridge = append(bridge, dyndbscan.Point{x, 0})
	}
	algos := []dyndbscan.Algorithm{dyndbscan.AlgoFullyDynamic, dyndbscan.AlgoSemiDynamic, dyndbscan.AlgoIncDBSCAN}
	for _, algo := range algos {
		for _, shape := range shapes {
			opts := append([]dyndbscan.Option{
				dyndbscan.WithAlgorithm(algo), dyndbscan.WithEps(1), dyndbscan.WithMinPts(3), dyndbscan.WithRho(0),
			}, shape.opts...)
			// The insertion-only algorithm runs the script without its delete.
			deletes := algo != dyndbscan.AlgoSemiDynamic
			before := func(t *testing.T, e *dyndbscan.Engine) {
				t.Helper()
				ids, err := e.InsertBatch(seed)
				if err != nil {
					t.Fatal(err)
				}
				if deletes {
					if err := e.Delete(ids[0]); err != nil {
						t.Fatal(err)
					}
				}
			}
			after := func(t *testing.T, e *dyndbscan.Engine) {
				t.Helper()
				for _, pt := range bridge {
					if _, err := e.Insert(pt); err != nil {
						t.Fatal(err)
					}
				}
			}
			ref, err := dyndbscan.New(opts...)
			if err != nil {
				t.Fatal(err)
			}
			before(t, ref)
			after(t, ref)
			want := ref.Snapshot().ClusterIDs()
			if len(want) != 1 {
				t.Fatalf("%v/%s: reference engine has clusters %v, want one merged cluster", algo, shape.name, want)
			}

			// written returns a closed log holding the script's first half.
			written := func(t *testing.T) string {
				t.Helper()
				dir := t.TempDir()
				e, err := dyndbscan.New(append(opts, dyndbscan.WithWAL(dir, dyndbscan.SyncAlways()))...)
				if err != nil {
					t.Fatal(err)
				}
				before(t, e)
				if err := e.Close(); err != nil {
					t.Fatal(err)
				}
				return dir
			}
			t.Run(algo.String()+"/"+shape.name+"/Open", func(t *testing.T) {
				re, err := dyndbscan.Open(written(t))
				if err != nil {
					t.Fatal(err)
				}
				defer re.Close()
				// The restore folds through the seam; audit what it left.
				if err := re.SeamAudit(); err != nil {
					t.Fatalf("restored seam: %v", err)
				}
				after(t, re)
				if got := re.Snapshot().ClusterIDs(); !reflect.DeepEqual(got, want) {
					t.Fatalf("recovered engine reports clusters %v, never-restarted engine %v", got, want)
				}
			})
			t.Run(algo.String()+"/"+shape.name+"/OpenReplica", func(t *testing.T) {
				dir := written(t)
				rep, err := dyndbscan.OpenReplica(dir, dyndbscan.WithReplicaPoll(time.Millisecond))
				if err != nil {
					t.Fatal(err)
				}
				defer rep.Close()
				// The bridge reaches the replica through the log, written by a
				// recovered primary.
				w, err := dyndbscan.Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				defer w.Close()
				if err := w.SeamAudit(); err != nil {
					t.Fatalf("restored seam: %v", err)
				}
				after(t, w)
				last := w.WALStats().LastSeq
				deadline := time.Now().Add(10 * time.Second)
				for rep.AppliedSeq() < last {
					if err := rep.Err(); err != nil {
						t.Fatal(err)
					}
					if time.Now().After(deadline) {
						t.Fatalf("replica stuck at seq %d of %d", rep.AppliedSeq(), last)
					}
					time.Sleep(time.Millisecond)
				}
				if got := rep.Snapshot().ClusterIDs(); !reflect.DeepEqual(got, want) {
					t.Fatalf("replica reports clusters %v, never-restarted engine %v", got, want)
				}
			})
		}
	}
}

// TestUpdateErrorParity checks that both engine shapes reject the same
// malformed updates with the same error — same sentinel, same message — and
// without any state change.
func TestUpdateErrorParity(t *testing.T) {
	cases := []struct {
		name string
		algo dyndbscan.Algorithm
		run  func(e *dyndbscan.Engine, ids []dyndbscan.PointID) error
		want error // errors.Is target; nil: only the message is compared
	}{
		{"Insert short point", dyndbscan.AlgoFullyDynamic, func(e *dyndbscan.Engine, _ []dyndbscan.PointID) error {
			_, err := e.Insert(dyndbscan.Point{1})
			return err
		}, dyndbscan.ErrBadPoint},
		{"InsertBatch short point", dyndbscan.AlgoFullyDynamic, func(e *dyndbscan.Engine, _ []dyndbscan.PointID) error {
			_, err := e.InsertBatch([]dyndbscan.Point{{5, 5}, {1}})
			return err
		}, dyndbscan.ErrBadPoint},
		{"Apply short point", dyndbscan.AlgoFullyDynamic, func(e *dyndbscan.Engine, ids []dyndbscan.PointID) error {
			_, err := e.Apply([]dyndbscan.Op{dyndbscan.DeleteOp(ids[0]), dyndbscan.InsertOp(dyndbscan.Point{1})})
			return err
		}, dyndbscan.ErrBadPoint},
		{"Delete unknown id", dyndbscan.AlgoFullyDynamic, func(e *dyndbscan.Engine, _ []dyndbscan.PointID) error {
			return e.Delete(777)
		}, dyndbscan.ErrUnknownPoint},
		{"DeleteBatch unknown id", dyndbscan.AlgoFullyDynamic, func(e *dyndbscan.Engine, ids []dyndbscan.PointID) error {
			return e.DeleteBatch([]dyndbscan.PointID{ids[0], 777})
		}, dyndbscan.ErrUnknownPoint},
		{"Apply unknown id", dyndbscan.AlgoFullyDynamic, func(e *dyndbscan.Engine, ids []dyndbscan.PointID) error {
			_, err := e.Apply([]dyndbscan.Op{dyndbscan.InsertOp(dyndbscan.Point{5, 5}), dyndbscan.DeleteOp(ids[0]), dyndbscan.DeleteOp(777)})
			return err
		}, dyndbscan.ErrUnknownPoint},
		{"DeleteBatch duplicate id", dyndbscan.AlgoFullyDynamic, func(e *dyndbscan.Engine, ids []dyndbscan.PointID) error {
			return e.DeleteBatch([]dyndbscan.PointID{ids[0], ids[1], ids[0]})
		}, dyndbscan.ErrDuplicateID},
		{"Apply duplicate id", dyndbscan.AlgoFullyDynamic, func(e *dyndbscan.Engine, ids []dyndbscan.PointID) error {
			_, err := e.Apply([]dyndbscan.Op{dyndbscan.DeleteOp(ids[1]), dyndbscan.InsertOp(dyndbscan.Point{5, 5}), dyndbscan.DeleteOp(ids[1])})
			return err
		}, dyndbscan.ErrDuplicateID},
		{"Apply invalid kind", dyndbscan.AlgoFullyDynamic, func(e *dyndbscan.Engine, _ []dyndbscan.PointID) error {
			_, err := e.Apply([]dyndbscan.Op{dyndbscan.InsertOp(dyndbscan.Point{5, 5}), {Kind: 42}})
			return err
		}, nil},
		{"SemiDynamic Delete", dyndbscan.AlgoSemiDynamic, func(e *dyndbscan.Engine, ids []dyndbscan.PointID) error {
			return e.Delete(ids[0])
		}, dyndbscan.ErrDeletesUnsupported},
		{"SemiDynamic DeleteBatch", dyndbscan.AlgoSemiDynamic, func(e *dyndbscan.Engine, ids []dyndbscan.PointID) error {
			return e.DeleteBatch([]dyndbscan.PointID{ids[0], ids[1]})
		}, dyndbscan.ErrDeletesUnsupported},
		{"SemiDynamic Apply", dyndbscan.AlgoSemiDynamic, func(e *dyndbscan.Engine, ids []dyndbscan.PointID) error {
			_, err := e.Apply([]dyndbscan.Op{dyndbscan.InsertOp(dyndbscan.Point{5, 5}), dyndbscan.DeleteOp(ids[0])})
			return err
		}, dyndbscan.ErrDeletesUnsupported},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			msgs := make([]string, len(shapes))
			for si, shape := range shapes {
				e, err := dyndbscan.New(append([]dyndbscan.Option{
					dyndbscan.WithAlgorithm(tc.algo), dyndbscan.WithEps(2), dyndbscan.WithMinPts(2),
				}, shape.opts...)...)
				if err != nil {
					t.Fatal(err)
				}
				ids, err := e.InsertBatch([]dyndbscan.Point{{0, 0}, {1, 0}, {2, 0}})
				if err != nil {
					t.Fatal(err)
				}
				v0, n0 := e.Version(), e.Len()
				err = tc.run(e, ids)
				if err == nil {
					t.Fatalf("%s: update succeeded, want an error", shape.name)
				}
				if tc.want != nil && !errors.Is(err, tc.want) {
					t.Fatalf("%s: err = %v, want %v", shape.name, err, tc.want)
				}
				if v, n := e.Version(), e.Len(); v != v0 || n != n0 {
					t.Fatalf("%s: rejected update moved Version %d -> %d, Len %d -> %d", shape.name, v0, v, n0, n)
				}
				msgs[si] = err.Error()
			}
			if msgs[0] != msgs[1] {
				t.Fatalf("error messages differ across shapes:\n%s: %s\n%s: %s", shapes[0].name, msgs[0], shapes[1].name, msgs[1])
			}
		})
	}
}

// Allocation budget of one Insert and Delete on the paper-5d configuration
// (no WAL, no subscriber), measured on the point-set workload below: a fresh
// point lands in a new, non-core cell. On the default one-shard engine
// deleting it allocates nothing, and every insert allocation is the
// backend's own; staging, validation, routing and the inline one-shard
// commit must add none on this path. The sharded row (WithShards(4)) runs
// the same inline commit for a point held by one shard; the few of its
// points that have ghost copies add the multi-shard fan-out (goroutines,
// the per-shard op array and output buffers), which averages out to the
// extra insert allocations. A route lives inline in a route-table page, so
// publishing it allocates nothing per op. The budgets are the measured
// counts, with no slack: an allocation added to either path fails the test.
var singleOpAllocBudgets = []struct {
	name        string
	opts        []dyndbscan.Option
	insert, del float64
}{
	{"Single", nil, 6, 0},
	{"Sharded4", []dyndbscan.Option{dyndbscan.WithShards(4)}, 8, 1},
}

// TestSingleOpAllocs pins the allocation count of the paper-5d hot path.
func TestSingleOpAllocs(t *testing.T) {
	for _, b := range singleOpAllocBudgets {
		t.Run(b.name, func(t *testing.T) {
			ins, del := singleOpAllocs(t, b.opts...)
			t.Logf("Insert %v allocs/op, Delete %v allocs/op", ins, del)
			if ins > b.insert {
				t.Errorf("Insert allocates %v times per call, budget %v", ins, b.insert)
			}
			if del > b.del {
				t.Errorf("Delete allocates %v times per call, budget %v", del, b.del)
			}
		})
	}
}

// singleOpAllocs warms a paper-5d engine with 5000 points and measures the
// allocations of one Insert and of one Delete of a fresh point.
func singleOpAllocs(t *testing.T, opts ...dyndbscan.Option) (ins, del float64) {
	e, err := dyndbscan.New(append([]dyndbscan.Option{dyndbscan.WithDims(5), dyndbscan.WithEps(500), dyndbscan.WithMinPts(10), dyndbscan.WithRho(0.001)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rng := rand.New(rand.NewSource(1))
	point := func() dyndbscan.Point {
		c := float64(rng.Intn(64)) * 5000
		p := make(dyndbscan.Point, 5)
		for d := range p {
			p[d] = c + rng.Float64()*20000
		}
		return p
	}
	for i := 0; i < 5000; i++ {
		if _, err := e.Insert(point()); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 2000
	pts := make([]dyndbscan.Point, runs+1) // AllocsPerRun adds one warm-up call
	for i := range pts {
		pts[i] = point()
	}
	ids := make([]dyndbscan.PointID, 0, len(pts))
	ins = testing.AllocsPerRun(runs, func() {
		id, err := e.Insert(pts[len(ids)])
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	})
	k := 0
	del = testing.AllocsPerRun(runs, func() {
		if err := e.Delete(ids[k]); err != nil {
			t.Fatal(err)
		}
		k++
	})
	return ins, del
}
