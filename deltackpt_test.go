package dyndbscan

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// TestChangeLedgerBounded is the regression test of the ledger's cap with
// automatic checkpoints off: a sliding window that puts every insert in a
// fresh cell grows the dirty-cell set without bound, so the ledger must go
// full once it holds more entries than there are live points, and hold
// nothing more. An explicit checkpoint then writes a base, and the next small
// window is a delta again.
func TestChangeLedgerBounded(t *testing.T) {
	const window = 200
	e, err := New(WithEps(1), WithMinPts(3), WithWAL(t.TempDir(), SyncEvery(time.Millisecond)),
		WithWALCheckpointEvery(0))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var ids []PointID
	next := 0
	slide := func() {
		// Two cell widths apart: every insert opens a cell of its own.
		id, err := e.Insert(Point{float64(next) * 2, 0})
		if err != nil {
			t.Fatal(err)
		}
		next++
		ids = append(ids, id)
		if len(ids) > window {
			if err := e.Delete(ids[0]); err != nil {
				t.Fatal(err)
			}
			ids = ids[1:]
		}
	}
	for len(ids) < window {
		slide()
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	went := false
	for i := 0; i < 20*window; i++ {
		slide()
		entries, live, full := e.ChangeLedger()
		if entries > live {
			t.Fatalf("slide %d: ledger holds %d entries over %d live points", i, entries, live)
		}
		if full {
			went = true
			if entries != 0 {
				t.Fatalf("slide %d: a full ledger still holds %d entries", i, entries)
			}
		}
	}
	if !went {
		t.Fatal("the ledger never went full")
	}
	base := e.WALStats().ChainBaseSeq
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := e.WALStats()
	if st.ChainDeltas != 0 || st.ChainBaseSeq == base {
		t.Fatalf("checkpoint of a full ledger: chain base@%d+%d deltas, want a new base past %d",
			st.ChainBaseSeq, st.ChainDeltas, base)
	}
	for i := 0; i < 10; i++ {
		slide()
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st := e.WALStats(); st.ChainDeltas != 1 {
		t.Fatalf("checkpoint of a small window: chain has %d deltas, want 1", st.ChainDeltas)
	}
}

// TestDeltaComposesToFull checks the delta chain against the state it
// describes: at every capture of a seeded churn, the composed chain must
// equal a full capture of the same quiesced state — ids, coordinates,
// clusters, mint counters and placement. The churn slides a window over a
// strip whose clusters merge and split inside capture windows.
func TestDeltaComposesToFull(t *testing.T) {
	for _, shards := range []int{1, 3} {
		for _, algo := range []Algorithm{AlgoFullyDynamic, AlgoIncDBSCAN} {
			for _, rho := range []float64{0, 0.001} {
				t.Run(fmt.Sprintf("%s/shards=%d/rho=%g", algo, shards, rho), func(t *testing.T) {
					testDeltaComposesToFull(t, algo, shards, rho)
				})
			}
		}
	}
}

func testDeltaComposesToFull(t *testing.T, algo Algorithm, shards int, rho float64) {
	opts := []Option{WithAlgorithm(algo), WithEps(6), WithMinPts(3), WithRho(rho),
		WithWAL(t.TempDir(), SyncEvery(time.Millisecond)), WithWALCheckpointEvery(0)}
	if shards > 1 {
		opts = append(opts, WithShards(shards), WithShardStripe(8))
	}
	e, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rng := rand.New(rand.NewSource(11))
	// A 3000×12 strip at a density where 6-radius clusters keep bridging
	// and breaking apart. Each capture window churns one 60-wide stretch,
	// so its delta patches a small part of the live set.
	const liveN, width = 1500, 3000
	at := func(x0, w float64) Point { return Point{x0 + rng.Float64()*w, rng.Float64() * 12} }
	var live []PointID
	var deltas, merging, splitting int
	var x0 float64
	for round := 0; round < 90; round++ {
		var ops []Op
		if round == 0 {
			for i := 0; i < liveN; i++ {
				ops = append(ops, InsertOp(at(0, width)))
			}
		}
		if round%3 == 0 {
			x0 = rng.Float64() * (width - 60)
		}
		for i := 0; i < 20; i++ {
			if len(live) > liveN && rng.Intn(2) == 0 {
				k := rng.Intn(len(live))
				ops = append(ops, DeleteOp(live[k]))
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
				continue
			}
			ops = append(ops, InsertOp(at(x0, 60)))
		}
		res, err := e.Apply(ops)
		if err != nil {
			t.Fatal(err)
		}
		for i, op := range ops {
			if op.Kind == OpInsert {
				live = append(live, res[i])
			}
		}
		if round%3 != 2 {
			continue
		}
		d := &e.wal.dirty
		d.mu.Lock()
		merged, split := len(d.merges) > 0, len(d.splitGIDs) > 0
		d.mu.Unlock()
		before := e.WALStats().ChainDeltas
		if err := e.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if e.WALStats().ChainDeltas > before {
			deltas++
			if merged {
				merging++
			}
			if split {
				splitting++
			}
		}
		got, err := composeCheckpoints(e.wal.log.CheckpointPayloads())
		if err != nil {
			t.Fatal(err)
		}
		ss := e.sh
		ss.worldMu.Lock()
		full := ss.sourceLocked().fullPayload()
		ss.worldMu.Unlock()
		want, err := decodeCheckpoint(full)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.assign) == 0 && len(want.assign) == 0 {
			got.assign, want.assign = nil, nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: composed chain differs from a full capture\n got %+v\nwant %+v", round, got, want)
		}
	}
	if deltas == 0 || merging == 0 || splitting == 0 {
		t.Fatalf("churn too tame: %d delta captures, %d of them with merges, %d with splits",
			deltas, merging, splitting)
	}
	t.Logf("%d delta captures, %d of them with merges, %d with splits", deltas, merging, splitting)
}

// TestCheckpointPayloadsReproducible runs one seeded churn with merges and
// splits twice, on two fresh engines in one process, and requires every
// checkpoint capture — base or delta — to be byte-identical between the
// two runs, at one shard and at three. Cluster ids, which checkpoints
// store, must therefore not depend on map iteration order anywhere from
// the backends up through the seam, as replay relies on minting them
// exactly as the original run did.
func TestCheckpointPayloadsReproducible(t *testing.T) {
	for _, shards := range []int{1, 3} {
		for _, algo := range []Algorithm{AlgoFullyDynamic, AlgoIncDBSCAN} {
			t.Run(fmt.Sprintf("%s/shards=%d", algo, shards), func(t *testing.T) {
				a, b := captureChurn(t, algo, shards), captureChurn(t, algo, shards)
				if len(a) != len(b) {
					t.Fatalf("runs captured %d and %d checkpoints", len(a), len(b))
				}
				for i := range a {
					if !bytes.Equal(a[i], b[i]) {
						t.Fatalf("capture %d differs between two runs of one stream (%d vs %d bytes)", i, len(a[i]), len(b[i]))
					}
				}
			})
		}
	}
}

// captureChurn runs a fixed seeded churn of clusters that keep bridging and
// breaking apart, checkpointing every third round, and returns the payload
// each capture appended to the chain.
func captureChurn(t *testing.T, algo Algorithm, shards int) [][]byte {
	opts := []Option{WithAlgorithm(algo), WithEps(6), WithMinPts(3),
		WithWAL(t.TempDir(), SyncEvery(time.Millisecond)), WithWALCheckpointEvery(0)}
	if shards > 1 {
		opts = append(opts, WithShards(shards), WithShardStripe(8))
	}
	e, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rng := rand.New(rand.NewSource(11))
	const liveN, width = 1500, 3000
	at := func(x0, w float64) Point { return Point{x0 + rng.Float64()*w, rng.Float64() * 12} }
	var live []PointID
	var captures [][]byte
	var x0 float64
	for round := 0; round < 60; round++ {
		var ops []Op
		if round == 0 {
			for i := 0; i < liveN; i++ {
				ops = append(ops, InsertOp(at(0, width)))
			}
		}
		if round%3 == 0 {
			x0 = rng.Float64() * (width - 60)
		}
		for i := 0; i < 20; i++ {
			if len(live) > liveN && rng.Intn(2) == 0 {
				k := rng.Intn(len(live))
				ops = append(ops, DeleteOp(live[k]))
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
				continue
			}
			ops = append(ops, InsertOp(at(x0, 60)))
		}
		res, err := e.Apply(ops)
		if err != nil {
			t.Fatal(err)
		}
		for i, op := range ops {
			if op.Kind == OpInsert {
				live = append(live, res[i])
			}
		}
		if round%3 != 2 {
			continue
		}
		if err := e.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		chain := e.wal.log.CheckpointPayloads()
		captures = append(captures, chain[len(chain)-1])
	}
	return captures
}

// TestCkptCountBoundedByPayload: a checkpoint length prefix that names more
// items than bytes remain fails the decode instead of sizing an allocation
// (a fuzzed delta payload once asked for a 2 GiB slice); a prefix the
// remaining bytes can hold still decodes.
func TestCkptCountBoundedByPayload(t *testing.T) {
	d := &payloadDecoder{b: appendUvarint(nil, 1<<30)}
	if n := d.count(); n != 0 || d.err == nil {
		t.Fatalf("count over an empty tail = %d (err %v), want 0 and a decode error", n, d.err)
	}
	d = &payloadDecoder{b: append(appendUvarint(nil, 2), 1, 2)}
	if n := d.count(); n != 2 || d.err != nil {
		t.Fatalf("count of 2 over 2 bytes = %d (err %v), want 2", n, d.err)
	}
}
