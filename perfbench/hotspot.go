package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"dyndbscan"
	"dyndbscan/internal/core"
	"dyndbscan/internal/geom"
	"dyndbscan/internal/grid"
)

// hotspot-zipf is the contention shape of the dynbench hotspot figure: two
// closed-loop writers send 1-op Apply calls whose stripes follow Zipf
// s = 1.3 over 32 stripes, with every 48th op deleting the writer's oldest
// point. The 4-shard engine rebalances, stages hot-stripe inserts
// (WithHotspot) and logs under group commit. There are no reads, so
// snapshots and events stay out of the way of the staging, reconcile and
// rebalance paths.
const (
	hzDims     = 2
	hzEps      = 200
	hzMinPts   = 10
	hzRho      = 0.001
	hzShards   = 4
	hzStripeW  = 16 // cells per stripe
	hzStripes  = 32
	hzZipfS    = 1.3
	hzDelEvery = 48 // about 2% deletes
	hzWriters  = 2
	hzPreload  = 20_000
	hzChunk    = 1_000
	hzSync     = 2 * time.Millisecond
	hzSetups   = 5
	// hzOpsPerSec sizes each writer's pre-generated stream above the rate
	// this workload reaches on a 2-CPU host.
	hzOpsPerSec = 30_000
)

var hotspotZipf = &scenario{
	name:      "hotspot-zipf",
	exercises: []string{"engine commit path", "placement", "hotspot staging/reconcile", "rebalance", "wal (staged records)", "persist (recovery)", "core"},
	bypasses:  []string{"snapshot", "events"},
	run:       runHotspot,
}

// hzPolicy is the dynbench hotspot policy: it enters split phase on the Zipf
// head within a few hundred ops and reconciles every few hundred staged
// inserts. Stripe splits are effectively off: a split mid-run cools the head
// and flips most ops from the staged path to the ordinary commit path, so
// the median update would land on either path depending on when it fired.
func hzPolicy() dyndbscan.HotspotPolicy {
	return dyndbscan.HotspotPolicy{
		ScoreThreshold: 4,
		WaitWeight:     16,
		CheckEvery:     4,
		ReconcileOps:   256,
		SplitAfter:     1 << 20,
		SplitParts:     2,
		MigrateChunk:   2048,
	}
}

func hzOptions(dir string) []dyndbscan.Option {
	return []dyndbscan.Option{
		dyndbscan.WithDims(hzDims),
		dyndbscan.WithEps(hzEps),
		dyndbscan.WithMinPts(hzMinPts),
		dyndbscan.WithRho(hzRho),
		dyndbscan.WithWorkers(2),
		dyndbscan.WithShards(hzShards),
		dyndbscan.WithShardStripe(hzStripeW),
		dyndbscan.WithRebalance(dyndbscan.RebalancePolicy{MaxImbalance: 1.2, MinLoad: 256, CheckEvery: 32}),
		dyndbscan.WithHotspot(hzPolicy()),
		dyndbscan.WithWAL(dir, dyndbscan.SyncEvery(hzSync)),
	}
}

// hzOp is one generated op of one writer: an insert at pt, or (pt nil) a
// delete of the writer's oldest live point.
type hzOp struct{ pt dyndbscan.Point }

func genHotspot(seed int64, perWriter int) (preload []dyndbscan.Point, streams [][]hzOp, h *streamHash) {
	side := grid.NewParams(hzDims, hzEps).Side
	width := side * hzStripeW * hzStripes
	h = newStreamHash()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < hzPreload; i++ {
		p := dyndbscan.Point{rng.Float64() * width, rng.Float64() * 10 * hzEps}
		preload = append(preload, p)
		h.op('p', int64(i))
		h.point(p)
	}
	for w := 0; w < hzWriters; w++ {
		wr := rand.New(rand.NewSource(seed*1_000_003 + int64(w)))
		zipf := rand.NewZipf(wr, hzZipfS, 1, hzStripes-1)
		ops := make([]hzOp, perWriter)
		for i := range ops {
			if i%hzDelEvery == hzDelEvery-1 {
				h.op('d', int64(w))
				continue
			}
			// Ranks interleave across the stripes so the hot head is not a
			// run of adjacent stripes one shard could own.
			stripe := (zipf.Uint64() * 7) % hzStripes
			p := dyndbscan.Point{(float64(stripe) + wr.Float64()) * side * hzStripeW, wr.Float64() * 10 * hzEps}
			ops[i] = hzOp{pt: p}
			h.op('i', int64(w))
			h.point(p)
		}
		streams = append(streams, ops)
	}
	for _, ops := range streams {
		var pts []geom.Point
		for _, op := range ops {
			if op.pt != nil {
				pts = append(pts, op.pt)
			}
		}
		flatten(pts)
		for i, j := 0, 0; i < len(ops); i++ {
			if ops[i].pt != nil {
				ops[i].pt = pts[j]
				j++
			}
		}
	}
	return flatten(preload), streams, h
}

// hzAck is one acknowledged op with its global acknowledgement number.
type hzAck struct {
	seq int64
	op  ackOp
}

func runHotspot(r *runner) error {
	perWriter := int(r.seconds.Seconds()) * hzOpsPerSec / hzWriters
	if r.maxOps > 0 {
		perWriter = r.maxOps / hzWriters
	}
	preload, streams, h := genHotspot(r.seed, perWriter)
	r.rep.StreamOps, r.rep.StreamHash = h.ops, h.sum()
	r.rep.Params = map[string]any{
		"dims": hzDims, "eps": hzEps, "min_pts": hzMinPts, "rho": hzRho, "shards": hzShards,
		"stripe_cells": hzStripeW, "zipf_stripes": hzStripes, "zipf_s": hzZipfS,
		"delete_every": hzDelEvery, "writers": hzWriters, "ops_per_apply": 1,
		"preload": hzPreload, "flush_policy": "SyncEvery(2ms)",
		"rebalance": "MaxImbalance 1.2, MinLoad 256, CheckEvery 32",
		"hotspot":   fmt.Sprintf("%+v", hzPolicy()),
		"clients":   "2 closed-loop writers", "generated_ops_per_writer": perWriter,
		"setup_repeats": hzSetups,
	}
	o := &obs{}
	tr := r.tr

	var (
		e      *dyndbscan.Engine
		dir    string
		setups []float64
		loaded []dyndbscan.PointID
	)
	for i := 0; i < hzSetups; i++ {
		if e != nil {
			e.Close()
			os.RemoveAll(dir)
			e = nil
			liveHeap()
		}
		dir = filepath.Join(r.scratch, fmt.Sprintf("hot-wal-%d", i))
		t0 := time.Now()
		var err error
		e, err = dyndbscan.New(hzOptions(dir)...)
		if err != nil {
			return err
		}
		loaded = loaded[:0]
		for j := 0; j < len(preload); j += hzChunk {
			ids, err := e.InsertBatch(preload[j:min(j+hzChunk, len(preload))])
			if err != nil {
				e.Close()
				return fmt.Errorf("preload: %w", err)
			}
			loaded = append(loaded, ids...)
		}
		if err := e.Checkpoint(); err != nil {
			e.Close()
			return fmt.Errorf("base checkpoint: %w", err)
		}
		t1 := time.Now()
		setups = append(setups, t1.Sub(t0).Seconds())
		if i == hzSetups-1 {
			tr.record("engine.setup", t0, t1, -1, -1)
		}
	}
	r.e2e("setup_s", median(setups), len(setups))

	// Writers: closed loop, one op per Apply. The ack number orders the
	// acknowledged ops for the replays.
	type writerOut struct {
		obs   obs // durable-lag samples of this writer
		tl    timeline
		acks  []hzAck
		live  []dyndbscan.PointID
		tr    *tracer
		err   error
		fails int64
	}
	var (
		ackMu  sync.Mutex
		ackSeq int64
		outs   = make([]*writerOut, hzWriters)
		wg     sync.WaitGroup
	)
	v0 := e.Version()
	o.start(e)
	phase := tr.begin("timed")
	start := time.Now()
	for w := 0; w < hzWriters; w++ {
		out := &writerOut{tr: tr.fork()}
		outs[w] = out
		wg.Add(1)
		go func(ops []hzOp) {
			defer wg.Done()
			batch := make([]dyndbscan.Op, 1)
			for i, op := range ops {
				if r.deadlineReached(start, i*hzWriters) {
					return
				}
				if op.pt == nil {
					batch[0] = dyndbscan.DeleteOp(out.live[0])
				} else {
					batch[0] = dyndbscan.InsertOp(op.pt)
				}
				t0 := time.Now()
				res, err := e.Apply(batch)
				t1 := time.Now()
				if err != nil {
					out.fails++
					out.err = fmt.Errorf("writer op %d: %w", i, err)
					return
				}
				ackMu.Lock()
				seq := ackSeq
				ackSeq++
				ackMu.Unlock()
				out.tl.add(t1.Sub(start), t1.Sub(t0))
				out.tr.record("engine.apply", t0, t1, phase, seq)
				if r.trace {
					out.obs.sampleWAL(e, i)
				}
				if op.pt == nil {
					out.acks = append(out.acks, hzAck{seq, ackOp{Kind: 'd', ID: out.live[0]}})
					out.live = out.live[1:]
				} else {
					out.acks = append(out.acks, hzAck{seq, ackOp{Kind: 'i', Pt: op.pt, ID: res[0]}})
					out.live = append(out.live, res[0])
				}
			}
		}(streams[w])
	}
	wg.Wait()
	wall := time.Since(start)
	tr.end(phase)

	var tl timeline
	var acks []hzAck
	for _, out := range outs {
		r.attempts += int64(len(out.tl.lat)) + out.fails
		r.failures += out.fails
		if out.err != nil {
			e.Close()
			return out.err
		}
		tl.merge(&out.tl)
		acks = append(acks, out.acks...)
		o.lagSum += out.obs.lagSum
		o.lagN += out.obs.lagN
		tr.absorb(out.tr)
	}
	sort.Slice(acks, func(i, j int) bool { return acks[i].seq < acks[j].seq })
	updates := len(acks)
	o.commits = e.Version() - v0
	o.upd, o.updOps = tl.lat, updates
	r.rep.Params["timed_updates"] = updates

	r.updates(&tl, wall, 1)

	// Untimed: every acked handle must be live after Sync.
	t0 := time.Now()
	e.Sync()
	o.syncSpan = time.Since(t0)
	tr.record("engine.sync", t0, t0.Add(o.syncSpan), -1, -1)
	o.capture(e)
	missing := 0
	for _, id := range loaded {
		if !e.Has(id) {
			missing++
		}
	}
	for _, out := range outs {
		for _, id := range out.live {
			if !e.Has(id) {
				missing++
			}
		}
	}
	var liveErr error
	if missing > 0 {
		liveErr = fmt.Errorf("%d acked handles are not live", missing)
	}
	r.rep.addCheck("acked handles live after Sync", liveErr)
	before, err := e.GroupAll()
	r.op(err)
	if err != nil {
		e.Close()
		return fmt.Errorf("GroupAll: %w", err)
	}
	live := e.Len()
	heapWith := liveHeap()
	if err := e.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	e = nil
	heapWithout := liveHeap()
	r.e2e("heap_bytes_per_point", float64(int64(heapWith)-int64(heapWithout))/float64(live), live)
	walBytes, err := dirBytes(dir)
	if err != nil {
		return err
	}
	r.e2e("wal_bytes_per_update", float64(walBytes)/float64(hzPreload+updates), hzPreload+updates)

	if err := recoverAndCheck(r, o, dir, before); err != nil {
		return err
	}

	if r.trace {
		var log ackLog
		for j := 0; j < len(preload); j += hzChunk {
			var ops []ackOp
			for k := j; k < min(j+hzChunk, len(preload)); k++ {
				ops = append(ops, ackOp{Kind: 'i', Pt: preload[k], ID: loaded[k]})
			}
			log.commit(-1, ops...)
		}
		for _, a := range acks {
			log.commit(a.seq, a.op)
		}
		cr, err := replayCore(core.Config{Dims: hzDims, Eps: hzEps, MinPts: hzMinPts, Rho: hzRho}, &log, tr)
		if err != nil {
			return err
		}
		if err := replayWAL(r, filepath.Join(r.scratch, "walreplay"), &log, walReplaySyncEvery); err != nil {
			return err
		}
		reportLayers(r, o, cr)
	}
	return nil
}
