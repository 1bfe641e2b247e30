package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"dyndbscan"
	"dyndbscan/internal/core"
	"dyndbscan/internal/geom"
)

// paper-5d is the paper's fully-dynamic workload (Section 8) at d = 5: a
// bulk preload of seed-spreader points, then single-op inserts and deletes
// (%ins = 5/6, deletes pick a random live point) from one client, with a
// C-group-by query over 2–100 live points after every 100 updates. The
// engine is single-backend with no WAL and no subscriber, so internal/core
// and the paper structures beneath it do nearly all the work.
const (
	p5Dims       = 5
	p5Eps        = 100 * p5Dims
	p5MinPts     = 10
	p5Rho        = 0.001
	p5Preload    = 50_000
	p5InsFrac    = 5.0 / 6.0
	p5QueryEvery = 100
	p5QMin       = 2
	p5QMax       = 100
	p5Setups     = 5
	p5Walk       = 5_000 // seed-spreader points per random walk
	// p5RatePerSec sizes the pre-generated stream: above the rate this
	// workload reaches on a 2-CPU host, so --seconds, not the stream,
	// ends the timed phase.
	p5RatePerSec = 90_000
)

var paper5d = &scenario{
	name:      "paper-5d",
	exercises: []string{"core", "grid", "quadtree", "kdtree", "abcp", "dyncon", "engine single-backend read path"},
	bypasses:  []string{"wal", "persist", "seam", "snapshot", "events", "placement", "hotspot"},
	run:       runPaper5d,
}

// p5Op is one generated update: an insert of point number seq, or a delete
// of the point inserted as number seq.
type p5Op struct {
	del bool
	seq int32
}

type p5Stream struct {
	pts     []geom.Point // preload first, then stream inserts
	ops     []p5Op
	queries [][]int32 // queries[k] runs after update (k+1)·p5QueryEvery
}

// genPaper5d generates the stream. Delete targets and query members are
// drawn from the points that are live at that position of the stream.
func genPaper5d(seed int64, updates int) (*p5Stream, *streamHash) {
	rng := rand.New(rand.NewSource(seed))
	inserts := int(float64(updates)*p5InsFrac) + updates/50 // headroom for the coin flips
	pts := spreaderPoints(rng, p5Dims, p5Preload+inserts, p5Walk, seed)
	rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })

	st := &p5Stream{pts: pts}
	h := newStreamHash()
	alive := make([]int32, 0, len(pts))
	for i := 0; i < p5Preload; i++ {
		alive = append(alive, int32(i))
		h.op('p', int64(i))
		h.point(pts[i])
	}
	next := int32(p5Preload)
	for u := 0; u < updates; u++ {
		if rng.Float64() < p5InsFrac && int(next) < len(pts) {
			st.ops = append(st.ops, p5Op{seq: next})
			alive = append(alive, next)
			h.op('i', int64(next))
			h.point(pts[next])
			next++
		} else {
			k := rng.Intn(len(alive))
			target := alive[k]
			alive[k] = alive[len(alive)-1]
			alive = alive[:len(alive)-1]
			st.ops = append(st.ops, p5Op{del: true, seq: target})
			h.op('d', int64(target))
		}
		if (u+1)%p5QueryEvery == 0 {
			size := p5QMin + rng.Intn(p5QMax-p5QMin+1)
			q := make([]int32, size)
			for i := range q {
				q[i] = alive[rng.Intn(len(alive))]
			}
			st.queries = append(st.queries, q)
			h.op('q', int64(size))
			for _, v := range q {
				h.int(int64(v))
			}
		}
	}
	return st, h
}

func p5Options() []dyndbscan.Option {
	return []dyndbscan.Option{
		dyndbscan.WithDims(p5Dims),
		dyndbscan.WithEps(p5Eps),
		dyndbscan.WithMinPts(p5MinPts),
		dyndbscan.WithRho(p5Rho),
		dyndbscan.WithWorkers(2),
	}
}

func runPaper5d(r *runner) error {
	updates := int(r.seconds.Seconds()) * p5RatePerSec
	if r.maxOps > 0 {
		updates = r.maxOps
	}
	st, h := genPaper5d(r.seed, updates)
	r.rep.StreamOps, r.rep.StreamHash = h.ops, h.sum()
	r.rep.Params = map[string]any{
		"dims": p5Dims, "eps": p5Eps, "min_pts": p5MinPts, "rho": p5Rho,
		"preload": p5Preload, "ins_frac": p5InsFrac, "query_every": p5QueryEvery,
		"query_size": []int{p5QMin, p5QMax}, "generated_updates": updates,
		"clients": 1, "engine": "single backend, WithWorkers(2), no WAL, no subscriber",
		"setup_repeats": p5Setups,
	}

	handles := make([]dyndbscan.PointID, len(st.pts))
	var log ackLog
	o := &obs{}
	tr := r.tr
	preload := st.pts[:p5Preload]

	// Set-up: New plus the bulk preload, repeated; the last engine serves.
	var e *dyndbscan.Engine
	var setups []float64
	for i := 0; i < p5Setups; i++ {
		if e != nil {
			e.Close()
			e = nil
			liveHeap()
		}
		t0 := time.Now()
		var err error
		e, err = dyndbscan.New(p5Options()...)
		if err != nil {
			return err
		}
		ids, err := e.InsertBatch(preload)
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		setups = append(setups, t1.Sub(t0).Seconds())
		copy(handles, ids)
		if i == p5Setups-1 {
			tr.record("engine.setup", t0, t1, -1, -1)
		}
	}
	r.e2e("setup_s", median(setups), len(setups))
	for i, pt := range preload {
		log.commit(-1, ackOp{Kind: 'i', Pt: pt, ID: handles[i]})
	}

	// Timed phase.
	tl := &timeline{at: make([]int64, 0, len(st.ops)), lat: make(samples, 0, len(st.ops))}
	var qlat samples
	q := make([]dyndbscan.PointID, 0, p5QMax)
	v0 := e.Version()
	o.start(e)
	phase := tr.begin("timed")
	start := time.Now()
	done := 0
	for done < len(st.ops) && !r.deadlineReached(start, done) {
		op := st.ops[done]
		opID := int64(done)
		t0 := time.Now()
		var err error
		if op.del {
			err = e.Delete(handles[op.seq])
		} else {
			handles[op.seq], err = e.Insert(st.pts[op.seq])
		}
		t1 := time.Now()
		r.op(err)
		if err != nil {
			return fmt.Errorf("update %d: %w", done, err)
		}
		tl.add(t1.Sub(start), t1.Sub(t0))
		if op.del {
			tr.record("engine.delete", t0, t1, phase, opID)
			log.commit(opID, ackOp{Kind: 'd', ID: handles[op.seq]})
		} else {
			tr.record("engine.insert", t0, t1, phase, opID)
			log.commit(opID, ackOp{Kind: 'i', Pt: st.pts[op.seq], ID: handles[op.seq]})
		}
		done++
		if done%p5QueryEvery == 0 {
			q = q[:0]
			for _, seq := range st.queries[done/p5QueryEvery-1] {
				q = append(q, handles[seq])
			}
			// A single-backend engine answers from the live structure, not
			// a snapshot, so these reads stay out of the snapshot layer.
			qt0 := time.Now()
			_, err := e.GroupBy(q)
			qt1 := time.Now()
			r.op(err)
			if err != nil {
				return fmt.Errorf("query after update %d: %w", done, err)
			}
			qlat.add(qt1.Sub(qt0))
			tr.record("engine.groupby", qt0, qt1, phase, opID)
			log.commit(opID, ackOp{Kind: 'q', Q: append([]dyndbscan.PointID(nil), q...)})
		}
	}
	wall := time.Since(start)
	tr.end(phase)
	o.commits = e.Version() - v0
	o.upd, o.updOps = tl.lat, done
	r.rep.Params["timed_updates"] = done

	r.updates(tl, wall, 1)
	r.e2e("query_p50_us", qlat.quantile(0.50)/us, len(qlat))
	r.e2e("query_p99_us", qlat.quantile(0.99)/us, len(qlat))

	// Untimed: the engine's answer, its memory, then the core replay.
	t0 := time.Now()
	e.Sync()
	o.syncSpan = time.Since(t0)
	tr.record("engine.sync", t0, t0.Add(o.syncSpan), -1, -1)
	o.capture(e)
	got, err := e.GroupAll()
	r.op(err)
	if err != nil {
		return fmt.Errorf("GroupAll: %w", err)
	}
	live := e.Len()
	heapWith := liveHeap()
	e.Close()
	e = nil
	heapWithout := liveHeap()
	r.e2e("heap_bytes_per_point", float64(int64(heapWith)-int64(heapWithout))/float64(live), live)

	cr, err := replayCore(core.Config{Dims: p5Dims, Eps: p5Eps, MinPts: p5MinPts, Rho: p5Rho}, &log, tr)
	if err != nil {
		return err
	}
	want, err := cr.groupAll()
	if err != nil {
		return err
	}
	r.rep.addCheck("engine GroupAll = core replay", samePartition(got, want))
	if r.trace {
		if err := replayWAL(r, filepath.Join(r.scratch, "walreplay"), &log, walReplaySyncEvery); err != nil {
			return err
		}
		reportLayers(r, o, cr)
	}
	return nil
}

// walReplaySyncEvery is the append count between Sync calls in the direct
// wal replay: a fixed stand-in for the engine's time-based group commit.
const walReplaySyncEvery = 64
