package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dyndbscan"
	"dyndbscan/internal/core"
	"dyndbscan/internal/evcheck"
	"dyndbscan/internal/geom"
)

// serve-window is a durable sharded service over a sliding window: a
// preloaded live set of 2-D seed-spreader points held steady by commits
// that each insert svBatch new points and delete the svBatch oldest. One
// closed-loop writer reads back one of its own new handles every
// svFreshEvery commits and checkpoints every svCkptEvery commits; one
// open-loop reader issues C-group-by queries at a fixed rate. The engine
// pipeline — routing, seam fold, WAL, snapshot build, event dispatch,
// checkpoint chain and recovery — dominates.
const (
	svDims    = 2
	svEps     = 200
	svMinPts  = 10
	svRho     = 0.001
	svShards  = 2
	svPreload = 30_000
	svChunk   = 1_000 // preload InsertBatch size
	svBatch   = 24    // inserts (and deletes) per commit
	// svFreshEvery keeps the writer's snapshot builds a large minority of
	// its time, about a quarter on a 2-CPU host: a first read after a
	// commit rebuilds the snapshot.
	svFreshEvery = 100
	svCkptEvery  = 200
	svReadRate   = 10 // reader queries per second, open loop
	svQMin       = 2
	svQMax       = 100
	svSync       = 2 * time.Millisecond
	svSetups     = 5
	svWalk       = 250 // seed-spreader points per random walk
	// svCommitsPerSec sizes the pre-generated stream above the commit rate
	// this workload reaches on a 2-CPU host.
	svCommitsPerSec = 3_000
)

var serveWindow = &scenario{
	name:      "serve-window",
	exercises: []string{"engine commit path", "seam", "wal", "persist", "snapshot", "events", "core (small share)"},
	bypasses:  []string{"hotspot", "rebalance"},
	run:       runServeWindow,
}

type svStream struct {
	pts   []geom.Point // preload first, then svBatch per commit
	qSize []int        // reader query sizes
	qPick [][]uint32   // reader picks, scaled into the newest half of the window
}

func genServe(seed int64, commits, reads int) (*svStream, *streamHash) {
	rng := rand.New(rand.NewSource(seed))
	n := svPreload + commits*svBatch
	// Arrival order is the spreader's walk order: the window slides along
	// the walks, so each commit's churn is spatially local, as in a stream
	// of positions, and delta checkpoints stay small.
	pts := spreaderPoints(rng, svDims, n, svWalk, seed)
	st := &svStream{pts: pts}
	h := newStreamHash()
	for i, p := range pts {
		h.op('i', int64(i))
		h.point(p)
	}
	for i := 0; i < reads; i++ {
		size := svQMin + rng.Intn(svQMax-svQMin+1)
		pick := make([]uint32, size)
		for j := range pick {
			pick[j] = rng.Uint32()
		}
		st.qSize = append(st.qSize, size)
		st.qPick = append(st.qPick, pick)
		h.op('q', int64(size))
		for _, v := range pick {
			h.int(int64(v))
		}
	}
	return st, h
}

func svOptions() []dyndbscan.Option {
	return []dyndbscan.Option{
		dyndbscan.WithDims(svDims),
		dyndbscan.WithEps(svEps),
		dyndbscan.WithMinPts(svMinPts),
		dyndbscan.WithRho(svRho),
		dyndbscan.WithWorkers(2),
	}
}

// window is the writer's live handles, oldest first, shared with the reader.
type window struct {
	mu  sync.Mutex
	ids []dyndbscan.PointID
}

func (w *window) slide(add []dyndbscan.PointID, drop int) {
	w.mu.Lock()
	w.ids = append(w.ids[drop:], add...)
	w.mu.Unlock()
}

func (w *window) oldest(n int) []dyndbscan.PointID {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]dyndbscan.PointID(nil), w.ids[:n]...)
}

// pick maps the generated picks into the newest half of the window, which
// stays live for far longer than a query takes.
func (w *window) pick(dst []dyndbscan.PointID, picks []uint32) []dyndbscan.PointID {
	w.mu.Lock()
	defer w.mu.Unlock()
	half := len(w.ids) / 2
	for _, p := range picks {
		dst = append(dst, w.ids[half+int(uint64(p)*uint64(len(w.ids)-half)>>32)])
	}
	return dst
}

// coreAt is one PointBecameCore delivery.
type coreAt struct {
	id dyndbscan.PointID
	at time.Time
}

// svEngine is one set-up engine with its subscriber state.
type svEngine struct {
	e      *dyndbscan.Engine
	dir    string
	val    *evcheck.Validator
	mu     sync.Mutex
	cores  []coreAt
	handle []dyndbscan.PointID // preload handles
}

// newServeEngine is the set-up: New, the bulk preload and a base checkpoint.
func newServeEngine(r *runner, rep int, preload []geom.Point) (*svEngine, error) {
	sv := &svEngine{dir: filepath.Join(r.scratch, fmt.Sprintf("serve-wal-%d", rep)), val: evcheck.New()}
	opts := append(svOptions(),
		dyndbscan.WithShards(svShards),
		dyndbscan.WithWAL(sv.dir, dyndbscan.SyncEvery(svSync)),
		dyndbscan.WithWALCheckpointEvery(0)) // checkpoints come from the writer
	e, err := dyndbscan.New(opts...)
	if err != nil {
		return nil, err
	}
	sv.e = e
	for i := 0; i < len(preload); i += svChunk {
		ids, err := e.InsertBatch(preload[i:min(i+svChunk, len(preload))])
		if err != nil {
			e.Close()
			return nil, fmt.Errorf("preload: %w", err)
		}
		sv.handle = append(sv.handle, ids...)
	}
	if err := e.Checkpoint(); err != nil {
		e.Close()
		return nil, fmt.Errorf("base checkpoint: %w", err)
	}
	return sv, nil
}

// subscribe attaches the workload's one BlockSubscriber. The validator
// starts from the clusters live at that point.
func (sv *svEngine) subscribe(o *obs) {
	sv.val.Seed(sv.e.Snapshot().ClusterIDs())
	sv.e.Subscribe(func(ev dyndbscan.Event) {
		sv.val.Observe(ev)
		o.delivered.Add(1)
		if ev.Kind == dyndbscan.EventPointBecameCore {
			sv.mu.Lock()
			sv.cores = append(sv.cores, coreAt{ev.Point, time.Now()})
			sv.mu.Unlock()
		}
	})
}

func runServeWindow(r *runner) error {
	commits := int(r.seconds.Seconds()) * svCommitsPerSec
	if r.maxOps > 0 {
		commits = r.maxOps / (2 * svBatch)
	}
	reads := (int(r.seconds.Seconds()) + 1) * svReadRate
	st, h := genServe(r.seed, commits, reads)
	r.rep.StreamOps, r.rep.StreamHash = h.ops, h.sum()
	r.rep.Params = map[string]any{
		"dims": svDims, "eps": svEps, "min_pts": svMinPts, "rho": svRho, "shards": svShards,
		"preload": svPreload, "batch_inserts": svBatch, "batch_deletes": svBatch,
		"fresh_read_every": svFreshEvery, "checkpoint_every": svCkptEvery,
		"reader_rate_per_s": svReadRate, "query_size": []int{svQMin, svQMax},
		"flush_policy": "SyncEvery(2ms)", "compaction": "default (fresh base every 8th checkpoint)",
		"subscriber": "one BlockSubscriber, default buffer", "clients": "1 closed-loop writer + 1 open-loop reader",
		"generated_commits": commits, "setup_repeats": svSetups,
	}
	o := &obs{}
	tr := r.tr

	// Set-up, repeated; the last engine serves.
	var sv *svEngine
	var setups []float64
	for i := 0; i < svSetups; i++ {
		if sv != nil {
			sv.e.Close()
			os.RemoveAll(sv.dir)
			sv = nil
			liveHeap()
		}
		t0 := time.Now()
		var err error
		sv, err = newServeEngine(r, i, st.pts[:svPreload])
		t1 := time.Now()
		if err != nil {
			return err
		}
		setups = append(setups, t1.Sub(t0).Seconds())
		if i == svSetups-1 {
			tr.record("engine.setup", t0, t1, -1, -1)
		}
	}
	r.e2e("setup_s", median(setups), len(setups))
	e := sv.e
	sv.subscribe(o)
	var log ackLog
	for i := 0; i < svPreload; i += svChunk {
		var ops []ackOp
		for j := i; j < min(i+svChunk, svPreload); j++ {
			ops = append(ops, ackOp{Kind: 'i', Pt: st.pts[j], ID: sv.handle[j]})
		}
		log.commit(-1, ops...)
	}
	win := &window{ids: append([]dyndbscan.PointID(nil), sv.handle...)}

	// Reader: open loop at svReadRate, each query timed from its due time.
	var (
		qlat, late samples // written by the reader, read after readerDone
		qAttempts  int64
		qFailures  int64
		stop       = make(chan struct{})
		readerDone = make(chan struct{})
		readerTr   = tr.fork()
		phase      = tr.begin("timed")
	)
	start := time.Now()
	go func() {
		defer close(readerDone)
		interval := time.Second / svReadRate
		timer := time.NewTimer(0)
		defer timer.Stop()
		<-timer.C
		q := make([]dyndbscan.PointID, 0, svQMax)
		for i := 0; i < len(st.qSize); i++ {
			due := start.Add(time.Duration(i) * interval)
			timer.Reset(time.Until(due))
			select {
			case <-stop:
				return
			case <-timer.C:
			}
			begin := time.Now()
			late.add(begin.Sub(due))
			q = win.pick(q[:0], st.qPick[i])
			_, err := o.read(e, func() error { _, err := e.GroupBy(q); return err })
			end := time.Now()
			qAttempts++
			if err != nil {
				qFailures++
				continue
			}
			qlat.add(end.Sub(due))
			readerTr.record("engine.groupby", begin, end, phase, int64(i))
		}
	}()

	// Writer: closed loop.
	var (
		tl       timeline
		fresh    samples
		commitAt []time.Time
		minted   [][]dyndbscan.PointID
		ops      = make([]dyndbscan.Op, 0, 2*svBatch)
		next     = svPreload
		writeErr error
	)
	v0 := e.Version()
	o.start(e)
	c := 0
	for ; c < commits && !r.deadlineReached(start, c*2*svBatch); c++ {
		ops = ops[:0]
		for j := 0; j < svBatch; j++ {
			ops = append(ops, dyndbscan.InsertOp(st.pts[next+j]))
		}
		old := win.oldest(svBatch)
		for _, id := range old {
			ops = append(ops, dyndbscan.DeleteOp(id))
		}
		t0 := time.Now()
		res, err := e.Apply(ops)
		t1 := time.Now()
		r.op(err)
		if err != nil {
			writeErr = fmt.Errorf("commit %d: %w", c, err)
			break
		}
		tl.add(t1.Sub(start), t1.Sub(t0))
		tr.record("engine.apply", t0, t1, phase, int64(c))
		ids := res[:svBatch]
		commitAt = append(commitAt, t0)
		minted = append(minted, ids)
		batch := make([]ackOp, 0, 2*svBatch)
		for j, id := range ids {
			batch = append(batch, ackOp{Kind: 'i', Pt: st.pts[next+j], ID: id})
		}
		for _, id := range old {
			batch = append(batch, ackOp{Kind: 'd', ID: id})
		}
		log.commit(int64(c), batch...)
		next += svBatch
		win.slide(ids, svBatch)
		if r.trace {
			o.sampleWAL(e, c)
		}

		if c%svFreshEvery == svFreshEvery-1 {
			id := ids[c%svBatch]
			rt0 := time.Now()
			var live bool
			d, _ := o.read(e, func() error { _, live = e.ClusterOf(id); return nil })
			var rerr error
			if !live {
				rerr = fmt.Errorf("fresh read: handle %d not live", id)
			}
			r.op(rerr)
			fresh.add(d)
			tr.record("engine.clusterof", rt0, rt0.Add(d), phase, int64(c))
		}
		if c%svCkptEvery == svCkptEvery-1 {
			before := e.WALStats()
			ct0 := time.Now()
			err := e.Checkpoint()
			ct1 := time.Now()
			r.op(err)
			if err != nil {
				writeErr = fmt.Errorf("checkpoint after commit %d: %w", c, err)
				break
			}
			o.ckpt.add(ct1.Sub(ct0))
			tr.record("engine.checkpoint", ct0, ct1, phase, int64(c))
			if after := e.WALStats(); after.ChainDeltas > before.ChainDeltas {
				o.deltaBytes = append(o.deltaBytes, after.ChainBytes-before.ChainBytes)
			}
		}
	}
	wall := time.Since(start)
	close(stop)
	<-readerDone
	tr.end(phase)
	tr.absorb(readerTr)
	r.attempts += qAttempts
	r.failures += qFailures
	if writeErr != nil {
		e.Close()
		return writeErr
	}
	o.commits = e.Version() - v0
	o.upd, o.updOps = tl.lat, c*2*svBatch
	o.late = late
	r.rep.Params["timed_commits"] = c

	r.updates(&tl, wall, 2*svBatch)
	r.e2e("query_p50_us", qlat.quantile(0.50)/us, len(qlat))
	r.e2e("query_p99_us", qlat.quantile(0.99)/us, len(qlat))
	r.e2e("fresh_read_p50_us", fresh.quantile(0.50)/us, len(fresh))
	r.e2e("fresh_read_p99_us", fresh.quantile(0.99)/us, len(fresh))
	r.e2e("checkpoint_p50_ms", o.ckpt.quantile(0.50)/ms, len(o.ckpt))

	// Untimed from here: drain events, check, close, recover.
	t0 := time.Now()
	e.Sync()
	o.syncSpan = time.Since(t0)
	tr.record("engine.sync", t0, t0.Add(o.syncSpan), -1, -1)
	lag := eventLag(sv, commitAt, minted)
	r.e2e("event_lag_p50_us", lag.quantile(0.50)/us, len(lag))
	o.capture(e)

	r.rep.addCheck("event stream valid", sv.val.Err())
	r.rep.addCheck("event stream = snapshot", sv.val.ReconcileLive(e.Snapshot().ClusterIDs()))
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
	sv.e, e = nil, nil
	heapWithout := liveHeap()
	r.e2e("heap_bytes_per_point", float64(int64(heapWith)-int64(heapWithout))/float64(live), live)
	walBytes, err := dirBytes(sv.dir)
	if err != nil {
		return err
	}
	r.e2e("wal_bytes_per_update", float64(walBytes)/float64(svPreload+c*2*svBatch), svPreload+c*2*svBatch)

	if err := recoverAndCheck(r, o, sv.dir, before); err != nil {
		return err
	}

	ref, err := replaySingleShard(&log)
	if err != nil {
		return err
	}
	r.rep.addCheck("final = 1-shard engine", samePartition(before, ref))

	if r.trace {
		cr, err := replayCore(core.Config{Dims: svDims, Eps: svEps, MinPts: svMinPts, Rho: svRho}, &log, tr)
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

// eventLag returns, per commit, the time from the Apply call to the first
// PointBecameCore delivery naming a handle that Apply minted.
func eventLag(sv *svEngine, commitAt []time.Time, minted [][]dyndbscan.PointID) samples {
	sv.mu.Lock()
	first := make(map[dyndbscan.PointID]time.Time, len(sv.cores))
	for _, ca := range sv.cores {
		if _, ok := first[ca.id]; !ok {
			first[ca.id] = ca.at
		}
	}
	sv.mu.Unlock()
	var out samples
	for c, ids := range minted {
		var best time.Duration = -1
		for _, id := range ids {
			if at, ok := first[id]; ok {
				if d := at.Sub(commitAt[c]); best < 0 || d < best {
					best = d
				}
			}
		}
		if best >= 0 {
			out = append(out, int64(best))
		}
	}
	return out
}

// replaySingleShard feeds the acknowledged commit sequence into a 1-shard
// in-memory engine and returns its clustering in the original handles.
func replaySingleShard(log *ackLog) (core.Result, error) {
	e, err := dyndbscan.New(svOptions()...)
	if err != nil {
		return core.Result{}, err
	}
	defer e.Close()
	idmap := make(map[dyndbscan.PointID]dyndbscan.PointID, len(log.ops))
	var ops []dyndbscan.Op
	for c := 0; c < log.commits(); c++ {
		batch := log.batch(c)
		ops = ops[:0]
		for _, op := range batch {
			switch op.Kind {
			case 'i':
				ops = append(ops, dyndbscan.InsertOp(op.Pt))
			case 'd':
				ops = append(ops, dyndbscan.DeleteOp(idmap[op.ID]))
			}
		}
		res, err := e.Apply(ops)
		if err != nil {
			return core.Result{}, fmt.Errorf("1-shard replay of commit %d: %w", c, err)
		}
		for j, op := range batch {
			switch op.Kind {
			case 'i':
				idmap[op.ID] = res[j]
			case 'd':
				delete(idmap, op.ID)
			}
		}
	}
	back := make(map[dyndbscan.PointID]dyndbscan.PointID, len(idmap))
	for orig, mine := range idmap {
		back[mine] = orig
	}
	res, err := e.GroupAll()
	if err != nil {
		return core.Result{}, err
	}
	if len(back) != e.Len() {
		return core.Result{}, errors.New("1-shard replay lost track of handles")
	}
	return remap(res, func(id core.PointID) core.PointID { return back[id] }), nil
}
