package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dyndbscan"
	"dyndbscan/internal/core"
)

// obs gathers what a run observes at the boundaries of the engine's layers.
// The per-layer metrics of a traced run are computed from it.
type obs struct {
	upd     samples // engine update calls (Insert, Delete, Apply)
	updOps  int     // updates those calls carried
	commits uint64  // Version advance over the timed phase

	readMu   sync.Mutex
	stale    samples // reads after Version moved: a snapshot build
	cached   samples // reads at an unchanged Version
	lastRead atomic.Uint64

	ckpt        samples
	deltaBytes  []int64 // chain growth of each delta capture
	lagSum      float64 // LastSeq − DurableSeq, every walSampleEvery commits
	lagN        int
	delivered   atomic.Int64
	syncSpan    time.Duration
	late        samples // open-loop lateness of the reader
	walStats    dyndbscan.WALStats
	hot0        dyndbscan.HotspotStats // at the start of the timed phase
	hotStats    dyndbscan.HotspotStats
	loads       []dyndbscan.ShardLoad
	stripeCells int
	recovered   dyndbscan.WALStats
}

// read runs one read and classifies it by whether the engine's Version
// moved since the last completed read: a moved Version makes the read build
// a snapshot on a sharded engine; an unchanged one is served from the cache.
func (o *obs) read(e *dyndbscan.Engine, f func() error) (time.Duration, error) {
	v := e.Version() + 1 // +1: the zero value means no read yet
	stale := o.lastRead.Load() != v
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	o.lastRead.Store(v)
	o.readMu.Lock()
	if stale {
		o.stale.add(d)
	} else {
		o.cached.add(d)
	}
	o.readMu.Unlock()
	return d, err
}

// walSampleEvery is the commit cadence of the durable-lag samples: WALStats
// lists the log directory, too slow to call after every commit.
const walSampleEvery = 32

// sampleWAL records the durable lag after the commit-th commit of one
// goroutine. Only one goroutine may sample an obs.
func (o *obs) sampleWAL(e *dyndbscan.Engine, commit int) {
	if commit%walSampleEvery != 0 {
		return
	}
	st := e.WALStats()
	o.lagSum += float64(st.LastSeq - st.DurableSeq)
	o.lagN++
}

// start records the counters the timed phase's figures are taken from.
func (o *obs) start(e *dyndbscan.Engine) {
	o.hot0 = e.HotspotStats()
}

// capture records the engine-side counters before the engine is closed.
func (o *obs) capture(e *dyndbscan.Engine) {
	o.walStats = e.WALStats()
	o.hotStats = e.HotspotStats()
	o.loads = e.ShardLoads()
	o.stripeCells = e.StripeCells()
}

// recoverAndCheck times Open on the log a closed engine left in dir and
// checks that the recovered clustering is the one before Close.
func recoverAndCheck(r *runner, o *obs, dir string, before core.Result) error {
	t0 := time.Now()
	e, err := dyndbscan.Open(dir, dyndbscan.WithWorkers(2))
	t1 := time.Now()
	r.op(err)
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	r.tr.record("engine.open", t0, t1, -1, -1)
	r.e2e("recovery_s", t1.Sub(t0).Seconds(), 1)
	o.recovered = e.WALStats()
	after, err := e.GroupAll()
	r.op(err)
	e.Close()
	if err != nil {
		return fmt.Errorf("GroupAll after Open: %w", err)
	}
	r.rep.addCheck("recovered = before Close", samePartition(before, after))
	return nil
}

// reportLayers records every per-layer metric that obs and the direct
// replays measured. cr is the core replay of the acknowledged stream.
func reportLayers(r *runner, o *obs, cr *coreReplay) {
	cr.report(r)

	// engine: the commit path, measured around the update calls.
	engBusy := o.upd.sum()
	coreUpd := cr.ins.sum() + cr.del.sum()
	r.layer("engine.update_us", o.upd.mean()/us, "us", len(o.upd))
	r.layer("engine.update_p99_us", o.upd.quantile(0.99)/us, "us", len(o.upd))
	r.layer("engine.busy_s", engBusy/s, "s", len(o.upd))
	r.layer("engine.commits", float64(o.commits), "count", 0)
	if o.commits > 0 {
		r.layer("engine.ops_per_commit", float64(o.updOps)/float64(o.commits), "ratio", 0)
	} else {
		r.layer("engine.ops_per_commit", 0, "ratio", 0)
	}
	if engBusy > 0 {
		r.layer("engine.overhead_share", 1-coreUpd/engBusy, "ratio", len(o.upd))
	}

	// snapshot: reads split by whether they had to build.
	builds := len(o.stale)
	r.layer("snapshot.builds", float64(builds), "count", 0)
	if builds > 0 {
		r.layer("snapshot.reads_per_build", float64(builds+len(o.cached))/float64(builds), "ratio", 0)
		r.layer("snapshot.stale_read_us", o.stale.mean()/us, "us", builds)
		r.layer("snapshot.stale_read_p99_us", o.stale.quantile(0.99)/us, "us", builds)
	} else {
		r.layer("snapshot.reads_per_build", 0, "ratio", 0)
		r.absent("snapshot.stale_read_us")
		r.absent("snapshot.stale_read_p99_us")
	}
	if len(o.cached) > 0 {
		r.layer("snapshot.cached_read_ns", o.cached.mean(), "ns", len(o.cached))
	} else {
		r.absent("snapshot.cached_read_ns")
	}

	// persist: checkpoints and recovery.
	ws := o.walStats
	r.layer("persist.checkpoints", float64(ws.Checkpoints), "count", 0)
	r.layer("persist.chain_deltas", float64(ws.ChainDeltas), "count", 0)
	r.layer("persist.chain_bytes", float64(ws.ChainBytes), "B", 0)
	var db samples
	for _, b := range o.deltaBytes {
		db = append(db, b)
	}
	r.layer("persist.delta_bytes_per_capture", db.mean(), "B", len(db))
	r.layer("persist.replayed", float64(o.recovered.Replayed), "count", 0)
	if len(o.ckpt) > 0 {
		r.layer("persist.checkpoint_ms", o.ckpt.mean()/ms, "ms", len(o.ckpt))
		r.layer("persist.checkpoint_max_ms", o.ckpt.quantile(1)/ms, "ms", len(o.ckpt))
	} else {
		r.absent("persist.checkpoint_ms")
		r.absent("persist.checkpoint_max_ms")
	}
	if o.recovered.Enabled {
		rt := o.recovered.RecoveryTime.Seconds()
		r.layer("persist.restore_s", rt, "s", 1)
		if rt > 0 {
			r.layer("persist.replay_records_per_s", float64(o.recovered.Replayed)/rt, "1/s", 1)
		}
	} else {
		r.absent("persist.restore_s")
		r.absent("persist.replay_records_per_s")
	}

	// wal: the engine's own log counters (timings come from the replay).
	r.layer("wal.records", float64(ws.LastSeq), "count", 0)
	r.layer("wal.segments", float64(ws.Segments), "count", 0)
	lag := 0.0
	if o.lagN > 0 {
		lag = o.lagSum / float64(o.lagN)
	}
	r.layer("wal.durable_lag_records", lag, "records", o.lagN)

	// events: delivery to the subscriber.
	delivered := o.delivered.Load()
	r.layer("events.delivered", float64(delivered), "count", 0)
	perCommit := 0.0
	if o.commits > 0 {
		perCommit = float64(delivered) / float64(o.commits)
	}
	r.layer("events.per_commit", perCommit, "ratio", 0)
	r.layer("events.sync_us", float64(o.syncSpan)/us, "us", 1)

	// placement and hotspot: shard balance and the staged commit path.
	shardSkew, updSkew := 0.0, 0.0
	if len(o.loads) > 0 {
		shardSkew = skew(o.loads, func(l dyndbscan.ShardLoad) float64 { return float64(l.Points) })
		updSkew = skew(o.loads, func(l dyndbscan.ShardLoad) float64 { return l.Updates })
	}
	r.layer("placement.shard_skew", shardSkew, "ratio", len(o.loads))
	r.layer("placement.update_skew", updSkew, "ratio", len(o.loads))
	r.layer("placement.stripe_cells", float64(o.stripeCells), "count", 0)
	// Hotspot counts cover the timed phase and the Sync that ends it.
	hs, h0 := o.hotStats, o.hot0
	inserts := len(cr.ins)
	staged := 0.0
	if inserts > 0 {
		staged = float64(hs.ReconciledOps-h0.ReconciledOps) / float64(inserts)
	}
	r.layer("hotspot.staged_frac", staged, "ratio", inserts)
	r.layer("hotspot.reconciles", float64(hs.Reconciles-h0.Reconciles), "count", 0)
	if hs.Reconciles > 0 {
		r.layer("hotspot.reconcile_us", float64(hs.MeanReconcile)/us, "us", int(hs.Reconciles))
	} else {
		r.absent("hotspot.reconcile_us")
	}
	for _, cause := range []string{"threshold", "cool", "delete", "query", "sync", "checkpoint", "close", "split"} {
		r.layer("hotspot.joins."+cause, float64(hs.Joins[cause]-h0.Joins[cause]), "count", 0)
	}
	r.layer("hotspot.splits", float64(hs.Splits-h0.Splits), "count", 0)

	// client: the load generator itself.
	if len(o.late) > 0 {
		r.layer("client.late_p99_us", o.late.quantile(0.99)/us, "us", len(o.late))
	} else {
		r.absent("client.late_p99_us")
	}
	r.layer("client.ops_attempted", float64(r.attempts), "count", 0)
	r.layer("client.ops_failed", float64(r.failures), "count", 0)
}

// skew is max/mean of a per-shard quantity; 0 when every shard is empty.
func skew(loads []dyndbscan.ShardLoad, f func(dyndbscan.ShardLoad) float64) float64 {
	var sum, hi float64
	for _, l := range loads {
		v := f(l)
		sum += v
		hi = max(hi, v)
	}
	if sum == 0 {
		return 0
	}
	return hi / (sum / float64(len(loads)))
}
