package dyndbscan

// Contention-adaptive hot-stripe commit path.
//
// Load-aware placement (placement.go) moves hot stripes between shards, but a
// single stripe hotter than everything else combined still serializes every
// commit on its shard's lock. This file adds the Doppel-style answer: when a
// stripe's contention score — decayed update traffic plus observed lock waits
// on the shard commit path — crosses the HotspotPolicy threshold, the stripe
// enters *split phase*. Inserts targeting it are absorbed into the stripe's
// staged buffer — one slice, appended in mint order under routesMu — minted
// and made visible on the handle surface immediately but not yet applied to
// any backend, without ever taking the owning shard's lock; a reconciler
// periodically folds the staged deltas into the backend as one
// ordinary commit — WAL append before publication, one Version advance, one
// seam fold — so snapshots, events, replicas, and crash recovery never see a
// half-reconciled state. Density increments commute (with Rho = 0 the
// clustering is a pure function of the live point set), which is what makes
// deferring the folds sound.
//
// Join triggers, Doppel-style: deletes, clustering queries (Snapshot,
// GroupBy, GroupAll, ClusterOf), Sync, Checkpoint, and Close force a
// reconcile-then-proceed. The handle surface (Has, Len, IDs, delete
// validation) sees staged inserts immediately through stagedRoutes, so a
// staged point is never "missing" — only its clustering is deferred. A
// handle sits in exactly one of routes and stagedRoutes at every instant: the
// fold's route publication moves it from one to the other in one routesMu
// section.
//
// When split phase alone cannot win, load-aware rebalancing moves the stripe
// to another shard. That migration is the same for every sharded engine, with
// or without WithHotspot: it copies and trims in short rounds with commits
// admitted between them (placement.go: migrate). A stripe is never cut finer
// than the placement table's stripe width.
//
// Handle minting: staged inserts mint their handles at staging time, before
// their stripe's fold, so WAL record order no longer agrees with mint order.
// With hotspot enabled every sharded insert record therefore carries its
// handle explicitly (wal.OpInsertAt / wal.OpStagedInsert) and replay pins the
// mint counter past the replayed ids instead of re-minting — see
// walOpsFromShOps and Engine.applyRecord.
//
// Durability: a staged insert writes its wal.OpStagedInsert record at staging
// time, under routesMu, before the handle becomes visible — the same
// log-before-visible rule as the ordinary commit path (the ack may race the
// fsync under group commit, never the append). Staging still skips the
// owning-shard lock and the seam fold, which is where the hot-path win comes
// from; the reconcile fold later applies the staged batch as one ordinary
// commit but appends nothing, because every op in it is already logged.
// A kill -9 therefore loses no acked insert: recovery applies OpStagedInsert
// records directly (Engine.applyRecord), and each handle appears in the
// log exactly once.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dyndbscan/internal/core"
	"dyndbscan/internal/wal"
)

// HotspotPolicy tunes the contention-adaptive commit path of a sharded
// Engine (WithHotspot). Every zero field selects its default.
type HotspotPolicy struct {
	// ScoreThreshold is the per-stripe contention score (decayed update count
	// plus WaitWeight times decayed lock waits) above which a stripe enters
	// split phase. A stripe leaves split phase when its score decays below
	// half the threshold. Default 384.
	ScoreThreshold float64
	// WaitWeight is the score contribution of one observed lock wait on the
	// shard commit path — waits are the direct symptom of contention, so they
	// weigh far more than plain updates. Default 16.
	WaitWeight float64
	// CheckEvery is the detection cadence in commits: every CheckEvery-th
	// commit re-scores the stripes it touched. Default 16.
	CheckEvery int
	// ReconcileOps is the staged-insert depth per hot stripe that triggers a
	// background reconcile; it bounds both the memory held by staged deltas
	// and the work a forced join must absorb. Default 256.
	ReconcileOps int
	// SplitAfter is ignored: the engine no longer splits stripes.
	//
	// Deprecated: stripe splitting was removed; the field has no effect.
	SplitAfter int
	// SplitParts is ignored: the engine no longer splits stripes.
	//
	// Deprecated: stripe splitting was removed; the field has no effect.
	SplitParts int
	// MigrateChunk is ignored: every live migration copies and trims in
	// rounds bounded by a fixed time budget, whatever the stripe's size.
	//
	// Deprecated: the point-count migration tier was removed; the field has
	// no effect.
	MigrateChunk int
}

// DefaultHotspotPolicy returns the recommended policy.
func DefaultHotspotPolicy() HotspotPolicy {
	return HotspotPolicy{}.normalize()
}

// normalize fills the zero fields with their defaults.
func (p HotspotPolicy) normalize() HotspotPolicy {
	if p.ScoreThreshold == 0 {
		p.ScoreThreshold = 384
	}
	if p.WaitWeight == 0 {
		p.WaitWeight = 16
	}
	if p.CheckEvery == 0 {
		p.CheckEvery = 16
	}
	if p.ReconcileOps == 0 {
		p.ReconcileOps = 256
	}
	return p
}

// Join causes, as reported by HotspotStats.Joins.
const (
	joinThreshold  = "threshold"  // staged depth reached ReconcileOps
	joinCool       = "cool"       // stripe cooled below the exit threshold
	joinDelete     = "delete"     // a delete needed the stripe's points
	joinQuery      = "query"      // a clustering query forced visibility
	joinSync       = "sync"       // Engine.Sync
	joinCheckpoint = "checkpoint" // Engine.Checkpoint
	joinClose      = "close"      // Engine.Close
	joinWidth      = "width"      // reconcile preceding a stripe-width re-derivation
)

// stagedIns is one staged (absorbed, unreconciled) insert: the handle was
// minted and published on the handle surface, the point not yet applied.
type stagedIns struct {
	gid PointID
	sp  core.StagedPoint
}

// hotStripe is one stripe in split phase; guarded by routesMu.
type hotStripe struct {
	// ents holds the stripe's absorbed inserts awaiting reconciliation, in
	// mint order — the order of their OpStagedInsert records in the log — so
	// a fold applies them exactly as replay would. Each entry's only
	// durability is the staged-delta record written before it was appended
	// here; the stagedlog analyzer enforces that ordering.
	//
	//dynlint:staged-delta
	ents    []stagedIns
	cooling bool // flagged for demotion by the detector
}

// hotspotState is the engine-wide hotspot machinery, attached to shardSet
// when WithHotspot was given.
type hotspotState struct {
	pol HotspotPolicy

	// hotCount mirrors len(hot) and stagedTotal the staged-insert depth, as
	// atomics, so cold paths pay one load instead of routesMu.
	hotCount    atomic.Int32
	stagedTotal atomic.Int64

	// closing stops further diversion once Close begins draining: an insert
	// racing Close then takes the ordinary commit path, whose WAL append
	// fails once the log seals — so it errors instead of acking a point the
	// sealed log will never hear about.
	closing atomic.Bool

	// hot is the split-phase set; guarded by routesMu (like the placement
	// tables its membership modulates).
	//
	//dynlint:staged-only
	hot       map[int64]*hotStripe
	nextCheck uint64 // next detection commitSeq; guarded by routesMu

	// pausedStaging blocks new diversions while a checkpoint captures its
	// sequence horizon: staging appends its record under routesMu alone, so
	// without the pause a staged record could slip under the checkpoint's
	// LastSeq read after the join folded everything — covered by the
	// checkpoint, absent from its payload, lost on trim. A counter, not a
	// flag, so overlapping Checkpoint calls compose. Guarded by routesMu.
	pausedStaging int

	// reconcileMu serializes reconciles and joins. Barrier joins
	// (joinAllWait: Sync, Checkpoint, Close, deletes) block on it — waiting
	// out an in-flight reconcile is what guarantees their post-condition,
	// since that reconcile snapshotted its stripe list before ops staged
	// after it. Advisory joins (joinAll: query paths) and the cadence worker
	// acquire it with TryLock and skip when a reconcile is underway. Held
	// across whole reconcile commits (publication included), hence
	// may-block; see LOCKING.md.
	//
	//dynlint:lock-level 10 may-block
	reconcileMu sync.Mutex

	//dynlint:lock-level 120
	statsMu        sync.Mutex
	joins          map[string]uint64
	reconciles     uint64
	reconciledOps  uint64
	reconcileNanos int64
}

func newHotspotState(p HotspotPolicy) *hotspotState {
	return &hotspotState{
		pol:   p.normalize(),
		hot:   make(map[int64]*hotStripe),
		joins: make(map[string]uint64),
	}
}

// HotspotStats is the observability surface of the contention-adaptive
// commit path, reported by Engine.HotspotStats.
type HotspotStats struct {
	// Enabled is false (and everything else zero) without WithHotspot.
	Enabled bool
	// SplitPhase is the number of stripes currently in split phase.
	SplitPhase int
	// StagedOps is the number of staged inserts awaiting reconciliation.
	StagedOps int
	// Reconciles counts reconcile commits and ReconciledOps the staged
	// inserts they folded.
	Reconciles    uint64
	ReconciledOps uint64
	// Joins counts forced reconciles by cause ("threshold", "cool",
	// "delete", "query", "sync", "checkpoint", "close", "width").
	Joins map[string]uint64
	// Splits is always 0.
	//
	// Deprecated: stripe splitting was removed; no split is ever counted.
	Splits uint64
	// MeanReconcile is the mean wall time of a reconcile commit.
	MeanReconcile time.Duration
}

// HotspotStats returns the current counters of the contention-adaptive
// commit path; Enabled is false on engines without WithHotspot.
func (e *Engine) HotspotStats() HotspotStats {
	if e.sh.hs == nil {
		return HotspotStats{}
	}
	hs := e.sh.hs
	out := HotspotStats{
		Enabled:    true,
		SplitPhase: int(hs.hotCount.Load()),
		StagedOps:  int(hs.stagedTotal.Load()),
		Joins:      make(map[string]uint64),
	}
	hs.statsMu.Lock()
	out.Reconciles = hs.reconciles
	out.ReconciledOps = hs.reconciledOps
	for k, v := range hs.joins {
		out.Joins[k] = v
	}
	if hs.reconciles > 0 {
		out.MeanReconcile = time.Duration(hs.reconcileNanos / int64(hs.reconciles))
	}
	hs.statsMu.Unlock()
	return out
}

// hotRoute runs the split-phase diversion for a staged insert batch: under
// one routesMu section it walks the ops in order, minting every handle in op
// order (so handle sequences agree with a non-hotspot engine bit-for-bit),
// appending the inserts that target split-phase stripes to their stripes'
// staged buffers — in mint order, so a fold needs no sort — and returning the
// rest as pre-minted (forceGID) commit ops.
// The diverted inserts are logged as one wal.OpStagedInsert record *before*
// any staged state is written — log-before-visible holds on the staged path
// exactly as on the ordinary one. walSeq is that record's sequence (0 when
// nothing was logged); the caller owes it a wal.finish before acking.
// Every op's gid receives its handle; rest is nil when nothing was
// diverted, in which case no handle was minted either and the caller commits
// the batch through the ordinary minting path. A non-nil error is a refused
// staged-delta append: nothing was staged or applied (the minted ids are
// burned, which is harmless — replay reads handles instead of re-minting).
func (ss *shardSet) hotRoute(ops []shOp) (rest []shOp, diverted int, walSeq uint64, err error) {
	hs := ss.hs
	if hs == nil || hs.hotCount.Load() == 0 || hs.closing.Load() {
		return nil, 0, 0, nil
	}
	if w := ss.e.wal; w != nil && w.recovering {
		// Replay (Open), restores and replicas commit every record through
		// applyRecord and commitRouted, never through commitBatch: a
		// diversion here would defer the fold the record's position in the
		// log promises and re-log the op once the fold ran.
		panic("dyndbscan: hotRoute reached while recovering")
	}
	ss.routesMu.Lock()
	// closing re-checked under routesMu: drainStaged sets it and then takes
	// routesMu once, so any diversion that slipped past the atomic check
	// either stages before the drain's barrier or observes closing here.
	// pausedStaging is Checkpoint's equivalent barrier (see its field doc).
	if ss.adaptivePending || len(hs.hot) == 0 || hs.closing.Load() || hs.pausedStaging > 0 {
		ss.routesMu.Unlock()
		return nil, 0, 0, nil
	}
	anyHot := false
	for i := range ops {
		if _, hot := hs.hot[floorDiv(int64(ops[i].sp.Coord()[0]), ss.stripeCells)]; hot {
			anyHot = true
			break
		}
	}
	if !anyHot {
		ss.routesMu.Unlock()
		return nil, 0, 0, nil
	}
	// Pass 1: mint in op order and partition. Nothing is published yet —
	// the staged-delta record must hit the log first.
	rest = make([]shOp, 0, len(ops))
	var (
		staged  []stagedIns
		stripes []int64 // staged[i] targets stripes[i]
		wops    []wal.Op
	)
	logging := ss.e.logging()
	dims := ss.cfg.Dims
	for i := range ops {
		sp := ops[i].sp
		gid := ss.nextID
		ss.nextID++
		ops[i].gid = gid
		t := floorDiv(int64(sp.Coord()[0]), ss.stripeCells)
		if _, hot := hs.hot[t]; hot {
			staged = append(staged, stagedIns{gid, sp})
			stripes = append(stripes, t)
			if logging {
				wops = append(wops, wal.Op{Kind: wal.OpStagedInsert, Coord: sp.Point()[:dims], ID: int64(gid)})
			}
			continue
		}
		rest = append(rest, shOp{insert: true, forceGID: true, sp: sp, gid: gid})
	}
	// Staged-delta append: one record for the whole diverted set, under the
	// same routesMu section that minted the handles — record order agrees
	// with mint order, and the append precedes every staged-state write
	// below. The owning shard's lock and the seam fold are still skipped;
	// that is the hot-path win, and it survives the append (wal.Log has its
	// own lock, level 110 > routesMu's 50).
	if len(wops) > 0 {
		seq, werr := ss.e.wal.append(wops)
		if werr != nil {
			ss.routesMu.Unlock()
			return nil, 0, 0, werr
		}
		walSeq = seq
	}
	// Pass 2: publish the staged state — each entry onto its stripe's
	// buffer and its handle into the staged route table. No load charge
	// here: the reconcile commit charges these ops (points and decayed
	// updates) exactly once when it folds them.
	for i, st := range staged {
		h := hs.hot[stripes[i]]
		h.ents = append(h.ents, st)
		ss.stagedRoutes[st.gid] = stripes[i]
	}
	hs.stagedTotal.Add(int64(len(staged)))
	diverted = len(staged)
	ss.routesMu.Unlock()
	return rest, diverted, walSeq, nil
}

// stagedVisible reports whether unreconciled staged inserts exist — the
// clustering queries consult it to decide whether a cached snapshot may
// answer or a join must run first (staged inserts do not advance the
// version).
func (ss *shardSet) stagedVisible() bool {
	return ss.hs != nil && ss.hs.stagedTotal.Load() > 0
}

// joinAll is the advisory join of the clustering query paths: it folds every
// staged delta it can get the reconcile lock for, and skips when another
// reconcile is in flight. That is sound for queries — missing a concurrently
// staged insert is linearizable to a moment before its reconcile — but NOT
// for Sync/Checkpoint/Close/deletes, whose post-condition is "nothing staged
// from before the call": the in-flight reconcile snapshotted its stripe list
// before ops staged after it, so it does not subsume the join. Those callers
// use joinAllWait. cause labels the trigger in HotspotStats.
func (ss *shardSet) joinAll(cause string) {
	hs := ss.hs
	if hs == nil || hs.stagedTotal.Load() == 0 {
		return
	}
	if !hs.reconcileMu.TryLock() {
		return
	}
	defer hs.reconcileMu.Unlock()
	ss.foldAllLocked(cause)
}

// joinAllWait is the barrier join (Sync, Checkpoint, Close, deletes): it
// waits out any in-flight reconcile, then folds every stripe with staged
// deltas. Everything staged before the call is in the snapshot taken after
// the lock is held, so on return no pre-call staged delta remains. Callers
// must not hold reconcileMu (it is non-reentrant) or any engine lock —
// the folds take worldMu, shard locks, and routesMu.
func (ss *shardSet) joinAllWait(cause string) {
	hs := ss.hs
	if hs == nil || hs.stagedTotal.Load() == 0 {
		// stagedTotal only reaches 0 after the folds that drained it fully
		// committed (reconcileStripe decrements it after its commit), so a
		// zero read means there is nothing pre-call left to wait for.
		return
	}
	hs.reconcileMu.Lock()
	defer hs.reconcileMu.Unlock()
	ss.foldAllLocked(cause)
}

// foldAllLocked folds every stripe that currently holds staged deltas.
// Caller holds reconcileMu.
func (ss *shardSet) foldAllLocked(cause string) {
	hs := ss.hs
	ss.routesMu.Lock()
	stripes := make([]int64, 0, len(hs.hot))
	for t, h := range hs.hot {
		if len(h.ents) > 0 {
			stripes = append(stripes, t)
		}
	}
	ss.routesMu.Unlock()
	for _, t := range stripes {
		ss.reconcileStripe(t, cause)
	}
}

// reconcileStripe folds one stripe's staged deltas into the backends as one
// ordinary commit. Caller holds reconcileMu.
func (ss *shardSet) reconcileStripe(t int64, cause string) {
	hs := ss.hs
	ss.routesMu.Lock()
	h := hs.hot[t]
	if h == nil || len(h.ents) == 0 {
		ss.routesMu.Unlock()
		return
	}
	batch := h.ents
	h.ents = nil
	ss.routesMu.Unlock()

	ops := make([]shOp, len(batch))
	for i, st := range batch {
		ops[i] = shOp{insert: true, forceGID: true, logged: true, sp: st.sp, gid: st.gid}
	}
	start := time.Now()
	// The fold rides the ordinary commit path — one Version advance, one
	// seam fold — but appends nothing: every op carries logged, its
	// OpStagedInsert record was written at staging time, and re-logging
	// would double-apply on replay. With no append and no delete to
	// re-validate, the commit has no failure mode left: backends cannot
	// reject staged pre-validated inserts. commitRouted, which skips the
	// checkpoint cadence, is required here — reconcileMu is held, and the
	// cadence would take a blocking join on it. The commit's route
	// publication moves each handle from stagedRoutes to routes.
	if _, err := ss.commitRouted(ops, nil); err != nil {
		panic(fmt.Sprintf("dyndbscan: reconcile fold failed on an append-free commit: %v", err))
	}
	hs.stagedTotal.Add(int64(-len(batch)))

	hs.statsMu.Lock()
	hs.reconciles++
	hs.reconciledOps += uint64(len(batch))
	hs.reconcileNanos += int64(time.Since(start))
	hs.joins[cause]++
	hs.statsMu.Unlock()
}

// hotCommit commits a pure-insert staged batch through the split-phase
// diversion, writing every handle into ops[i].gid. diverted=false means no
// op targeted a hot stripe (and no handle was minted): the caller commits
// through the ordinary path. Otherwise ok and err follow commitBatch:
// ok=false is a refused staged-delta append (nothing staged, nothing
// applied); ok=true with a non-nil err is a durability failure of the
// committed parts (staged deltas logged, remainder committed, fsync
// refused) — in every case the log never acks less than the caller was
// told.
func (ss *shardSet) hotCommit(ops []shOp) (diverted, ok bool, err error) {
	rest, n, walSeq, err := ss.hotRoute(ops)
	if err != nil {
		return true, false, err
	}
	if n == 0 {
		return false, false, nil
	}
	// Durability barrier for the staged-delta record, mirroring commitRouted:
	// under SyncAlways the ack waits for the record's fsync, so no staged
	// handle is ever returned ahead of its durability.
	werr := ss.e.wal.finish(walSeq)
	if len(rest) > 0 {
		_, err = ss.commitRouted(rest, nil)
	} else {
		// Fully diverted batches never reach commitRouted, whose epilogue
		// normally runs the deferred hotspot work; run it from here so a
		// pure hot-stripe workload still reconciles on cadence. (Safe: this
		// goroutine holds no lock, and in particular not reconcileMu.)
		ss.maybeHotspotReconcile()
	}
	if err == nil {
		err = werr
	}
	return true, true, err
}

// joinForDelete folds staged deltas when a delete targets a staged handle:
// a delete of an acked handle must find its point, so it takes the barrier
// join (joinAllWait), which waits out any in-flight fold instead of skipping.
// The check runs first so that deletes of already-reconciled (or
// never-staged) points — the common case when churn expires old data while a
// different region is hot — pass through without forcing a join. One join
// suffices: the targets were staged before the call (handles are never
// re-minted), and a fold's route publication moves each handle out of
// stagedRoutes in the same routesMu section that sets its route.
func (ss *shardSet) joinForDelete(ops []shOp) {
	if ss.hs == nil {
		return
	}
	ss.routesMu.Lock()
	pending := false
	for i := range ops {
		if _, st := ss.stagedRoutes[ops[i].gid]; st && !ops[i].insert {
			pending = true
			break
		}
	}
	ss.routesMu.Unlock()
	if pending {
		ss.joinAllWait(joinDelete)
	}
}

// drainStaged reconciles until no staged delta remains — Engine.Close's
// barrier before the WAL seals, so a clean shutdown folds every staged
// insert into its backend (the records themselves were already durable at
// staging time).
func (ss *shardSet) drainStaged() {
	hs := ss.hs
	if hs == nil {
		return
	}
	hs.closing.Store(true) // no new diversions; racing inserts commit or error
	ss.routesMu.Lock()     // barrier: in-flight diversions stage before this, later ones see closing
	ss.routesMu.Unlock()
	for hs.stagedTotal.Load() > 0 {
		// One barrier join folds everything staged before it; with closing
		// set nothing new can stage, so the loop terminates.
		ss.joinAllWait(joinClose)
	}
}

// noteHotspotLocked is the detection step, run inside commitBatch's
// publication section (routesMu held) every CheckEvery commits: stripes whose
// contention score crossed the threshold enter split phase; split-phase
// stripes whose score decayed below half of it are flagged for demotion
// (the demotion itself — a join — runs after the commit releases its locks,
// in maybeHotspotReconcile).
func (ss *shardSet) noteHotspotLocked() {
	hs := ss.hs
	if hs == nil || ss.commitSeq < hs.nextCheck || ss.adaptivePending {
		return
	}
	hs.nextCheck = ss.commitSeq + uint64(hs.pol.CheckEvery)
	for t, st := range ss.stripeLoad {
		st.decayTo(ss.commitSeq)
		score := st.updates + hs.pol.WaitWeight*st.waits
		if h, hot := hs.hot[t]; hot {
			if score < hs.pol.ScoreThreshold/2 {
				h.cooling = true
			}
			continue
		}
		if score < hs.pol.ScoreThreshold {
			continue
		}
		hs.hot[t] = new(hotStripe)
		hs.hotCount.Add(1)
	}
}

// maybeHotspotReconcile runs the deferred hotspot work on the committing (or
// staging) goroutine after every lock has been released: threshold-triggered
// reconciles and demotions of cooled stripes. The TryLock collapses
// concurrent triggers into one worker.
func (ss *shardSet) maybeHotspotReconcile() {
	hs := ss.hs
	if hs == nil || hs.hotCount.Load() == 0 {
		return
	}
	if w := ss.e.wal; w != nil && w.recovering {
		return
	}
	if !hs.reconcileMu.TryLock() {
		return
	}
	defer hs.reconcileMu.Unlock()

	ss.routesMu.Lock()
	var due, cooled []int64
	for t, h := range hs.hot {
		switch {
		case h.cooling:
			cooled = append(cooled, t)
		case len(h.ents) >= hs.pol.ReconcileOps:
			due = append(due, t)
		}
	}
	ss.routesMu.Unlock()

	for _, t := range due {
		ss.reconcileStripe(t, joinThreshold)
	}
	for _, t := range cooled {
		ss.reconcileStripe(t, joinCool)
		ss.routesMu.Lock()
		if h := hs.hot[t]; h != nil && len(h.ents) == 0 {
			delete(hs.hot, t)
			hs.hotCount.Add(-1)
		}
		ss.routesMu.Unlock()
	}
}
