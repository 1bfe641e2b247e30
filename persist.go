package dyndbscan

// Durability: WithWAL attaches a write-ahead log to an Engine, Open recovers
// an Engine from one, and OpenReplica (replica.go) tails one.
//
// One WAL record is written per commit — the batch's operations in commit
// order, appended inside the same critical section that orders the commit
// (under routesMu, while the shard locks are held). That makes the log's
// record order agree with handle-mint order and with every shard's apply
// order, which is the whole durability argument: the engines are
// deterministic functions of their op streams (inserts re-mint identical
// handles, cluster identities evolve identically), so replaying the records
// sequentially through the ordinary Apply pipeline reconstructs the
// pre-crash state — same handles, same stable ClusterIDs — even though the
// original commits ran concurrently.
// Commits on disjoint shards commute, so any serialization the log captured
// is equivalent to the concurrent execution it observed.
//
// Durability policy is per-commit fsync (SyncAlways) or group commit
// (SyncEvery): appends only buffer, and a background flusher fsyncs on the
// configured cadence, bounding loss to one interval. Either way a record is
// appended before the commit's state change and its events publish; under
// SyncAlways the commit also waits for the fsync before returning.
//
// Checkpoints bound replay: Engine.Checkpoint serializes the live state
// (points, counters, cluster-id assignment, stripe placement) and hands it
// to the log, which trims the segments behind it. Restore rebuilds the
// backends by re-inserting the checkpointed points and then grafts the
// stored cluster identities back on by membership matching — exact under
// Rho = 0, maximum-overlap under Rho > 0 (where a rebuild is itself a legal
// ρ-approximate re-clustering of the same points).

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"dyndbscan/internal/wal"
)

// ErrNoWAL is returned by Checkpoint and WALStats-dependent operations on an
// Engine constructed without WithWAL.
var ErrNoWAL = errors.New("dyndbscan: engine has no write-ahead log (use WithWAL)")

// defaultSyncInterval is the group-commit flush cadence when SyncEvery's
// duration is not chosen explicitly (the zero SyncPolicy).
const defaultSyncInterval = 5 * time.Millisecond

// defaultCheckpointEvery is the automatic checkpoint cadence in commits.
const defaultCheckpointEvery = 4096

// SyncPolicy selects when WAL records become durable. The zero value is
// group commit at the default interval; construct values with SyncAlways and
// SyncEvery.
type SyncPolicy struct {
	always   bool
	interval time.Duration
}

// SyncAlways returns the per-commit fsync policy: every update blocks until
// its record is on stable storage before it returns (and before its events
// publish). No committed update is ever lost, at a per-commit fsync cost —
// concurrent committers still share fsync cycles (group commit falls out of
// the log's WaitDurable batching).
func SyncAlways() SyncPolicy { return SyncPolicy{always: true} }

// SyncEvery returns the group-commit policy: records buffer in memory and a
// background flusher fsyncs every d. Updates never block on the disk; a
// crash loses at most the last d of commits. d ≤ 0 selects the default
// interval.
func SyncEvery(d time.Duration) SyncPolicy {
	if d <= 0 {
		d = defaultSyncInterval
	}
	return SyncPolicy{interval: d}
}

// String renders the policy for logs.
func (p SyncPolicy) String() string {
	if p.always {
		return "always"
	}
	if p.interval <= 0 {
		return fmt.Sprintf("every %v", defaultSyncInterval)
	}
	return fmt.Sprintf("every %v", p.interval)
}

// normalize resolves the zero value to the default group-commit interval.
func (p SyncPolicy) normalize() SyncPolicy {
	if !p.always && p.interval <= 0 {
		p.interval = defaultSyncInterval
	}
	return p
}

// WithWAL attaches a write-ahead log in dir to the Engine under
// construction. The directory must not already hold a log (ErrExists
// otherwise — recover an existing log with Open, never by constructing over
// it). Every committed update is logged before it publishes; p selects the
// durability policy (the zero SyncPolicy is group commit at the default
// interval). Requires one of the built-in algorithms.
func WithWAL(dir string, p SyncPolicy) Option {
	return func(s *engineSettings) {
		if dir == "" {
			s.setErr(errors.New("dyndbscan: WithWAL: empty directory"))
			return
		}
		s.walDir = dir
		s.walPolicy = p
	}
}

// WithWALSync overrides the durability policy alone — the form Open accepts,
// since Open's log directory is its own argument.
func WithWALSync(p SyncPolicy) Option {
	return func(s *engineSettings) {
		s.walPolicy = p
		s.walTuned = true
	}
}

// WithWALCheckpointEvery sets how many commits may pass between automatic
// snapshot checkpoints (default 4096). A checkpoint serializes the live
// state and lets the log trim the segments behind it, bounding both disk
// growth and recovery replay time. 0 disables automatic checkpoints;
// Engine.Checkpoint always works explicitly.
func WithWALCheckpointEvery(n int) Option {
	return func(s *engineSettings) {
		if n < 0 {
			s.setErr(fmt.Errorf("dyndbscan: WithWALCheckpointEvery(%d): cadence cannot be negative", n))
			return
		}
		s.walCkptEvery = n
		s.walCkptSet = true
		s.walTuned = true
	}
}

// WithWALSegmentBytes sets the log's segment rotation threshold (default
// 4 MiB). Smaller segments trim more eagerly behind checkpoints; larger ones
// reduce file churn.
func WithWALSegmentBytes(n int64) Option {
	return func(s *engineSettings) {
		if n <= 0 {
			s.setErr(fmt.Errorf("dyndbscan: WithWALSegmentBytes(%d): threshold must be positive", n))
			return
		}
		s.walSegBytes = n
		s.walTuned = true
	}
}

// validateWAL holds the WAL-specific cross-option checks; called from
// engineSettings.validate.
func (s *engineSettings) validateWAL() error {
	if s.walDir == "" && !s.opening && s.walTuned {
		return errors.New("dyndbscan: WAL tuning options require WithWAL")
	}
	return nil
}

// walState is the Engine's durability attachment.
type walState struct {
	log       *wal.Log
	policy    SyncPolicy
	ckptEvery int

	// compactEvery is the checkpoint-chain compaction cadence: a fresh full
	// (base) checkpoint every n-th capture, deltas in between (deltackpt.go).
	compactEvery int
	// dirty is the change ledger: the inter-checkpoint change set the delta
	// capture serializes.
	dirty ckptDirty

	// recovering suppresses appends while Open replays the log through the
	// ordinary Apply pipeline. Written only before the Engine escapes Open.
	recovering bool

	sinceCkpt atomic.Uint64 // commits since the last checkpoint
	ckpting   atomic.Bool   // auto-checkpoint in flight (CAS-guarded)
	//dynlint:lock-level 20 may-block
	ckptMu sync.Mutex    // serializes checkpoint bodies (held across checkpoint I/O by design)
	ckpts  atomic.Uint64 // checkpoints written by this engine

	stopFlush chan struct{} // nil under SyncAlways
	flushDone chan struct{}
	closeOnce sync.Once
	closeErr  error

	recoveryTime time.Duration
	replayed     int
}

// finish completes a logged commit after its critical section released:
// under SyncAlways it blocks until the record is fsynced (concurrent
// waiters share cycles). seq 0 means nothing was logged (no WAL, or replay).
func (w *walState) finish(seq uint64) error {
	if w == nil || seq == 0 {
		return nil
	}
	w.sinceCkpt.Add(1)
	if w.policy.always {
		if err := w.log.WaitDurable(seq); err != nil {
			return fmt.Errorf("dyndbscan: wal sync: %w", err)
		}
	}
	return nil
}

// append logs one committed op batch; the caller is inside the commit's
// ordering critical section.
//
//dynlint:wal-append
func (w *walState) append(ops []wal.Op) (uint64, error) {
	seq, err := w.log.Append(ops)
	if err != nil {
		return 0, fmt.Errorf("dyndbscan: wal append: %w", err)
	}
	return seq, nil
}

// logging reports whether commits should append records right now.
func (e *Engine) logging() bool {
	return e.wal != nil && !e.wal.recovering
}

// maybeCheckpoint runs an automatic checkpoint when the commit counter
// passed the cadence; at most one runs at a time (CAS), on the committing
// goroutine, holding no engine lock on entry. Failures are deliberately
// dropped: a missed checkpoint only delays trimming, and the next commit
// retries.
func (e *Engine) maybeCheckpoint() {
	w := e.wal
	if w == nil || w.ckptEvery <= 0 || w.sinceCkpt.Load() < uint64(w.ckptEvery) {
		return
	}
	if !w.ckpting.CompareAndSwap(false, true) {
		return
	}
	defer w.ckpting.Store(false)
	if w.sinceCkpt.Load() < uint64(w.ckptEvery) {
		return
	}
	w.sinceCkpt.Store(0)
	_ = e.Checkpoint()
}

// Checkpoint serializes the Engine's live state (points, id counters,
// cluster-identity assignment, and — sharded — the stripe placement) as a
// WAL checkpoint, letting the log trim every segment the snapshot covers.
// Recovery then restores the checkpoint and replays only the records after
// it. Safe to call concurrently with updates; a no-op before the first
// logged commit. ErrNoWAL without WithWAL.
func (e *Engine) Checkpoint() error {
	w := e.wal
	if w == nil {
		return ErrNoWAL
	}
	if ss := e.sh; ss.hs != nil {
		// Checkpoint is a hotspot join trigger: staged deltas fold first, so
		// the checkpoint never covers an acked insert that is in neither the
		// payload nor the records after it. Two pieces make that airtight:
		// the barrier join (joinAllWait) waits out an in-flight fold that
		// snapshotted its stripes before later-staged ops, and the staging
		// pause closes the window where a *new* diversion could append its
		// staged-delta record under routesMu alone — below the LastSeq the
		// payload will claim to cover, yet absent from the payload. Paused
		// batches fall through to the ordinary commit path, which blocks on
		// worldMu while the capture holds it exclusively.
		// (A fold's own nested commit never re-enters here: folds run
		// commitRouted, which skips maybeCheckpoint, so the blocking join
		// cannot self-deadlock on reconcileMu.)
		ss.routesMu.Lock()
		ss.hs.pausedStaging++
		ss.routesMu.Unlock()
		defer func() {
			ss.routesMu.Lock()
			ss.hs.pausedStaging--
			ss.routesMu.Unlock()
		}()
		ss.joinAllWait(joinCheckpoint)
	}
	w.ckptMu.Lock()
	defer w.ckptMu.Unlock()
	// Chain policy: ride the current base with a delta unless the chain is
	// due for compaction (every compactEvery-th checkpoint is a fresh base,
	// letting the log trim the chain's history). The capture may still fall
	// back to a full payload when the change set is unbounded or not small.
	chain := w.log.Chain()
	wantDelta := chain.BaseSeq != 0 && w.compactEvery > 1 && chain.Deltas+1 < w.compactEvery
	if wantDelta && w.log.LastSeq() <= w.log.CheckpointSeq() {
		// Nothing was logged since the chain's tip: there is no churn to
		// serialize, and an empty delta is not writable (its seq would not
		// advance the chain).
		return nil
	}
	seq, payload, isDelta := e.capture(wantDelta)
	if seq == 0 {
		return nil
	}
	if isDelta && seq <= w.log.CheckpointSeq() {
		return nil // raced to the tip: no records past it, nothing to cover
	}
	var err error
	if isDelta {
		err = w.log.WriteDeltaCheckpoint(seq, payload)
	} else {
		err = w.log.WriteCheckpoint(seq, payload)
	}
	if err != nil {
		// The capture drained the change ledger; with the write lost, the
		// next capture can no longer trust a delta baseline.
		w.markDirtyFull()
		return err
	}
	w.ckpts.Add(1)
	return nil
}

// WALStats reports the durability subsystem's counters; Enabled is false
// (and everything else zero) without WithWAL.
type WALStats struct {
	Enabled       bool
	Policy        string        // "always" or "every <interval>"
	LastSeq       uint64        // newest appended record
	DurableSeq    uint64        // newest fsynced record
	CheckpointSeq uint64        // newest checkpoint's coverage
	Segments      int           // segment files on disk
	Checkpoints   uint64        // checkpoints written by this engine
	Replayed      int           // records replayed by Open
	RecoveryTime  time.Duration // wall time Open spent restoring + replaying

	// Checkpoint-chain shape (see deltackpt.go): the current base
	// checkpoint's coverage, how many delta checkpoints ride on it, and the
	// chain's total payload bytes on disk. ChainBaseSeq 0 means no checkpoint
	// exists yet.
	ChainBaseSeq uint64
	ChainDeltas  int
	ChainBytes   int64
}

// WALStats returns the current durability counters.
func (e *Engine) WALStats() WALStats {
	w := e.wal
	if w == nil {
		return WALStats{}
	}
	chain := w.log.Chain()
	return WALStats{
		Enabled:       true,
		Policy:        w.policy.String(),
		LastSeq:       w.log.LastSeq(),
		DurableSeq:    w.log.DurableSeq(),
		CheckpointSeq: w.log.CheckpointSeq(),
		Segments:      w.log.SegmentCount(),
		Checkpoints:   w.ckpts.Load(),
		Replayed:      w.replayed,
		RecoveryTime:  w.recoveryTime,
		ChainBaseSeq:  chain.BaseSeq,
		ChainDeltas:   chain.Deltas,
		ChainBytes:    chain.Bytes,
	}
}

// attachWAL wires a walState to a freshly constructed Engine. doRecover
// selects the Open semantics: the log must exist, its checkpoint is
// restored, and its records replay through Apply before the Engine escapes.
func (e *Engine) attachWAL(s *engineSettings, dir string, doRecover bool) error {
	w := &walState{}
	e.wal = w
	w.policy = s.walPolicy.normalize()
	w.ckptEvery = defaultCheckpointEvery
	if s.walCkptSet {
		w.ckptEvery = s.walCkptEvery
	}
	w.compactEvery = defaultCompactEvery
	if s.walCompactSet {
		w.compactEvery = s.walCompactEvery
	}

	start := time.Now()
	if doRecover {
		w.recovering = true
		// The checkpoint chain must be restored before the records after it
		// replay; a Reader surfaces it without opening the log for writing.
		r, err := wal.OpenReader(dir)
		if err != nil {
			return err
		}
		err = e.restoreCheckpoint(r.CheckpointPayloads())
		r.Close()
		if err != nil {
			return err
		}
	}
	log, err := wal.Open(dir, wal.Options{
		SegmentBytes: s.walSegBytes,
		Meta:         encodeEngineMeta(e, s),
		MustCreate:   !doRecover,
		MustExist:    doRecover,
		OnRecord: func(seq uint64, wops []wal.Op) error {
			if !doRecover {
				return nil
			}
			if err := e.applyWALRecord(wops); err != nil {
				return fmt.Errorf("dyndbscan: replaying record %d: %w", seq, err)
			}
			return nil
		},
	})
	if err != nil {
		return err
	}
	w.log = log
	w.replayed = log.Replayed()
	w.recoveryTime = time.Since(start)
	w.recovering = false
	if doRecover {
		// The restore re-inserted the world outside the ledger's sight; the
		// first checkpoint after a recovery is necessarily a full one.
		w.markDirtyFull()
	}
	if !w.policy.always {
		w.stopFlush = make(chan struct{})
		w.flushDone = make(chan struct{})
		go w.flusher()
	}
	return nil
}

// flusher is the group-commit fsync loop; errors stick inside the log and
// surface on the next update.
func (w *walState) flusher() {
	defer close(w.flushDone)
	t := time.NewTicker(w.policy.interval)
	defer t.Stop()
	for {
		select {
		case <-w.stopFlush:
			return
		case <-t.C:
			_ = w.log.Sync()
		}
	}
}

// closeWAL seals and closes the log; idempotent, concurrency-safe. A clean
// close first writes a final checkpoint (when checkpoints are enabled and
// records accumulated past the last one), so reopening restores state
// instead of replaying. That matters beyond speed: sharded cluster ids are
// minted by seam folds, and not every fold is in the log (a migration's
// grow and trim rounds are not) — so replay alone reproduces memberships and
// handles exactly but may number clusters differently. The checkpoint
// carries the live id assignment across the restart verbatim.
func (w *walState) closeWAL(e *Engine) error {
	if w == nil {
		return nil
	}
	w.closeOnce.Do(func() {
		var ckptErr error
		if w.log != nil && !w.recovering && w.ckptEvery > 0 &&
			w.log.LastSeq() > w.log.CheckpointSeq() {
			ckptErr = e.Checkpoint()
		}
		if w.stopFlush != nil {
			close(w.stopFlush)
			<-w.flushDone
		}
		if w.log != nil { // a replica's walState never opened the log
			w.closeErr = w.log.Close()
		}
		if w.closeErr == nil {
			w.closeErr = ckptErr
		}
	})
	return w.closeErr
}

// errRetiredSplit refuses a log record or checkpoint section that describes
// a stripe split. Stripe splitting was removed: the stripe is the only
// placement unit, so the engine cannot reproduce a placement that cut one.
var errRetiredSplit = errors.New("dyndbscan: retired stripe split: this engine no longer splits stripes and cannot recover a placement that holds one")

// applyWALRecord replays one logged record: placement records re-run the
// stripe migration they describe, data records commit through applyRecord.
// Shared by recovery (Open) and replica tailing. It refuses the record shapes
// no writer produces: a placement op inside a data record, an explicit-handle
// insert in a one-shard log, and a record mixing plain and explicit-handle
// inserts (an engine logs all its inserts one way).
func (e *Engine) applyWALRecord(wops []wal.Op) error {
	if len(wops) == 1 {
		switch wops[0].Kind {
		case wal.OpAssign:
			return e.applyAssign(wops[0].ID, wops[0].To)
		case wal.OpSplit:
			return errRetiredSplit
		case wal.OpWidth:
			return e.applyWidth(wops[0].ID)
		}
	}
	plain, explicit := false, false
	for i := range wops {
		switch wops[i].Kind {
		case wal.OpAssign, wal.OpSplit, wal.OpWidth:
			return fmt.Errorf("dyndbscan: wal: placement op inside a data record")
		case wal.OpInsert:
			plain = true
		case wal.OpInsertAt, wal.OpStagedInsert:
			explicit = true
		}
	}
	switch {
	case explicit && !e.sh.placing():
		// Only hotspot engines log explicit handles, and those have shards.
		return errors.New("dyndbscan: wal: explicit-handle record in a single-backend log")
	case explicit && plain:
		return errors.New("dyndbscan: wal: record mixes plain and explicit-handle inserts")
	}
	return e.applyRecord(wops)
}

// errSingleShardPlacement refuses a placement record in a one-shard log: a
// one-shard engine never writes one, since its placement is inert.
var errSingleShardPlacement = errors.New("dyndbscan: wal: placement record in a single-backend log")

// applyAssign replays one logged placement change: migrate the stripe to the
// shard that owned it when the record was written. The engine's placement
// state evolves through the same migrations in the same order as the writer,
// so the stitch mints the same global cluster ids (see walAppendMove).
func (e *Engine) applyAssign(stripe, dst int64) error {
	ss := e.sh
	if !ss.placing() {
		return errSingleShardPlacement
	}
	if dst < 0 || int(dst) >= len(ss.shards) {
		return fmt.Errorf("dyndbscan: wal: placement record targets shard %d of %d", dst, len(ss.shards))
	}
	_, err := ss.migrate(placeMove{stripe: stripe, dst: int32(dst)})
	return err
}

// applyWidth replays one logged stripe-width re-derivation: flip the width
// and re-route every live point, exactly as the writer's reshape did at this
// point in its op stream. The reshape is a deterministic function of the
// width and the live routes, so the replayed placement — and with it the
// stitch's cluster-id minting — matches the writer's.
func (e *Engine) applyWidth(width int64) error {
	ss := e.sh
	if !ss.placing() {
		return errSingleShardPlacement
	}
	if width <= ss.bandCells {
		return fmt.Errorf("dyndbscan: wal: width record of %d cells is inside the %d-cell ghost band", width, ss.bandCells)
	}
	_, err := ss.migrate(placeMove{width: width})
	return err
}

// applyRecord commits one data record — a replayed or tailed log record, or
// a checkpoint's points — through the Apply front-end: stageOps checks it as
// it checks a live batch and stages its inserts across the workers, and
// commitRouted refuses a delete of a handle that is not live and an explicit
// handle that is live or repeats. A refused record changes nothing.
//
// Explicit-handle inserts (OpInsertAt, OpStagedInsert) keep their logged
// handles, and the commit lifts the mint counter past them. An
// OpStagedInsert is the authoritative insert whether or not its stripe's
// fold ran before a crash, since the fold logs nothing. Replay never stages
// (it calls commitRouted, not commitBatch), which keeps it deterministic and
// replicas apply-only.
func (e *Engine) applyRecord(wops []wal.Op) error {
	staged, err := stageOps(e, wops, &errsApply, opFromWAL)
	if err != nil || len(staged) == 0 {
		return err
	}
	for i, wop := range wops {
		if wop.Kind != wal.OpInsertAt && wop.Kind != wal.OpStagedInsert {
			continue
		}
		if wop.ID < 0 || wop.ID == math.MaxInt64 {
			// Minted handles are non-negative, and the mint counter must be
			// able to pass every replayed one.
			return fmt.Errorf("dyndbscan: wal: explicit insert names handle %d, outside [0, %d)", wop.ID, int64(math.MaxInt64))
		}
		staged[i].forceGID, staged[i].gid = true, PointID(wop.ID)
	}
	_, err = e.sh.commitRouted(staged, errsApply.unknown)
	return err
}

// opFromWAL converts a logged data op to the Apply vocabulary; any other
// kind becomes the zero Op, which stageOps refuses.
func opFromWAL(wop wal.Op) Op {
	switch wop.Kind {
	case wal.OpInsert, wal.OpInsertAt, wal.OpStagedInsert:
		return InsertOp(Point(wop.Coord))
	case wal.OpDelete:
		return DeleteOp(PointID(wop.ID))
	}
	return Op{}
}

// Open recovers an Engine from the write-ahead log in dir: the engine shape
// (algorithm, parameters, shard topology) is restored from the log's meta
// record, the newest checkpoint is loaded, and every record after it replays
// through the ordinary Apply pipeline — so the recovered Engine serves the
// same live handles and stable ClusterIDs as the one that wrote the log.
// opts may carry runtime choices (WithWorkers, WithRebalance, WithHotspot,
// WithWALSync, WithWALCheckpointEvery, WithWALSegmentBytes);
// shape options conflict with the log and are rejected. The recovered Engine
// keeps logging to the same directory.
func Open(dir string, opts ...Option) (*Engine, error) {
	e, s, err := engineFromLog(dir, opts)
	if err != nil {
		return nil, err
	}
	if err := e.attachWAL(s, dir, true); err != nil {
		return nil, err
	}
	return e, nil
}

// engineFromLog constructs a bare engine whose shape (algorithm, parameters,
// shard topology) comes from the log's meta record, applying only runtime
// options on top — shared by Open and OpenReplica.
func engineFromLog(dir string, opts []Option) (*Engine, *engineSettings, error) {
	meta, err := wal.ReadMeta(dir)
	if err != nil {
		return nil, nil, err
	}
	mc, err := decodeEngineMeta(meta)
	if err != nil {
		return nil, nil, err
	}
	s := newSettings()
	s.opening = true
	for _, opt := range opts {
		opt(s)
	}
	def := newSettings()
	if s.err == nil {
		switch {
		case s.walDir != "":
			s.setErr(errors.New("dyndbscan: Open: WithWAL conflicts with Open's directory argument; use WithWALSync to tune the policy"))
		case s.epsSet || s.minPtsSet ||
			s.algo != def.algo || s.cfg.Dims != def.cfg.Dims || s.cfg.Rho != def.cfg.Rho ||
			s.shards != def.shards || s.stripeCells != 0:
			s.setErr(errors.New("dyndbscan: Open derives the algorithm, parameters, and shard topology from the log; pass only runtime options"))
		}
	}
	s.algo = mc.algo
	s.cfg = mc.cfg
	s.epsSet, s.minPtsSet = true, true
	s.shards = mc.shards
	s.stripeCells = mc.stripeCells
	if err := s.validate(); err != nil {
		return nil, nil, err
	}
	e, err := newShardedEngine(s)
	if err != nil {
		return nil, nil, err
	}
	return e, s, nil
}

// Engine meta payload: the shape New/Open must agree on.

const engineMetaVersion = 1

// retiredAlgoIncDBSCANRTree is the meta algorithm byte of the removed
// R-tree-backed IncDBSCAN. Open refuses such a log rather than recover it
// under a different range index.
const retiredAlgoIncDBSCANRTree Algorithm = 3

func encodeEngineMeta(e *Engine, s *engineSettings) []byte {
	b := []byte{engineMetaVersion, byte(e.algo)}
	b = appendUvarint(b, uint64(e.cfg.Dims))
	b = appendFloat(b, e.cfg.Eps)
	b = appendUvarint(b, uint64(e.cfg.MinPts))
	b = appendFloat(b, e.cfg.Rho)
	b = appendUvarint(b, uint64(s.shards))
	b = appendUvarint(b, uint64(s.stripeCells))
	return b
}

type engineMeta struct {
	algo        Algorithm
	cfg         Config
	shards      int
	stripeCells int
}

func decodeEngineMeta(b []byte) (engineMeta, error) {
	var mc engineMeta
	d := &payloadDecoder{b: b}
	if v := d.byte(); v != engineMetaVersion {
		return mc, fmt.Errorf("dyndbscan: unsupported engine meta version %d", v)
	}
	mc.algo = Algorithm(d.byte())
	mc.cfg.Dims = int(d.uvarint())
	mc.cfg.Eps = d.float()
	mc.cfg.MinPts = int(d.uvarint())
	mc.cfg.Rho = d.float()
	mc.shards = int(d.uvarint())
	mc.stripeCells = int(d.uvarint())
	if d.err != nil {
		return mc, fmt.Errorf("dyndbscan: corrupt engine meta: %w", d.err)
	}
	if mc.shards < 1 || mc.shards > maxShards {
		return mc, fmt.Errorf("dyndbscan: engine meta names %d shards; the sharded engine supports 1 to %d", mc.shards, maxShards)
	}
	switch mc.algo {
	case AlgoFullyDynamic, AlgoSemiDynamic, AlgoIncDBSCAN:
	case retiredAlgoIncDBSCANRTree:
		return mc, errors.New("dyndbscan: engine meta names IncDBSCANRTree, which was removed; its replacement is AlgoIncDBSCAN (the same exact clustering on a grid range index), and Open does not recover a log under a different range index")
	default:
		return mc, fmt.Errorf("dyndbscan: engine meta names unknown algorithm %d", mc.algo)
	}
	return mc, nil
}
