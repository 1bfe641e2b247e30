package dyndbscan

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"dyndbscan/internal/core"
	"dyndbscan/internal/pipeline"
)

// ErrDuplicateID is wrapped by DeleteBatch (and Apply) when the same live
// handle appears twice in one batch — distinguishable from ErrUnknownPoint so
// callers that skip already-gone points do not skip live ones.
var ErrDuplicateID = errors.New("dyndbscan: duplicate point id in batch")

// ClusterID is the stable identity of a cluster. Identities survive every
// update that does not merge or split the cluster: inserting into, deleting
// from, or querying a cluster never changes its id. A merge keeps one of the
// two ids; a split keeps the old id on one fragment and mints fresh ids for
// the rest.
type ClusterID = core.ClusterID

// Event describes one step of cluster evolution; see EventKind.
type Event = core.Event

// EventKind enumerates the cluster-evolution events an Engine emits.
type EventKind = core.EventKind

// The event kinds delivered to Subscribe callbacks.
const (
	EventClusterFormed    = core.EventClusterFormed
	EventClusterMerged    = core.EventClusterMerged
	EventClusterSplit     = core.EventClusterSplit
	EventClusterDissolved = core.EventClusterDissolved
	EventPointBecameCore  = core.EventPointBecameCore
	EventPointBecameNoise = core.EventPointBecameNoise
)

// backend is the surface the Engine drives on each built-in clustering
// algorithm: the point-set and query operations, stable cluster identities
// and the event sink, staged insertion under a handle the engine chooses
// (so every shard stores each copy under the point's global PointID), the
// id-mint counters that checkpoints record and restore pins (a restored
// backend adopts the cluster ids its clients saw), and the per-cell walks
// and change trackers behind the seam fold and the delta checkpoints. Every
// algorithm in internal/core implements all of it.
type backend interface {
	InsertStaged(sp core.StagedPoint, id PointID) error
	Delete(id PointID) error
	GroupBy(q []PointID) (Result, error)
	ClusterOf(PointID) ([]ClusterID, bool)
	SetEventFunc(func(Event))
	Len() int
	IDs() []PointID
	Has(id PointID) bool
	Config() Config

	NextPointID() PointID
	SetNextPointID(PointID)
	NextClusterID() ClusterID
	AdoptClusterIDs(m map[ClusterID]ClusterID, next ClusterID) error

	core.PointLookup
	core.CoreCellWalker
	core.SeamTracker
	core.UpdateTracker
}

var (
	_ backend = (*core.FullyDynamic)(nil)
	_ backend = (*core.SemiDynamic)(nil)
	_ backend = (*core.IncDBSCAN)(nil)
)

// Engine is the entry point of this package: a service-ready facade over
// one of the dynamic clustering algorithms, adding batch updates, stable
// cluster identities, versioned snapshots, a change-event stream, and
// thread safety.
//
// Construct one with New:
//
//	e, err := dyndbscan.New(
//		dyndbscan.WithAlgorithm(dyndbscan.AlgoFullyDynamic),
//		dyndbscan.WithEps(10), dyndbscan.WithMinPts(5),
//	)
//
// # Concurrency
//
// Every method is safe for concurrent use, and the Engine runs a
// phase-split concurrent architecture:
//
//   - Lock-free read path. The current Snapshot is published through an
//     atomic pointer. Once a snapshot for the current version exists,
//     Snapshot, ClusterOf, Members, Version, GroupBy, and GroupAll are
//     served from it without touching any lock, so read throughput scales
//     with reader goroutines. Snapshot construction itself is parallelized
//     across the configured workers on the fully-dynamic algorithm.
//   - Pipelined batch ingestion. InsertBatch and Apply stage their points
//     (validation, coordinate conversion, grid cell assignment) across
//     WithWorkers-many goroutines before entering the serialized commit
//     phase that runs the actual clustering update.
//   - Async event dispatch. Each subscriber owns a buffered queue drained
//     by its own dispatcher goroutine, so a slow callback no longer stalls
//     commits; see Subscribe for the overflow policies and Sync for a
//     delivery barrier.
//
// Updates serialize behind a write lock; live-structure queries (when no
// fresh snapshot exists) run under a read lock on AlgoFullyDynamic and
// briefly exclusively on the other algorithms. Each successful update
// advances Version, invalidating the cached snapshot (an epoch scheme:
// snapshot readers never observe a half-applied update).
//
// WithShards(n) lifts the single write lock: space is partitioned into
// grid-aligned stripes, each owning its own backend behind its own lock, so
// updates touching disjoint shards commit concurrently — with or without
// subscribers attached (event derivation rides an incrementally maintained
// cross-shard stitch rather than a quiesced world); see the WithShards
// documentation for the topology and the equivalence guarantee. Stripe
// placement is load-aware: commits feed per-stripe load accounts and hot
// stripes migrate to underloaded shards (WithRebalance / Rebalance) without
// disturbing handles, ClusterIDs, or the event stream.
type Engine struct {
	roQueries bool // backend GroupBy/ClusterOf are read-only (AlgoFullyDynamic)
	algo      Algorithm
	cfg       Config
	workers   int

	// version is the engine epoch and snap the snapshot publication slot;
	// both are written inside the update critical section and read lock-free
	// on the query fast path.
	//
	//dynlint:visibility
	version atomic.Uint64
	//dynlint:visibility
	snap atomic.Pointer[Snapshot]

	// stager runs the pre-commit phase of every insertion (validation,
	// cloning, grid cell assignment) in both engine shapes; immutable.
	stager core.Stager

	// sh is non-nil when the Engine runs in sharded mode (WithShards(n>1)):
	// every commit and query path then routes through it, and the
	// single-backend fields below (c, pending, ...) are unused. The
	// event fan-out state at the bottom of the struct is shared by both
	// modes.
	sh *shardSet

	// wal is the durability attachment (WithWAL / Open), nil otherwise; see
	// persist.go.
	wal *walState

	//dynlint:lock-level 70
	mu      sync.RWMutex
	c       backend
	pending []Event // events collected during the in-flight update
	// evsOn mirrors "subscribers exist" for the single-backend event sink.
	// Without a WAL the sink itself is installed and removed with the first
	// and last subscriber; with one the sink is permanent (it feeds the delta
	// checkpoints' merge ledger) and evsOn gates only the pending collection.
	evsOn bool

	// Sorted-id cache of the single backend (guarded by mu): the ascending
	// live-id slice that snapshot construction needs, maintained
	// incrementally so a snapshot rebuild never re-sorts the world. Built-in
	// backends mint monotone ids, so inserts append in order; deletions
	// tombstone into pendingDead and one O(n) compaction pass runs at the
	// next snapshot build.
	sortedIDs   []PointID
	pendingDead map[PointID]struct{}

	// Event fan-out state; see events.go. Publications are ordered by
	// tickets: pubTicket (guarded by mu) is assigned inside the update
	// critical section, pubNext/pubCond (guarded by pubMu) admit publishers
	// in ticket order — so per-subscriber event streams preserve commit
	// order while no engine lock is ever held across a blocking enqueue.
	//dynlint:visibility
	pubTicket uint64
	//dynlint:lock-level 80
	pubMu   sync.Mutex
	pubCond sync.Cond // signals pubNext advances; Wait on pubMu
	pubNext uint64
	//dynlint:lock-level 90
	subMu   sync.Mutex
	subs    map[int]*subscriber
	nextSub int
}

// New builds an Engine from functional options. WithEps and WithMinPts are
// required; everything else has production defaults (AlgoFullyDynamic,
// 2 dimensions, ρ = 0.001, one staging worker per CPU).
func New(opts ...Option) (*Engine, error) {
	s := newSettings()
	for _, opt := range opts {
		opt(s)
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	e, err := newEngineShape(s)
	if err != nil {
		return nil, err
	}
	if s.walDir != "" {
		if err := e.attachWAL(s, s.walDir, false); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// newEngineShape builds the bare Engine the settings describe: sharded for
// WithShards(n>1), single-backend otherwise — the constructor shared by New,
// Open and OpenReplica.
func newEngineShape(s *engineSettings) (*Engine, error) {
	if s.shards > 1 {
		return newShardedEngine(s)
	}
	c, err := newBackend(s.algo, s.cfg)
	if err != nil {
		return nil, err
	}
	return newEngine(c, s.algo, s.workers), nil
}

// newBackend constructs one clustering backend for the algorithm — the
// factory shared by the single-backend Engine and the per-shard backends.
func newBackend(algo Algorithm, cfg Config) (backend, error) {
	var (
		b   backend
		err error
	)
	switch algo {
	case AlgoFullyDynamic:
		b, err = core.NewFullyDynamic(cfg)
	case AlgoSemiDynamic:
		b, err = core.NewSemiDynamic(cfg)
	case AlgoIncDBSCAN:
		b, err = core.NewIncDBSCAN(cfg)
	default:
		return nil, fmt.Errorf("dyndbscan: unknown algorithm %v", algo)
	}
	if err != nil {
		return nil, err
	}
	return b, nil
}

func newEngine(c backend, algo Algorithm, workers int) *Engine {
	e := &Engine{
		roQueries:   algo == AlgoFullyDynamic,
		algo:        algo,
		cfg:         c.Config(),
		workers:     pipeline.Workers(workers),
		c:           c,
		stager:      core.NewStager(c.Config()),
		pendingDead: make(map[PointID]struct{}),
		subs:        make(map[int]*subscriber),
	}
	e.pubCond.L = &e.pubMu
	return e
}

// Algorithm returns which algorithm the Engine runs.
func (e *Engine) Algorithm() Algorithm { return e.algo }

// Config returns the clustering parameters.
func (e *Engine) Config() Config { return e.cfg }

// Workers returns the resolved worker count used for pipelined staging and
// parallel snapshot construction.
func (e *Engine) Workers() int { return e.workers }

// qlock acquires the appropriate lock for a query against the live backend
// and returns the matching release. Fully-dynamic backends answer queries
// without mutating shared state, so queries share a read lock; the other
// algorithms compress union-find paths during lookups and need exclusivity.
func (e *Engine) qlock() func() {
	if e.roQueries {
		e.mu.RLock()
		return e.mu.RUnlock
	}
	e.mu.Lock()
	return e.mu.Unlock
}

// liveIDs returns the ascending live-id slice, compacting tombstones lazily
// (one order-preserving pass over the single-backend sorted-id cache; the
// sharded engine reads its ascending ids from the route table instead).
// Must run inside the update critical section.
func (e *Engine) liveIDs() []PointID {
	if len(e.pendingDead) > 0 {
		w := 0
		for _, id := range e.sortedIDs {
			if _, d := e.pendingDead[id]; !d {
				e.sortedIDs[w] = id
				w++
			}
		}
		clear(e.pendingDead)
		e.sortedIDs = e.sortedIDs[:w]
	}
	return e.sortedIDs
}

// finishUpdate commits an update inside the critical section: the version
// advances and the events collected during the update are taken for
// publication.
func (e *Engine) finishUpdate() []Event {
	e.version.Add(1)
	evs := e.pending
	e.pending = nil
	return evs
}

// failUpdate abandons an in-flight update from inside the critical section:
// no version advance, no publication — and, crucially, no residue. Any
// event collected before the failure is dropped here; leaving it in
// e.pending would smuggle it into the next successful commit's
// publication. Every update failure path exits through this helper.
func (e *Engine) failUpdate() {
	e.pending = nil
	e.mu.Unlock()
}

// release ends the update critical section by unlocking e.mu, makes the
// commit's WAL record (seq; 0 when none was written) durable per the
// policy, then publishes evs to the subscriber queues — records hit the log
// (and, under SyncAlways, the disk) strictly before the commit's events or
// return value are observable. A publication ticket is taken while the
// write lock is still held, and publishers enter the enqueue phase strictly
// in ticket order — so concurrent updates cannot reorder their event
// streams (per subscriber, events always arrive in commit order), yet no
// engine lock is held while a BlockSubscriber enqueue waits: a backpressured
// publisher never prevents subscriber callbacks from querying the Engine.
// The returned error reports a durability failure; the in-memory state has
// already advanced when it is non-nil, and the log is poisoned, so every
// later update will fail cleanly.
func (e *Engine) release(seq uint64, evs []Event) error {
	var ticket uint64
	pub := len(evs) > 0
	if pub {
		ticket = e.pubTicket
		e.pubTicket++
	}
	e.mu.Unlock()
	err := e.wal.finish(seq)
	if pub {
		e.publishOrdered(ticket, evs)
	}
	e.maybeCheckpoint()
	return err
}

// Insert adds one point and returns its handle.
func (e *Engine) Insert(pt Point) (PointID, error) {
	sp, err := e.stager.Stage(pt)
	if err != nil {
		return 0, err
	}
	ops := [1]shOp{{insert: true, sp: sp}}
	ok, err := e.commit(ops[:], nil)
	if !ok {
		return 0, err
	}
	return ops[0].gid, err
}

// InsertBatch adds many points under one commit, validating and staging
// every point — in parallel across the configured workers for large batches
// — before the first insertion, so a malformed point fails the batch cleanly
// (no state change, ErrBadPoint with the offending index).
func (e *Engine) InsertBatch(pts []Point) ([]PointID, error) {
	ops, err := stageOps(e, pts, &errsInsertBatch, InsertOp)
	if err != nil || len(ops) == 0 {
		return nil, err
	}
	ok, err := e.commit(ops, nil)
	if !ok {
		return nil, err
	}
	return handles(ops), err
}

// Delete removes one point.
func (e *Engine) Delete(id PointID) error {
	if e.algo == AlgoSemiDynamic {
		return ErrDeletesUnsupported
	}
	ops := [1]shOp{{gid: id}}
	_, err := e.commit(ops[:], unknownPoint)
	return err
}

// unknownPoint is Delete's wording of a vanished target: the bare sentinel.
func unknownPoint(int, PointID) error { return ErrUnknownPoint }

// DeleteBatch removes many points under one commit. The whole batch is
// validated first: an unknown or duplicated id fails the batch with
// ErrUnknownPoint / ErrDuplicateID before any point is removed.
func (e *Engine) DeleteBatch(ids []PointID) error {
	ops, err := stageOps(e, ids, &errsDeleteBatch, DeleteOp)
	if err != nil || len(ops) == 0 {
		return err
	}
	_, err = e.commit(ops, errsDeleteBatch.unknown)
	return err
}

// commit hands a staged, validated op list to the engine shape's commit
// core and writes the minted handles into ops[i].gid. ok=false means the
// commit was refused with no state change (a delete target no longer live,
// reported through unknown, or a refused WAL append); ok=true with a
// non-nil error is a durability failure of a commit that did apply.
//
// A sharded engine commits through shardSet.commitBatch. The single-backend
// core follows: one critical section under the engine lock checks that
// every delete target is live, logs the batch, applies it in order and
// publishes its events. The list was staged and validated by the front-end
// (apply.go), so the built-in backend cannot refuse an op once the
// existence check passed.
func (e *Engine) commit(ops []shOp, unknown func(i int, id PointID) error) (ok bool, err error) {
	if e.sh != nil {
		return e.sh.commitBatch(ops, unknown)
	}
	e.mu.Lock()
	for i := range ops {
		if !ops[i].insert && !e.c.Has(ops[i].gid) {
			e.failUpdate()
			return false, unknown(i, ops[i].gid)
		}
	}
	var seq uint64
	if e.logging() {
		if seq, err = e.wal.append(walOpsFromShOps(ops, e.cfg.Dims, false)); err != nil {
			e.failUpdate()
			return false, err
		}
	}
	for i := range ops {
		op := &ops[i]
		if !op.insert {
			if err := e.c.Delete(op.gid); err != nil {
				panic(fmt.Sprintf("dyndbscan: backend rejected a validated delete: %v", err))
			}
			// Tombstone for the sorted-id cache; the next snapshot build
			// compacts.
			e.pendingDead[op.gid] = struct{}{}
			continue
		}
		op.gid = e.c.NextPointID()
		if err := e.c.InsertStaged(op.sp, op.gid); err != nil {
			panic(fmt.Sprintf("dyndbscan: backend rejected a staged insert: %v", err))
		}
		e.sortedIDs = append(e.sortedIDs, op.gid) // handles are minted ascending
	}
	e.wal.noteDirtyOps(ops)
	return true, e.release(seq, e.finishUpdate())
}

// handles returns one handle per committed op: the minted handle of an
// insertion, the target of a deletion.
func handles(ops []shOp) []PointID {
	out := make([]PointID, len(ops))
	for i := range ops {
		out[i] = ops[i].gid
	}
	return out
}

// currentSnapshot returns the published snapshot when it matches the current
// version, without taking any lock. The snapshot pointer is loaded before
// the version: if the (immutable) snapshot carries the version read
// afterwards, it was current at that instant.
func (e *Engine) currentSnapshot() *Snapshot {
	if s := e.snap.Load(); s != nil && s.Version == e.version.Load() {
		return s
	}
	return nil
}

// GroupBy answers a C-group-by query over the given handles. Served from the
// cached snapshot — without locking — when one exists for the current
// version, else from the live structure.
func (e *Engine) GroupBy(q []PointID) (Result, error) {
	if e.sh != nil && e.sh.stagedVisible() {
		// Clustering queries are hotspot join triggers: staged inserts do not
		// advance the version, so the cached snapshot must not answer for
		// them — reconcile first (which does advance it). See hotspot.go.
		e.sh.joinAll(joinQuery)
	}
	if s := e.currentSnapshot(); s != nil {
		return s.GroupBy(q)
	}
	if e.sh != nil {
		// Sharded reads are snapshot-served: the stitched snapshot is the
		// consistent cross-shard view.
		return e.Snapshot().GroupBy(q)
	}
	defer e.qlock()()
	return e.c.GroupBy(q)
}

// GroupAll returns the full current clustering (the degenerate C-group-by
// query with Q = P), computed atomically with respect to updates.
func (e *Engine) GroupAll() (Result, error) {
	if e.sh != nil && e.sh.stagedVisible() {
		e.sh.joinAll(joinQuery)
	}
	if s := e.currentSnapshot(); s != nil {
		return s.GroupAll(), nil
	}
	if e.sh != nil {
		return e.Snapshot().GroupAll(), nil
	}
	defer e.qlock()()
	return e.c.GroupBy(e.c.IDs())
}

// Len returns the number of points currently stored.
func (e *Engine) Len() int {
	if e.sh != nil && e.sh.stagedVisible() {
		// Staged hotspot inserts are live handles but absent from the cached
		// snapshot (they have not advanced the version); count the staged-
		// aware route tables instead.
		return e.sh.len()
	}
	if s := e.currentSnapshot(); s != nil {
		return len(s.byPoint)
	}
	if e.sh != nil {
		return e.sh.len()
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.c.Len()
}

// IDs returns every live handle.
func (e *Engine) IDs() []PointID {
	if e.sh != nil {
		return e.sh.ids()
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.c.IDs()
}

// Has reports whether the handle is live.
func (e *Engine) Has(id PointID) bool {
	if e.sh != nil && e.sh.stagedVisible() {
		return e.sh.has(id)
	}
	if s := e.currentSnapshot(); s != nil {
		_, ok := s.byPoint[id]
		return ok
	}
	if e.sh != nil {
		return e.sh.has(id)
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.c.Has(id)
}

// Version returns the Engine's epoch: it starts at 0 and advances by one on
// every successful update (a batch counts once; on a sharded Engine a stripe
// migration counts as one update too, since it re-places live state). A
// Snapshot carries the version it was taken at. Version never takes a lock.
func (e *Engine) Version() uint64 {
	return e.version.Load()
}

// ClusterOf returns the stable cluster ids the point belongs to right now
// (empty for a live noise point; a border point may list several) and
// whether the point is live. Served lock-free from the cached snapshot when
// fresh, else from the live structure.
//
// The returned slice is shared and read-only: on the lock-free path it is
// the snapshot's own entry, so a caller that mutates it corrupts the answer
// every reader of that epoch sees. Copy it before modifying.
func (e *Engine) ClusterOf(id PointID) ([]ClusterID, bool) {
	if e.sh != nil && e.sh.stagedVisible() {
		e.sh.joinAll(joinQuery)
	}
	if s := e.currentSnapshot(); s != nil {
		return s.ClusterOf(id)
	}
	if e.sh == nil {
		defer e.qlock()()
		return e.c.ClusterOf(id)
	}
	return e.Snapshot().ClusterOf(id)
}

// Members returns the sorted member points of the cluster in the current
// snapshot (nil when the id names no live cluster).
func (e *Engine) Members(id ClusterID) []PointID {
	return e.Snapshot().Members(id)
}

// Snapshot returns a consistent, immutable view of the current clustering.
// Snapshots are cached per version and published through an atomic pointer:
// once some reader has built the snapshot of an epoch, every further read of
// that epoch is lock-free, so the amortized cost under a read-heavy load is
// one full-clustering pass per epoch — and zero lock traffic between epochs.
func (e *Engine) Snapshot() *Snapshot {
	if e.sh != nil && e.sh.stagedVisible() {
		e.sh.joinAll(joinQuery)
	}
	if s := e.currentSnapshot(); s != nil {
		return s
	}
	if e.sh != nil {
		return e.sh.snapshot()
	}
	e.mu.Lock()
	if s := e.currentSnapshot(); s != nil {
		e.mu.Unlock()
		return s
	}
	// Holding the update lock across the build is the snapshot contract:
	// the view must be a frozen cut. The blocking inside is buildSnapshot's
	// bounded worker fan-out join; the workers only read the backend and
	// take no engine locks, so the join cannot deadlock — it just makes
	// writers wait behind a reader, which is the point.
	//
	//dynlint:ignore holdblock snapshot build quiesces writers by design; worker join is bounded and lock-free
	s := e.buildSnapshot()
	e.snap.Store(s)
	e.mu.Unlock()
	return s
}

// parallelSnapshotMin is the live-point count below which snapshot
// construction stays serial: forking workers costs more than the walk.
const parallelSnapshotMin = 2048

// buildSnapshot computes the full clustering inside the update critical
// section. On backends with read-only queries the per-point cluster
// resolution fans out across the engine's workers.
func (e *Engine) buildSnapshot() *Snapshot {
	s := &Snapshot{
		Version:  e.version.Load(),
		Clusters: make(map[ClusterID][]PointID),
		byPoint:  make(map[PointID][]ClusterID, e.c.Len()),
	}
	ids := e.liveIDs()
	workers := 1
	if e.roQueries && e.workers > 1 && len(ids) >= parallelSnapshotMin {
		workers = e.workers
	}
	resolveMembers(s, ids, workers, e.c.ClusterOf)
	return s
}

// resolveMembers fills s with the memberships of ids (which must be
// ascending), resolving each through resolve; ids whose resolve reports
// ok=false are skipped. With workers > 1 the id space is partitioned across
// goroutines and the per-worker results merge in partition order, so
// cluster member lists come out ascending exactly as the serial walk
// produces them — resolve must then be safe for concurrent use (read-only
// ClusterOf backends, i.e. AlgoFullyDynamic).
func resolveMembers(s *Snapshot, ids []PointID, workers int, resolve func(PointID) ([]ClusterID, bool)) {
	if workers > len(ids) {
		workers = len(ids)
	}
	if workers <= 1 {
		for _, id := range ids {
			if cids, ok := resolve(id); ok {
				s.addPoint(id, cids)
			}
		}
		return
	}
	type entry struct {
		id   PointID
		cids []ClusterID
	}
	parts := make([][]entry, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * len(ids) / workers
		hi := (w + 1) * len(ids) / workers
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			part := make([]entry, 0, hi-lo)
			for _, id := range ids[lo:hi] {
				if cids, ok := resolve(id); ok {
					part = append(part, entry{id, cids})
				}
			}
			parts[w] = part
		}(w, lo, hi)
	}
	wg.Wait()
	for _, part := range parts {
		for _, en := range part {
			s.addPoint(en.id, en.cids)
		}
	}
}
