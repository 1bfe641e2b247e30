package dyndbscan

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"dyndbscan/internal/core"
	"dyndbscan/internal/grid"
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

// backend is the surface the Engine drives on each shard's built-in
// clustering algorithm: the point-set and membership operations, the event
// sink, staged insertion under a handle the engine chooses (so every shard
// stores each copy under the point's global PointID), the per-cell walks
// behind the seam fold and the delta checkpoints, and the change record
// (internal/core/changes.go) that tells both which cells an update touched.
// Handles and global cluster ids are minted by the shard set, not by a
// backend. Every algorithm in internal/core implements all of it. ClusterOf
// writes nothing: live reads and snapshot workers call it concurrently under
// the shard's read lock.
type backend interface {
	InsertStaged(sp core.StagedPoint, id PointID) error
	Delete(id PointID) error
	ClusterOf(PointID) ([]ClusterID, bool) // a fresh slice the caller owns
	SetEventFunc(func(Event))
	Len() int
	Has(id PointID) bool
	Config() Config
	TakeChanges(dst []core.CellChange) []core.CellChange
	ForEachPointNear(coord grid.Coord, r float64, fn func(PointID) bool)

	core.PointLookup
	core.CoreCellWalker
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
// Every Engine has one shape: a set of spatial shards (shard.go), each a
// clustering backend behind its own lock, stitched into global clusters by
// an incrementally maintained seam. The default, WithShards(1), is a set of
// one shard; its stripe placement is inert.
//
// # Concurrency
//
// Every method is safe for concurrent use, and the Engine runs a
// phase-split concurrent architecture:
//
//   - Lock-free snapshot reads. Snapshot builds the full clustering of the
//     current version once and publishes it through an atomic pointer; while
//     it is current, Snapshot, ClusterOf, Members, Version, GroupBy, and
//     GroupAll are served from it without touching any lock. Snapshot
//     construction is parallelized across the configured workers on every
//     algorithm.
//   - Live reads. Without a current snapshot, ClusterOf, GroupBy and GroupAll
//     resolve each queried point in its owner shard's backend, in time near
//     the size of the query, and build no snapshot. They hold the world lock
//     and the owning shards' locks shared — every algorithm's queries are
//     read-only, so such reads do not serialize on each other — and read
//     the global cluster ids under one seam-lock hold, so the answer is the
//     clustering at one instant between call and return.
//   - Pipelined batch ingestion. InsertBatch and Apply stage their points
//     (validation, coordinate conversion, grid cell assignment) across
//     WithWorkers-many goroutines before entering the commit phase that runs
//     the actual clustering update.
//   - Async event dispatch. Each subscriber owns a buffered queue drained
//     by its own dispatcher goroutine, so a slow callback never stalls
//     commits; see Subscribe for the overflow policies and Sync for a
//     delivery barrier.
//
// Commits on one shard serialize behind its lock; commits touching disjoint
// shard sets run concurrently — with or without subscribers attached, since
// event derivation rides the incrementally maintained cross-shard stitch.
// Each successful update advances Version, invalidating the cached snapshot
// (an epoch scheme: snapshot readers never observe a half-applied update).
// See WithShards for the topology and the equivalence guarantee. With
// several shards, stripe placement is load-aware: commits feed per-stripe
// load accounts and hot stripes migrate to underloaded shards (WithRebalance
// / Rebalance) without disturbing handles, ClusterIDs, or the event stream.
type Engine struct {
	algo    Algorithm
	cfg     Config
	workers int

	// version is the engine epoch and snap the snapshot publication slot;
	// both are written inside the update critical section and read lock-free
	// on the query fast path.
	//
	//dynlint:visibility
	version atomic.Uint64
	//dynlint:visibility
	snap atomic.Pointer[Snapshot]

	// stager runs the pre-commit phase of every insertion (validation,
	// cloning, grid cell assignment); immutable.
	stager core.Stager

	// sh is the engine's shard set: every commit and query routes through
	// it. Set once at construction.
	sh *shardSet

	// wal is the durability attachment (WithWAL / Open), nil otherwise; see
	// persist.go.
	wal *walState

	// Event fan-out state; see events.go. Publications are ordered by
	// tickets: pubTicket is taken inside the critical section that orders the
	// commit (under seamMu, or under worldMu held exclusively — see
	// takeTicket), and pubNext/pubCond (guarded by pubMu) admit publishers in
	// ticket order — so per-subscriber event streams preserve commit order
	// while no engine lock is ever held across a blocking enqueue.
	//dynlint:visibility
	pubTicket atomic.Uint64
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
// 2 dimensions, ρ = 0.001, one shard, one staging worker per CPU).
func New(opts ...Option) (*Engine, error) {
	s := newSettings()
	for _, opt := range opts {
		opt(s)
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	e, err := newShardedEngine(s)
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

// newBackend constructs one shard's clustering backend for the algorithm.
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

// Algorithm returns which algorithm the Engine runs.
func (e *Engine) Algorithm() Algorithm { return e.algo }

// Config returns the clustering parameters.
func (e *Engine) Config() Config { return e.cfg }

// Workers returns the resolved worker count used for pipelined staging and
// parallel snapshot construction.
func (e *Engine) Workers() int { return e.workers }

// Insert adds one point and returns its handle.
func (e *Engine) Insert(pt Point) (PointID, error) {
	sp, err := e.stager.Stage(pt)
	if err != nil {
		return 0, err
	}
	ops := [1]shOp{{insert: true, sp: sp}}
	ok, err := e.sh.commitBatch(ops[:], nil)
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
	ok, err := e.sh.commitBatch(ops, nil)
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
	_, err := e.sh.commitBatch(ops[:], unknownPoint)
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
	_, err = e.sh.commitBatch(ops, errsDeleteBatch.unknown)
	return err
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
// version, else live from the owner shards of the queried points, building no
// snapshot.
func (e *Engine) GroupBy(q []PointID) (Result, error) {
	if s := e.freshSnapshot(); s != nil {
		return s.GroupBy(q)
	}
	return e.sh.groupByLive(q)
}

// GroupAll returns the full current clustering (the degenerate C-group-by
// query with Q = P), computed atomically with respect to updates. Like
// GroupBy it reads a current snapshot when one exists and otherwise the live
// structures, building no snapshot.
func (e *Engine) GroupAll() (Result, error) {
	if s := e.freshSnapshot(); s != nil {
		return s.GroupAll(), nil
	}
	return e.sh.groupAllLive(), nil
}

// freshSnapshot is the cached-snapshot fast path of the clustering queries:
// it returns the published snapshot when it matches the current version, or
// nil. Clustering queries are hotspot join triggers: staged inserts do not
// advance the version, so a cached snapshot must not answer for them —
// reconcile first (which does advance it). See hotspot.go.
func (e *Engine) freshSnapshot() *Snapshot {
	if e.sh.stagedVisible() {
		e.sh.joinAll(joinQuery)
	}
	return e.currentSnapshot()
}

// Len returns the number of points currently stored.
func (e *Engine) Len() int {
	return e.sh.len()
}

// IDs returns every live handle.
func (e *Engine) IDs() []PointID {
	return e.sh.ids()
}

// Has reports whether the handle is live.
func (e *Engine) Has(id PointID) bool {
	return e.sh.has(id)
}

// Version returns the Engine's epoch: it starts at 0 and advances by one on
// every successful update (a batch counts once; a stripe migration counts as
// one update too, since it re-places live state). A Snapshot carries the
// version it was taken at. Version never takes a lock.
func (e *Engine) Version() uint64 {
	return e.version.Load()
}

// ClusterOf returns the stable cluster ids the point belongs to right now
// (empty for a live noise point; a border point may list several) and
// whether the point is live. Served lock-free from the cached snapshot when
// fresh, else live from the point's owner shard, building no snapshot.
//
// The returned slice is shared and read-only: on the lock-free path it is
// the snapshot's own entry, so a caller that mutates it corrupts the answer
// every reader of that epoch sees. Copy it before modifying.
func (e *Engine) ClusterOf(id PointID) ([]ClusterID, bool) {
	if s := e.freshSnapshot(); s != nil {
		return s.ClusterOf(id)
	}
	return e.sh.clusterOfLive(id)
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
	if s := e.freshSnapshot(); s != nil {
		return s
	}
	return e.sh.snapshot()
}

// parallelSnapshotMin is the live-point count below which snapshot
// construction stays serial: forking workers costs more than the walk.
const parallelSnapshotMin = 2048

// resolveMembers fills s with the memberships of ids (which must be
// ascending), resolving each through resolve; ids whose resolve reports
// ok=false are skipped. With workers > 1 the id space is partitioned across
// goroutines and the per-worker results merge in partition order, so
// cluster member lists come out ascending exactly as the serial walk
// produces them — resolve must then be safe for concurrent use, which every
// backend's read-only ClusterOf is.
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
