package dyndbscan

// The engine's one shape: WithShards(n) partitions the grid of Section 4
// into stripes along dimension 0, assigned to n shards through a versioned
// stripe→shard table (round-robin by default; load-aware rebalancing
// migrates stripes — see placement.go). Each shard owns a full clustering
// backend (internal/core) behind its own lock, so updates whose shard sets
// are disjoint commit concurrently — the write path scales with cores the
// way PR 2 made the read path scale with readers. There is one handle space:
// a shard holds at most one copy of a point, so every backend stores its
// copy under the point's global PointID.
//
// The default engine is a set of one shard. Every stripe then maps to shard
// 0, no cell is replicated and the seam tracks nothing, so placement is
// inert: no width decision, no load accounting, no migration and no
// placement record. Handles and global cluster ids are still minted here
// (the latter by the seam fold), exactly as with n > 1.
//
// # Ghost bands
//
// DBSCAN is not embarrassingly partitionable: the core status of a point
// near a shard boundary depends on points across the seam. Each shard
// therefore also replicates a ghost band — every point whose cell lies
// within 2(1+ρ)ε of the shard's owned stripes. The band is wide enough that
//
//   - the population of every cell within (1+ρ)ε of the owned region is
//     complete in the shard's backend, so the core status of every owned
//     point — and of every seam cell within ε of the owned region — is
//     computed from its full neighborhood, and
//   - every op that can influence those cells' state (inserts and deletes
//     within (1+ρ)ε of them, whose promotion/demotion sweeps reach them) is
//     replayed in the shard, in the same relative order as globally.
//
// Per-cell state of owned and seam cells consequently evolves exactly as in
// a single-shard engine. Deeper ghost cells may under-count (they miss
// neighbors beyond the band), which can only suppress core statuses and
// grid-graph edges, never invent them — so every shard-local cluster merge
// is globally valid, and completeness is restored by stitching.
//
// # Stitching
//
// Every global grid-graph edge has at least one endpoint cell whose owner
// shard sees both endpoints exactly, so connectivity lost to partitioning is
// exactly the set of seam edges: pairs (owned cell, ghost cell owned by
// another shard). The stitch links (shard, local cluster id) keys through
// every core cell two shards both hold and maps each component to a stable
// global ClusterID (persisted across epochs in keyGID, so ids survive every
// update that does not merge or split a stitched cluster). It is maintained
// incrementally from engine creation until Close, subscribers or not: each
// commit folds its seam delta into the live seam structure and derives its
// global cluster events from the transition (see seam.go), and every
// placement change and checkpoint restore folds through the same
// transaction — no full stitch pass exists. With Rho = 0 the stitched
// clustering is exactly the single-shard clustering; with Rho > 0 both are
// legal ρ-approximate clusterings that may resolve don't-care-band points
// differently.
//
// # Locking
//
// worldMu is the commit/stitch coordination lock: commits and live reads hold
// it shared (parallelism comes from the per-shard locks), while snapshot
// construction, placement changes and subscriber-count transitions hold it
// exclusively and therefore observe a quiesced world. Commits stay shared
// even when subscribers exist: global cluster events are derived from each
// commit's own seam delta folded into the incrementally maintained seam
// structure (see seam.go), serialized only by the fine-grained seamMu —
// commits on disjoint shard sets proceed concurrently with subscribers
// attached.

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dyndbscan/internal/core"
	"dyndbscan/internal/grid"
	"dyndbscan/internal/pipeline"
	"dyndbscan/internal/wal"
)

// defaultStripeCells is the stripe width (grid cells along dimension 0) when
// WithShardStripe is not given.
const defaultStripeCells = 64

// stitchKey names one shard-local cluster: the unit the cross-shard stitch
// connects.
type stitchKey struct {
	shard int32
	cid   ClusterID
}

// route is the placement of one global handle, stored inline in its slot of
// the route table (routetable.go); nothing in it is a pointer. mask has bit
// s set for every shard s holding a copy of the point, each under the handle
// itself: the owner (the shard whose stripe contains the point's cell), the
// shards whose ghost bands cover the cell, and, on insertion-only backends,
// stale copies a past migration could not delete. owner names the owner
// shard, whose bit is always set, so a zero mask marks a dead slot. col is
// the point's cell column along dimension 0 — the routing key, kept so load
// accounting and stripe migration can re-derive the stripe without a backend
// lookup. Routes change only at insertion, deletion, and stripe migration,
// always under routesMu.
type route struct {
	col   int32
	owner int32
	mask  uint64
}

// shard is one spatial partition: a full clustering backend plus its lock.
// The backend keys every copy by the point's global PointID. Commits hold mu
// exclusively; live reads hold it shared, since every backend's queries are
// read-only.
type shard struct {
	//dynlint:lock-level 40 indexed
	mu sync.RWMutex
	c  backend

	// pending collects the backend's raw events during a commit; drained
	// (and filtered) after every op.
	pending []Event
	// chg is the backend's change record as the last mutation site
	// (applyShard, foldQueuedLocked) drained it; see takeChanges.
	chg []core.CellChange
}

// takeChanges drains the backend's change record into sh.chg, reusing its
// storage unless a bulk update grew it past core.MaxKeptChanges. The caller
// holds the shard's lock or worldMu exclusively.
func (sh *shard) takeChanges() []core.CellChange {
	buf := sh.chg[:0]
	if cap(buf) > core.MaxKeptChanges {
		buf = nil
	}
	sh.chg = sh.c.TakeChanges(buf)
	return sh.chg
}

// shardSet is the sharded engine: router, per-shard backends, the global
// route table, and the stitching state.
type shardSet struct {
	e   *Engine
	cfg Config

	geo         grid.Params // the backends' grid: a point's cell and so its owner
	stripeCells int64       // stripe width in cells along dimension 0
	bandCells   int64       // ghost band width in cells (covers 2(1+ρ)ε)

	shards []*shard

	// Placement state (see placement.go). assign overrides the round-robin
	// stripe→shard default and placeEpoch versions it: both are read under
	// routesMu (commit routing) or any worldMu mode (stitch, seam fold) and
	// written only under worldMu exclusive + routesMu (stripe migration).
	// stripeCells above follows the same discipline once adaptivePending has
	// resolved (the first routed commit decides it under routesMu).
	// stripeLoad/commitSeq/nextAutoCheck are the per-stripe load accounts,
	// guarded by routesMu. rebalancing admits one placement pass at a time
	// (Rebalance, the automatic cadence, a width re-derivation): a
	// migration releases worldMu between its rounds, so two passes could
	// otherwise interleave their rounds and chase each other's placement.
	assign          map[int64]int32
	placeEpoch      uint64
	adaptivePending bool
	stripeLoad      map[int64]*stripeStat
	commitSeq       uint64
	nextAutoCheck   uint64
	policy          RebalancePolicy
	autoEvery       int
	rebalancing     atomic.Bool

	// Adaptive-width re-derivation state (see maybeAdaptWidth): the running
	// dimension-0 cell extent of every routed insert, the cadence cursor,
	// and whether the current width was adaptively derived (an explicit
	// WithShardStripe width is never second-guessed). All guarded by
	// routesMu.
	adaptiveWidth  bool
	extLo, extHi   int32
	extSeen        bool
	nextWidthCheck uint64

	// hs is the contention-adaptive commit path (WithHotspot), nil otherwise;
	// see hotspot.go. stagedRoutes maps handles of staged-but-unreconciled
	// hotspot inserts to their parent stripe — the handle surface (len, has,
	// ids, delete validation) consults it so acked handles are never invisible.
	// Guarded by routesMu. A handle is in routes or in stagedRoutes, never
	// both: the reconcile commit's route publication moves it from one to the
	// other in one routesMu section.
	hs *hotspotState
	//dynlint:visibility
	//dynlint:staged-only
	//dynlint:staged-delta
	stagedRoutes map[PointID]int64

	// trimQueue holds the stale copies a placement flip left resident and
	// listed (reshapeLocked); trimRounds deletes them in budgeted rounds.
	// Guarded by worldMu exclusive + routesMu, the reshape discipline.
	trimQueue []trimRef
	// roundBudget bounds each exclusive round of a live migration; it is
	// migrateRoundBudget outside tests. multiRound counts the migrations
	// that took more than one exclusive round.
	roundBudget time.Duration
	multiRound  atomic.Int64

	// offCells counts, per cell, the copies held outside the placement:
	// stale SemiDynamic copies, copies grown ahead of a flip, and stale
	// copies waiting in trimQueue.
	// The seam tracks every cell it names (see seamTracked). A count may
	// over-state — a commit deleting a point does not decrement it — which
	// only over-tracks; the next reshape covering the cell recounts it
	// exactly. Written under worldMu exclusive + routesMu (the reshape
	// discipline), read under any worldMu mode.
	offCells map[grid.Coord]int32

	// worldMu: commits and live reads hold it shared (their shard locks
	// provide mutual exclusion); snapshot builds, placement changes, and
	// subscriber-count transitions hold it exclusively.
	//
	//dynlint:lock-level 30
	worldMu sync.RWMutex

	// Global handle table: the route of every live handle, iterable in
	// ascending handle order. Guarded by routesMu (commits on disjoint
	// shards mutate it concurrently); every writer also holds worldMu in
	// some mode, so a holder of worldMu exclusive — snapshot builds,
	// checkpoint captures — reads it without routesMu.
	//dynlint:lock-level 50
	routesMu sync.Mutex
	routes   routeTable
	nextID   PointID

	// eventsOn mirrors "the engine has subscribers": commits read it (under
	// the shared worldMu) to decide whether to collect point events and
	// publish. Toggled only while worldMu is held exclusively, so its value
	// is stable for the duration of any commit. The seam fold is not gated
	// on it — see seam below.
	eventsOn bool

	// Incremental seam structure (see seam.go): set once at engine creation
	// and folded by every commit, placement change and checkpoint restore
	// until Close, so Subscribe attaches by taking its place in the
	// publication order. seamMu guards it plus the stitch state below during
	// commits (held exclusively) and live reads (held shared); a quiesced
	// holder of worldMu (exclusive) may read and fold everything without
	// seamMu, since no commit or live read is in flight then.
	//
	//dynlint:lock-level 60
	seamMu sync.RWMutex
	seam   *seamState

	// Stitch state. keyGID persists the (shard, local cluster) → global id
	// assignment across epochs — the source of global id stability. Every
	// seam fold keeps it exact, so snapshot builds and checkpoint captures
	// read it directly.
	keyGID  map[stitchKey]ClusterID
	nextGID ClusterID
}

// newShardedEngine builds the Engine the settings describe, with
// WithShards(n) backends (n ≥ 1) — the constructor of New, Open and
// OpenReplica.
func newShardedEngine(s *engineSettings) (*Engine, error) {
	backends := make([]backend, s.shards)
	for i := range backends {
		c, err := newBackend(s.algo, s.cfg)
		if err != nil {
			return nil, err
		}
		backends[i] = c
	}
	cfg := backends[0].Config() // normalized by the backend (IncDBSCAN forces Rho = 0)
	e := &Engine{
		algo:    s.algo,
		cfg:     cfg,
		workers: pipeline.Workers(s.workers),
		stager:  core.NewStager(cfg),
		subs:    make(map[int]*subscriber),
	}
	e.pubCond.L = &e.pubMu

	geo := grid.NewParams(cfg.Dims, cfg.Eps)
	band := 2 * cfg.Eps * (1 + cfg.Rho)
	ss := &shardSet{
		e:   e,
		cfg: cfg,
		geo: geo,
		// Cells at column distance k have box distance (k-1)·side; +2 keeps
		// the rounding conservative (over-replication is a perf cost only).
		bandCells:    int64(math.Floor(band/geo.Side)) + 2,
		shards:       make([]*shard, s.shards),
		keyGID:       make(map[stitchKey]ClusterID),
		offCells:     make(map[grid.Coord]int32),
		assign:       make(map[int64]int32),
		stripeLoad:   make(map[int64]*stripeStat),
		stagedRoutes: make(map[PointID]int64),
		policy:       s.rebalance.normalize(),
		roundBudget:  migrateRoundBudget,
	}
	if s.hotspotSet {
		ss.hs = newHotspotState(s.hotspot)
	}
	ss.autoEvery = ss.policy.CheckEvery
	if ss.autoEvery > 0 {
		ss.nextAutoCheck = uint64(ss.autoEvery)
	}
	// Stripe width. A stripe no wider than the ghost band replicates every
	// cell into several (possibly all) shards — sharding's cost without its
	// parallelism — so explicit widths are clamped to bandCells+1. Without
	// WithShardStripe the width is adaptive: the provisional default applies
	// until the first committed batch reveals the data extent
	// (decideStripeLocked), so small-extent workloads still spread across
	// every shard. One shard keeps the default: its placement is inert.
	switch {
	case s.shards == 1:
		ss.stripeCells = defaultStripeCells
	case s.stripeCells == 0:
		ss.stripeCells = defaultStripeCells
		ss.adaptivePending = true
	default:
		ss.stripeCells = int64(s.stripeCells)
		if min := ss.bandCells + 1; ss.stripeCells < min {
			ss.stripeCells = min
		}
	}
	for i, c := range backends {
		sh := &shard{c: c}
		ss.shards[i] = sh
		// Event collection is permanent: every commit folds its seam delta
		// whether or not subscribers exist, so eventsOn only gates what is
		// published, never what is maintained.
		sh.c.SetEventFunc(func(ev Event) { sh.pending = append(sh.pending, ev) })
	}
	// The seam is warm from birth: an empty world stitches trivially, and
	// every commit, placement change and restore folds its own delta from
	// here on. This is the only assignment of ss.seam.
	ss.seam = newSeamState()
	e.sh = ss
	return e, nil
}

// Routing arithmetic lives in placement.go: stripe t covers columns
// [t·W, (t+1)·W) of dimension 0 and resolves to a shard through the
// assignment table (round-robin by default, overridden by migrations).

// placing reports whether stripe placement is live. With one shard every
// stripe maps to shard 0, so there is nothing to decide, account or migrate.
func (ss *shardSet) placing() bool { return len(ss.shards) > 1 }

// placeLocked returns the route of a point inserted into cell coord: its
// owner shard and every shard whose ghost band covers the cell. Caller holds
// routesMu (see shardOfStripe).
func (ss *shardSet) placeLocked(coord grid.Coord) route {
	if !ss.placing() {
		return route{col: coord[0], mask: 1}
	}
	return route{col: coord[0], owner: ss.ownerOf(coord), mask: ss.shardsOf(coord)}
}

// shOp is one staged operation of an update — the op list the front-end
// (apply.go) builds and the commit consumes: an insertion carrying its
// staged point, or a deletion carrying the target handle. Commits write each
// insert's minted handle back into gid.
type shOp struct {
	insert   bool
	forceGID bool // insert: gid is pre-assigned (restore, hotspot staging, explicit replay), skip minting
	logged   bool // insert: a staged-delta record already carries this op; do not re-log
	sp       core.StagedPoint
	gid      PointID // delete: target; insert: assigned during commit
}

// commitBatch is the commit core behind every update entry point: it writes
// the minted handles into ops[i].gid. ok=false means the commit was refused
// with no state change (a delete target no longer live, reported through
// errUnknown, or a refused WAL append); ok=true with a non-nil error is a
// durability failure of a commit that did apply. With a hotspot path, a
// pure-insert batch may divert into split-phase staging and a batch with
// deletes first joins the staged inserts it targets; everything else
// commits as one routed epoch (commitRouted).
func (ss *shardSet) commitBatch(ops []shOp, errUnknown func(i int, id PointID) error) (ok bool, err error) {
	diverted := false
	if ss.hs != nil {
		// The staging branch comes first: the stagedlog analyzer reads calls
		// in source order, and a join (which may append) ahead of hotCommit
		// would count as covering the staged writes behind it.
		if !hasDeletes(ops) {
			diverted, ok, err = ss.hotCommit(ops)
		} else {
			ss.joinForDelete(ops)
		}
	}
	if !diverted {
		ok, err = ss.commitRouted(ops, errUnknown)
	}
	// Checkpoint cadence runs here, outside the fold-safe routed commit: a
	// reconcile fold holds reconcileMu, and Checkpoint is a blocking join
	// (joinAllWait) — an auto-checkpoint from inside the fold would
	// self-deadlock. Folds call commitRouted directly; their triggering path
	// (this function, or the join caller) owns the cadence check once the
	// fold has released.
	ss.e.maybeCheckpoint()
	return ok, err
}

// hasDeletes reports whether the op list deletes anything.
func hasDeletes(ops []shOp) bool {
	for i := range ops {
		if !ops[i].insert {
			return true
		}
	}
	return false
}

// forcedClashLocked reports a pre-assigned (forceGID) insert handle that is
// already routed or repeats within ops. Caller holds routesMu.
func (ss *shardSet) forcedClashLocked(ops []shOp) (PointID, bool) {
	var buf [8]PointID
	gids := buf[:0]
	for i := range ops {
		if op := &ops[i]; op.insert && op.forceGID {
			if ss.routes.has(op.gid) {
				return op.gid, true
			}
			gids = append(gids, op.gid)
		}
	}
	slices.Sort(gids) // pre-assigned handles mostly ascend already
	for j := 1; j < len(gids); j++ {
		if gids[j] == gids[j-1] {
			return gids[j], true
		}
	}
	return 0, false
}

// mintLocked assigns fresh handles to the inserts of ops that lack one and
// lifts the mint counter past every pre-assigned handle, so later mints
// never reuse a replayed one. Caller holds routesMu.
func (ss *shardSet) mintLocked(ops []shOp) {
	for i := range ops {
		switch op := &ops[i]; {
		case !op.insert:
		case !op.forceGID:
			op.gid = ss.nextID
			ss.nextID++
		case op.gid >= ss.nextID:
			ss.nextID = op.gid + 1
		}
	}
}

// commitRouted applies a staged, pre-validated batch as one epoch: one
// version advance, one event publication. Delete targets are looked up and
// re-validated under the shard locks, so a batch with a vanished target
// fails atomically with errUnknown(opIndex, id) and no state change.
// Backends are built-in and the ops validated, so the commit itself cannot
// fail part-way. A pre-assigned (forceGID) insert whose handle is already
// routed or repeats within the batch refuses the batch the same way, with
// ErrDuplicateID. It skips the checkpoint-cadence check, so a reconcile fold
// may run it while holding reconcileMu.
//
// A commit that involves one shard — every commit of a one-shard engine —
// runs inline on the caller's goroutine and allocates nothing beyond what
// the backend allocates: its scratch lives on the stack, and the seam
// transaction is opened only for a cluster event or a tracked seam cell.
func (ss *shardSet) commitRouted(ops []shOp, errUnknown func(i int, id PointID) error) (bool, error) {
	e := ss.e

	// Routing runs against one placement epoch: the epoch is snapshotted
	// with the routes under routesMu, and re-checked after the shard locks
	// are held — a stripe migration (which quiesces the world, rewrites the
	// routes, and bumps the epoch, all under routesMu) that slips into the
	// gap invalidates the computed shard sets, so the commit re-routes.
	var (
		rbuf     [8]route // backs rts for small batches, on the stack
		rts      []route  // per op: the insert's placement or the delete target's route
		involved uint64   // mask of the shards any op touches
		evsOn    bool
		walSeq   uint64
		waited   uint64 // mask of the shards whose lock this commit contended on
		placing  = ss.placing()
	)
	if len(ops) <= len(rbuf) {
		rts = rbuf[:len(ops)]
	} else {
		rts = make([]route, len(ops))
	}
	for {
		// Route: owner+ghost shards per insert; the live route per delete.
		involved = 0
		ss.routesMu.Lock()
		if ss.adaptivePending {
			// First routed batch: derive the stripe width from its extent
			// before any cell is assigned a shard.
			ss.decideStripeLocked(ops)
		}
		epoch := ss.placeEpoch
		for i := range ops {
			op := &ops[i]
			if op.insert {
				rts[i] = ss.placeLocked(op.sp.Coord())
			} else {
				r, ok := ss.routes.get(op.gid)
				if !ok {
					ss.routesMu.Unlock()
					return false, errUnknown(i, op.gid)
				}
				rts[i] = r
			}
			involved |= rts[i].mask
		}
		ss.routesMu.Unlock()

		// Critical section: shared worldMu + the involved shard locks
		// (acquired in ascending order, so overlapping commits cannot
		// deadlock), letting commits on disjoint shards run concurrently —
		// with or without subscribers: event derivation folds this commit's
		// seam delta into the live seam structure under seamMu instead of
		// requiring a quiesced world. Publication happens after the unlock:
		// a backpressured publisher must never hold worldMu, or subscriber
		// callbacks querying the Engine would deadlock. eventsOn only
		// changes while worldMu is held exclusively, so its snapshot is
		// stable once the shared lock is held.
		ss.worldMu.RLock()
		evsOn = ss.eventsOn
		for s := range shardsIn(involved) {
			if ss.hs == nil || ss.shards[s].mu.TryLock() {
				if ss.hs == nil {
					ss.shards[s].mu.Lock()
				}
				continue
			}
			// Contended acquisition: the wait is charged to the owner stripes
			// of this commit's ops on that shard (noteLoadLocked below) — the
			// signal the hotspot detector scores alongside raw update counts.
			ss.shards[s].mu.Lock()
			waited |= shardBit(s)
		}

		// Re-validate, mint and log under the locks (admitLocked). A refused
		// batch or a placement that moved under us releases them; the
		// latter re-routes.
		seq, reroute, err := ss.admitLocked(ops, epoch, errUnknown)
		if !reroute && err == nil {
			walSeq = seq
			break
		}
		for s := range shardsIn(involved) {
			ss.shards[s].mu.Unlock()
		}
		ss.worldMu.RUnlock()
		if err != nil {
			return false, err
		}
	}

	// Apply each involved shard's op subsequence. outs[k] collects the
	// outputs of the k-th involved shard in ascending shard order.
	var one [1]shardOut
	outs := one[:]
	if involved&(involved-1) == 0 {
		// One shard: its subsequence is the whole op list.
		ss.applyShard(int32(bits.TrailingZeros64(involved)), ops, &outs[0], evsOn)
	} else {
		// Several shards: one goroutine each, joined with the shard locks
		// held. The join is bounded: the goroutines apply this commit's ops
		// and take no engine lock.
		//
		//dynlint:ignore holdblock fan-out join is bounded and its workers take no engine lock
		outs = ss.fanOut(ops, rts, involved, evsOn)
	}

	// Publish the routes and charge the commit to its owner stripes' load
	// accounts (with one shard there is no placement to account for).
	ss.routesMu.Lock()
	ss.commitSeq++
	for i := range ops {
		op, r := &ops[i], rts[i]
		if placing {
			ss.noteLoadLocked(r.col, op.insert, waited&shardBit(r.owner) != 0)
		}
		if op.insert {
			ss.routes.set(op.gid, r)
			if op.logged {
				// A reconcile fold's op: its handle leaves the staged route
				// table in the section that gives it a route, so it sits in
				// exactly one of the two at every instant.
				delete(ss.stagedRoutes, op.gid)
			}
		} else {
			ss.routes.del(op.gid)
		}
	}
	if ss.hs != nil {
		ss.noteHotspotLocked()
	}
	live := ss.routes.len()
	ss.routesMu.Unlock()

	// Seam fold: the global cluster transitions obtained by folding this
	// commit's seam delta (the backends' cluster-event lineage plus the
	// cells their change records mark Core) into the live seam structure.
	// The fold runs on every commit — subscribers or not — which is what
	// keeps keyGID and the stitch exact per epoch and lets Subscribe attach
	// without a rebuild; only the *publication* of the derived events is
	// gated on eventsOn. The fold runs under seamMu while the shard locks are
	// still held: the entries it rewrites belong to cells whose owner shard
	// is locked by this commit, and the backend re-reads (CoreCellCluster)
	// only target involved shards. A commit with no cluster event and no
	// Core-marked seam cell changes no seam state and opens no transaction.
	var evs []Event
	var ticket uint64
	pub := false
	if evsOn {
		for k := range outs {
			evs = append(evs, outs[k].evs...)
		}
	}
	ss.seamMu.Lock()
	var tx *seamTxn
	k := 0
	for s := range shardsIn(involved) {
		for _, ev := range outs[k].clust {
			tx = ss.openTxn(tx)
			tx.applyClusterEvent(s, ev, ss.shards[s].c)
		}
		k++
	}
	for s := range shardsIn(involved) {
		for _, ch := range ss.shards[s].chg {
			if !ch.Core || !ss.seamTracked(ch.Coord) {
				continue // no core-state crossing, or no seam relevance
			}
			tx = ss.openTxn(tx)
			lab, ok := ss.shards[s].c.CoreCellCluster(ch.Coord)
			tx.setEntry(s, ch.Coord, lab, ok)
		}
	}
	var cevs []Event
	if tx != nil {
		cevs = tx.finalize()
	}
	// Record the commit's changes in the checkpoint ledger: its handle
	// churn, its shards' change records and its global cluster events. The
	// fold's serialization under seamMu is the global commit order of
	// cluster transitions, which the merge ledger needs; worldMu is still
	// held shared, so a capture (worldMu exclusive) sees this commit's routes
	// and its changes, or neither.
	e.wal.noteDirty(ops, ss.shards, involved, cevs, live)
	if evsOn {
		evs = append(evs, cevs...)
	}
	e.version.Add(1)
	if evsOn && len(evs) > 0 {
		// The ticket is taken inside the seam critical section, so
		// per-subscriber streams order events exactly as the seam state
		// evolved — a commit can never reference a global id minted by a
		// later-ticketed commit.
		ticket = e.takeTicket()
		pub = true
	}
	ss.seamMu.Unlock()
	for s := range shardsIn(involved) {
		ss.shards[s].mu.Unlock()
	}
	ss.worldMu.RUnlock()
	// Durability barrier before publication: under SyncAlways the commit
	// waits for its record's fsync here, so no event (and no return) ever
	// describes a state change the log could still lose.
	werr := e.wal.finish(walSeq)
	if pub {
		// The enqueue runs after the unlock: a publisher parked on a full
		// BlockSubscriber queue holds no engine lock, so the subscriber's
		// callback can always query its way out.
		e.publishOrdered(ticket, evs)
	}
	if ss.autoEvery > 0 {
		// Automatic rebalancing check (WithRebalance): runs on the
		// committing goroutine after everything above released, so a
		// triggered migration pass holds worldMu exclusively with no other
		// lock pinned by this commit.
		ss.maybeAutoRebalance()
	}
	if ss.hs != nil {
		// Hotspot reconciliation cadence: also on the committing goroutine
		// with no lock pinned; a reconcile's own nested commit skips this via
		// the reconcileMu TryLock.
		ss.maybeHotspotReconcile()
	}
	if placing {
		// Adaptive-width re-derivation cadence: same discipline (committing
		// goroutine, no lock pinned; self-gating and TryLock-protected
		// inside).
		ss.maybeAdaptWidth()
	}
	return true, werr
}

// admitLocked re-validates a routed batch under the commit's locks, mints
// its handles and logs it: the section that orders the commit. A racing
// delete serialized before this commit may have removed a target, and a
// migration may have re-placed the stripes the batch was routed against
// (reroute: the placement epoch moved). err refuses the batch with no state
// change. Both return before anything is minted, so a re-routed batch is
// minted once. The caller holds worldMu shared and the involved shard locks.
//
// The WAL append happens here — inside the same routesMu section that mints
// the handles, while the shard locks are held — so the log's record order
// agrees with both the mint order and every involved shard's apply order
// (see persist.go). Without a hotspot path the append must precede the
// minting: a failed append aborts the commit, and aborted commits must not
// advance nextID or replay would mint different handles. With one
// (ss.hs != nil), staging mints handles before any log record exists, so
// log order no longer determines handles; every insert is logged as
// OpInsertAt carrying its handle explicitly, which requires minting first (a
// failed append then burns ids — harmless, since replay reads handles
// instead of re-minting).
func (ss *shardSet) admitLocked(ops []shOp, epoch uint64, errUnknown func(i int, id PointID) error) (walSeq uint64, reroute bool, err error) {
	ss.routesMu.Lock()
	defer ss.routesMu.Unlock()
	if ss.placeEpoch != epoch {
		return 0, true, nil
	}
	for i := range ops {
		if !ops[i].insert && !ss.routes.has(ops[i].gid) {
			return 0, false, errUnknown(i, ops[i].gid)
		}
	}
	if gid, clash := ss.forcedClashLocked(ops); clash {
		return 0, false, fmt.Errorf("%w: pre-assigned insert handle %d is live or repeats in the batch", ErrDuplicateID, gid)
	}
	explicit := ss.hs != nil
	if explicit {
		ss.mintLocked(ops)
	}
	if ss.e.logging() {
		// A reconcile fold's ops were already logged as OpStagedInsert at
		// staging time; walOpsFromShOps drops them, and a fully-dropped
		// batch appends nothing — replay must see each handle once.
		if wops := walOpsFromShOps(ops, ss.cfg.Dims, explicit); len(wops) > 0 {
			if walSeq, err = ss.e.wal.append(wops); err != nil {
				return 0, false, err
			}
		}
	}
	if !explicit {
		ss.mintLocked(ops)
	}
	return walSeq, false, nil
}

// shardOut is one involved shard's output of a commit: point events and the
// cluster-event lineage. Its change record stays in the shard (shard.chg).
type shardOut struct {
	evs, clust []Event
}

// applyShard applies shard s's op subsequence in op order, collects its
// outputs and drains its change record. The caller holds the shard's lock.
func (ss *shardSet) applyShard(s int32, ops []shOp, out *shardOut, evsOn bool) {
	sh := ss.shards[s]
	for i := range ops {
		op := &ops[i]
		var err error
		if op.insert {
			err = sh.c.InsertStaged(op.sp, op.gid)
		} else {
			err = sh.c.Delete(op.gid)
		}
		if err != nil {
			// Unreachable: inserts were staged by a matching Stager under
			// handles no route names, and delete targets were validated
			// under the locks.
			panic(fmt.Sprintf("dyndbscan: shard %d rejected a validated op: %v", s, err))
		}
		ss.drainEvents(s, &out.evs, &out.clust, evsOn)
	}
	sh.takeChanges()
}

// fanOut applies a commit that involves several shards, one goroutine per
// shard. The subsequences share one exactly sized array of op copies,
// grouped by shard in op order: the k-th involved shard owns
// items[bound[k]:bound[k+1]] and writes outs[k]. The goroutines never
// reference the caller's op list. The caller holds the involved shards'
// locks.
func (ss *shardSet) fanOut(ops []shOp, rts []route, involved uint64, evsOn bool) []shardOut {
	n := bits.OnesCount64(involved)
	rank := func(s int32) int { return bits.OnesCount64(involved & (shardBit(s) - 1)) }
	bound := make([]int, n+1)
	for i := range rts {
		for s := range shardsIn(rts[i].mask) {
			bound[rank(s)+1]++
		}
	}
	for k := 1; k <= n; k++ {
		bound[k] += bound[k-1]
	}
	items := make([]shOp, bound[n])
	fill := append([]int(nil), bound[:n]...)
	for i := range ops {
		for s := range shardsIn(rts[i].mask) {
			k := rank(s)
			items[fill[k]] = ops[i]
			fill[k]++
		}
	}
	outs := make([]shardOut, n)
	var wg sync.WaitGroup
	k := 0
	for s := range shardsIn(involved) {
		wg.Add(1)
		go func(s int32, k int) {
			defer wg.Done()
			ss.applyShard(s, items[bound[k]:bound[k+1]], &outs[k], evsOn)
		}(s, k)
		k++
	}
	wg.Wait()
	return outs
}

// walOpsFromShOps converts a staged batch to its log record. Insert coords
// come from the staged clone (dims-length, validated); the log serializes
// them during Append, so handing out the slice is safe. With explicit set
// (hotspot engines) inserts are logged as OpInsertAt carrying their already-
// minted handle, since mint order and log order diverge once staging exists.
// Ops marked logged — staged inserts whose OpStagedInsert record was written
// at diversion time — are dropped: re-logging them would double-apply on
// replay. A reconcile fold therefore converts to an empty slice and appends
// no record at all.
func walOpsFromShOps(ops []shOp, dims int, explicit bool) []wal.Op {
	wops := make([]wal.Op, 0, len(ops))
	for i := range ops {
		switch {
		case ops[i].logged:
		case !ops[i].insert:
			wops = append(wops, wal.Op{Kind: wal.OpDelete, ID: int64(ops[i].gid)})
		case explicit:
			wops = append(wops, wal.Op{Kind: wal.OpInsertAt, Coord: ops[i].sp.Point()[:dims], ID: int64(ops[i].gid)})
		default:
			wops = append(wops, wal.Op{Kind: wal.OpInsert, Coord: ops[i].sp.Point()[:dims]})
		}
	}
	return wops
}

// takeTicket assigns the next publication ticket. Callers take it inside the
// critical section that orders their change — a commit under seamMu, an
// out-of-commit fold with worldMu held exclusively; the two exclude each
// other — so ticket order is the order in which the seam evolved, and
// publishOrdered admits publishers in that order.
func (e *Engine) takeTicket() uint64 {
	// Tickets order in-process event publication; they are not durable
	// state. The WAL logs the data ops a publication describes, and after
	// recovery the counter restarts with no subscribers attached, so an
	// unlogged increment cannot be observed across a crash.
	//
	//dynlint:ignore logvisible publication tickets are transient ordering state, not recovered from the WAL
	return e.pubTicket.Add(1) - 1
}

// drainEvents collects shard s's pending backend events. Point events
// already name global handles; one is kept iff s owns the point's cell, since
// the ghost and stale copies' events duplicate the owner's. Point events are
// collected only while subscribers exist (evsOn), since nothing else consumes
// them; every point they name is live, because commits drain after each op.
// Cluster events are not forwarded directly — global cluster transitions are
// derived from the seam delta, where they are well-defined — but are always
// collected in order as the local lineage: the seam transaction folds each
// merge as a rename, each split as a scoped re-derivation, and each
// form/dissolve as a key lifecycle step.
func (ss *shardSet) drainEvents(s int32, buf *[]Event, clust *[]Event, evsOn bool) {
	sh := ss.shards[s]
	if len(sh.pending) == 0 {
		return
	}
	for _, ev := range sh.pending {
		switch ev.Kind {
		case EventPointBecameCore, EventPointBecameNoise:
			if !evsOn {
				continue
			}
			if pt, ok := sh.c.PointAt(ev.Point); ok && ss.ownerOf(ss.geo.CellOf(pt)) == s {
				*buf = append(*buf, ev)
			}
		default:
			*clust = append(*clust, ev)
		}
	}
	sh.pending = sh.pending[:0]
}

// Read surface. The handle views (len, has, ids) count staged-but-
// unreconciled hotspot inserts through stagedRoutes: a staged handle was
// acked, so it must never look dead. The two tables are disjoint (see
// stagedRoutes), so their sizes add.

func (ss *shardSet) len() int {
	ss.routesMu.Lock()
	defer ss.routesMu.Unlock()
	return ss.routes.len() + len(ss.stagedRoutes)
}

func (ss *shardSet) has(id PointID) bool {
	ss.routesMu.Lock()
	defer ss.routesMu.Unlock()
	if ss.routes.has(id) {
		return true
	}
	_, ok := ss.stagedRoutes[id]
	return ok
}

func (ss *shardSet) ids() []PointID {
	ss.routesMu.Lock()
	defer ss.routesMu.Unlock()
	out := ss.routes.ids()
	for id := range ss.stagedRoutes {
		out = append(out, id)
	}
	return out
}

// liveIDsLocked returns the ascending live global handles: one walk of the
// route table's pages. The caller holds worldMu exclusively.
func (ss *shardSet) liveIDsLocked() []PointID {
	ss.routesMu.Lock()
	defer ss.routesMu.Unlock()
	return ss.routes.ids()
}

// clusterOfLocked resolves a live point's memberships in global cluster ids:
// its owner shard's view of the point is exact, and the local cluster ids it
// reports map through the stitch to global ids. Two local ids may stitch to
// one global cluster, hence the dedup. ok is false when the owner holds no
// copy (the point is dead); a noise point resolves to nil. The caller holds
// the owner shard and seamMu (any mode), or worldMu exclusively.
func (ss *shardSet) clusterOfLocked(owner int32, id PointID) ([]ClusterID, bool) {
	cids, ok := ss.shards[owner].c.ClusterOf(id)
	if !ok || len(cids) == 0 {
		return nil, ok
	}
	out := cids[:0] // the backend's slice is fresh: translate in place
	for _, cid := range cids {
		if g, ok := ss.keyGID[stitchKey{owner, cid}]; ok {
			out = append(out, g)
		}
	}
	return dedupSortedIDs(out), true
}

// Live reads. ClusterOf, GroupBy and GroupAll answer without a snapshot when
// none is current: each point resolves in its owner shard (clusterOfLocked).
// A read holds worldMu shared — so no placement change moves an owner — and
// the owner shards' read locks in ascending order, the commit protocol, so
// it excludes only the commits touching its shards. Every backend's queries
// are read-only (the union-find algorithms look up roots with UF.Root), so
// reads do not serialize on each other. keyGID is read inside one seamMu
// hold, so the answer is the clustering at one instant between call and
// return. A live read never builds or publishes a snapshot.

// rlockShards takes the read locks of the shards in mask, ascending.
func (ss *shardSet) rlockShards(mask uint64) {
	for s := range shardsIn(mask) {
		ss.shards[s].mu.RLock()
	}
}

// runlockShards releases what rlockShards took.
func (ss *shardSet) runlockShards(mask uint64) {
	for s := range shardsIn(mask) {
		ss.shards[s].mu.RUnlock()
	}
}

// clusterOfLive is Engine.ClusterOf's live path.
func (ss *shardSet) clusterOfLive(id PointID) ([]ClusterID, bool) {
	ss.worldMu.RLock()
	defer ss.worldMu.RUnlock()
	ss.routesMu.Lock()
	r, ok := ss.routes.get(id)
	ss.routesMu.Unlock()
	if !ok {
		return nil, false
	}
	// A delete that commits between the route read and the shard lock
	// leaves the owner without a copy; clusterOfLocked then reports the
	// point dead, as of that commit.
	mask := shardBit(r.owner)
	ss.rlockShards(mask)
	defer ss.runlockShards(mask)
	ss.seamMu.RLock()
	defer ss.seamMu.RUnlock()
	return ss.clusterOfLocked(r.owner, id)
}

// groupByLive is Engine.GroupBy's live path.
func (ss *shardSet) groupByLive(q []PointID) (Result, error) {
	owners := make([]int32, len(q))
	var mask uint64
	ss.worldMu.RLock()
	defer ss.worldMu.RUnlock()
	ss.routesMu.Lock()
	for i, id := range q {
		r, ok := ss.routes.get(id)
		if !ok {
			ss.routesMu.Unlock()
			return Result{}, ErrUnknownPoint
		}
		owners[i] = r.owner
		mask |= shardBit(r.owner)
	}
	ss.routesMu.Unlock()
	ss.rlockShards(mask)
	defer ss.runlockShards(mask)
	ss.seamMu.RLock()
	defer ss.seamMu.RUnlock()
	return groupResult(q, func(i int) ([]ClusterID, bool) { return ss.clusterOfLocked(owners[i], q[i]) })
}

// groupAllLive is Engine.GroupAll's live path: the C-group-by query over
// every live handle. Every shard is held, so no commit changes the routes it
// walks and every routed point resolves.
func (ss *shardSet) groupAllLive() Result {
	all := ^uint64(0) >> (64 - len(ss.shards))
	ss.worldMu.RLock()
	defer ss.worldMu.RUnlock()
	ss.rlockShards(all)
	defer ss.runlockShards(all)
	ss.routesMu.Lock()
	defer ss.routesMu.Unlock()
	ss.seamMu.RLock()
	defer ss.seamMu.RUnlock()
	ids := ss.routes.ids()
	res, _ := groupResult(ids, func(i int) ([]ClusterID, bool) {
		r, _ := ss.routes.get(ids[i])
		return ss.clusterOfLocked(r.owner, ids[i])
	})
	return res
}

// snapshot builds (and publishes) the stitched cross-shard snapshot for the
// current epoch. The caller has already run the hotspot query join (see
// Engine.freshSnapshot), so the snapshot does not miss acked points; an
// advisory miss (another reconcile in flight) linearizes the snapshot before
// that reconcile's commit.
func (ss *shardSet) snapshot() *Snapshot {
	e := ss.e
	ss.worldMu.Lock()
	defer ss.worldMu.Unlock()
	if s := e.currentSnapshot(); s != nil {
		return s // lost the build race to another reader
	}
	ids := ss.liveIDsLocked()
	s := &Snapshot{
		Version:  e.version.Load(),
		Clusters: make(map[ClusterID][]PointID),
		byPoint:  make(map[PointID][]ClusterID, len(ids)),
	}
	resolve := func(id PointID) ([]ClusterID, bool) {
		r, _ := ss.routes.get(id)
		return ss.clusterOfLocked(r.owner, id)
	}
	workers := 1
	if e.workers > 1 && len(ids) >= parallelSnapshotMin {
		// Every backend's ClusterOf is read-only, so chunks may resolve in
		// the same shard concurrently.
		workers = e.workers
	}
	// worldMu held across the member resolution keeps the cut frozen;
	// resolveMembers' worker join is bounded and its workers only read shard
	// backends (no engine locks), so it cannot deadlock.
	//
	//dynlint:ignore holdblock snapshot build quiesces commits by design; worker join is bounded and lock-free
	resolveMembers(s, ids, workers, resolve)
	e.snap.Store(s)
	return s
}

// dedupSortedIDs sorts and dedups in place (global ids of one point after
// stitching).
func dedupSortedIDs(ids []ClusterID) []ClusterID {
	if len(ids) < 2 {
		return ids
	}
	slices.Sort(ids)
	w := 1
	for i := 1; i < len(ids); i++ {
		if ids[i] != ids[w-1] {
			ids[w] = ids[i]
			w++
		}
	}
	return ids[:w]
}

// lineageReach returns the keys reachable from k through the lineage graph,
// k itself included (a key with no lineage resolves to itself).
func lineageReach(k stitchKey, lineage map[stitchKey][]stitchKey) []stitchKey {
	if len(lineage) == 0 {
		return []stitchKey{k}
	}
	if _, ok := lineage[k]; !ok {
		return []stitchKey{k}
	}
	seen := map[stitchKey]struct{}{k: {}}
	queue := []stitchKey{k}
	out := []stitchKey{k}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nxt := range lineage[cur] {
			if _, dup := seen[nxt]; !dup {
				seen[nxt] = struct{}{}
				out = append(out, nxt)
				queue = append(queue, nxt)
			}
		}
	}
	return out
}

func stitchKeyLess(a, b stitchKey) bool {
	if a.shard != b.shard {
		return a.shard < b.shard
	}
	return a.cid < b.cid
}

func containsID(ids []ClusterID, id ClusterID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// syncEvents reconciles event *publication* with the engine's subscriber
// count. Event collection and the seam fold are permanent (installed at
// engine creation), so attaching or detaching a subscriber only flips
// eventsOn: the exclusive worldMu hold below is the O(1) quiesce that fences
// in-flight commits. It re-reads the count under that hold, so racing
// Subscribe/cancel pairs converge on the state matching the surviving
// registrations.
func (ss *shardSet) syncEvents() {
	ss.worldMu.Lock()
	defer ss.worldMu.Unlock()
	e := ss.e
	e.subMu.Lock()
	ss.eventsOn = len(e.subs) > 0
	e.subMu.Unlock()
}

// Shards returns how many spatial shards the Engine runs (1 by default).
func (e *Engine) Shards() int {
	return len(e.sh.shards)
}
