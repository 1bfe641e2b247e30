package dyndbscan

// Load-aware shard placement.
//
// PR 3's stripe→shard assignment was the arithmetic t mod n: correct, cheap,
// and blind. A hotspot workload whose traffic concentrates on a few stripes —
// or on stripes that alias onto one shard through the round-robin — saturates
// that shard while the rest idle, and nothing in the engine could notice or
// react. This file makes placement a first-class, observable, *movable*
// decision:
//
//   - Per-stripe load accounting. Every commit charges its ops to the owner
//     stripes of the cells they touch: a resident-point count (exact) and an
//     update counter decayed exponentially over commits (recent traffic
//     dominates). The stats live in shardSet.stripeLoad, keyed by stripe
//     index, and are aggregated through the current assignment on demand —
//     so migrating a stripe automatically re-attributes its load.
//
//   - An explicit assignment table. ownerOf/shardsOf/replicated now resolve
//     stripes through shardOfStripe: a sparse override map on top of the
//     round-robin default. The table is versioned by placeEpoch; a commit
//     snapshots the epoch while routing and re-checks it after taking its
//     shard locks, re-routing if a migration slipped in between — routing,
//     ghost-band replication, and the seam stitch therefore always agree on
//     one placement epoch.
//
//   - Live stripe migration. migrate moves one stripe to a new shard in
//     short exclusive rounds with commits admitted between them: it first
//     *grows* (inserts the copies the new placement needs while the old
//     copies are still resident) and folds that into the seam — the
//     co-resident generations share tracked cells, so source and target
//     local clusters fall into one component and the global ClusterID
//     assignment flows onto the target before the source copies disappear —
//     then flips the table, and only then *trims* the copies the new
//     placement no longer holds, folding again. The folds are the commit
//     path's seam transaction, scoped to the reshaped columns. Point handles, ClusterIDs,
//     and (with Rho = 0) the clustering itself are invariant across a
//     migration; any net transition (possible only under Rho > 0 don't-care
//     re-resolution) is published as ordinary cluster events in commit
//     order.
//
//   - Adaptive stripe width. When WithShardStripe is not given, the width is
//     derived from the data extent of the first committed batch (targeting
//     adaptiveStripesPerShard stripes per shard) instead of a fixed 64 cells,
//     so spatially compact workloads still spread across every shard.
//
// Rebalancing runs through Engine.Rebalance (manual) or, with
// WithRebalance(policy) and CheckEvery > 0, automatically on the commit path
// (the committing goroutine runs the pass after publishing, holding no lock).

import (
	"fmt"
	"maps"
	"math"
	"sort"
	"time"

	"dyndbscan/internal/grid"
	"dyndbscan/internal/wal"
)

// RebalancePolicy tunes when and how aggressively a sharded Engine migrates
// stripes between shards. The zero value of each field selects its default;
// DefaultRebalancePolicy returns the defaults with automatic checks enabled.
type RebalancePolicy struct {
	// MaxImbalance is the hottest-shard/mean load ratio tolerated before a
	// migration is attempted. Values ≤ 1 tolerate no imbalance at all.
	// Default 1.25.
	MaxImbalance float64
	// MinLoad is the minimum hottest-shard load (decayed updates plus
	// weighted resident points) below which rebalancing is not worth its
	// quiesce; it keeps tiny or idle engines from churning. Default 256.
	MinLoad float64
	// CheckEvery is the automatic check cadence in commits: every
	// CheckEvery-th commit evaluates the balance (and, if warranted, runs a
	// migration pass) after it publishes. 0 disables automatic rebalancing;
	// Engine.Rebalance remains available. Default 0 (manual).
	CheckEvery int
}

// DefaultRebalancePolicy returns the recommended policy with automatic
// checks enabled every 32 commits.
func DefaultRebalancePolicy() RebalancePolicy {
	return RebalancePolicy{MaxImbalance: 1.25, MinLoad: 256, CheckEvery: 32}
}

// normalize fills the zero fields with their defaults. CheckEvery keeps its
// zero (manual-only) meaning.
func (p RebalancePolicy) normalize() RebalancePolicy {
	if p.MaxImbalance == 0 {
		p.MaxImbalance = 1.25
	}
	if p.MaxImbalance < 1 {
		p.MaxImbalance = 1
	}
	if p.MinLoad == 0 {
		p.MinLoad = 256
	}
	return p
}

// ShardLoad is one shard's aggregated placement load, reported by
// Engine.ShardLoads.
type ShardLoad struct {
	// Shard is the shard index.
	Shard int
	// Stripes is the number of stripes currently assigned to the shard that
	// carry tracked load.
	Stripes int
	// Points is the number of resident points owned by the shard (ghost
	// copies are not counted).
	Points int
	// Updates is the decayed update counter: an exponentially weighted
	// count of recent ops routed to the shard's stripes.
	Updates float64
}

// loadDecay is the per-commit multiplier applied to the per-stripe update
// counters (half-life ≈ 34 commits): the balance metric tracks recent
// traffic, not all-time totals.
const loadDecay = 0.98

// pointLoadWeight folds resident points into the balance metric alongside
// the decayed update counters: a stripe dense with points costs memory and
// snapshot work even when its update traffic has moved on.
const pointLoadWeight = 0.25

// adaptiveStripesPerShard is the stripe count per shard the adaptive width
// targets from the first batch's extent: enough stripes that the granularity
// supports rebalancing, few enough that ghost replication stays marginal.
const adaptiveStripesPerShard = 4

// stripeStat is one stripe's load account; guarded by shardSet.routesMu.
type stripeStat struct {
	points  int     // resident owned points
	updates float64 // decayed op count
	waits   float64 // decayed lock waits observed on the shard commit path
	tick    uint64  // commitSeq the decay was last applied at
}

// decayTo brings the update and wait counters forward to commit sequence seq.
func (st *stripeStat) decayTo(seq uint64) {
	if d := seq - st.tick; d > 0 {
		f := math.Pow(loadDecay, float64(d))
		st.updates *= f
		st.waits *= f
		st.tick = seq
	}
}

func (st *stripeStat) load() float64 {
	return st.updates + pointLoadWeight*float64(st.points)
}

// Routing arithmetic. Stripe t covers columns [t·W, (t+1)·W) of dimension 0;
// its owner is resolved through the assignment table, which defaults to the
// round-robin t mod n and accumulates overrides as stripes migrate. The
// stripe is the only placement unit: every column of a stripe has the
// stripe's owner, so routing and ghost-band replication walk whole stripes.

func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

func floorMod(a, b int64) int64 {
	m := a % b
	if m != 0 && (m < 0) != (b < 0) {
		m += b
	}
	return m
}

// shardOfStripe resolves one stripe through the assignment table. The stripe
// is the only placement unit: routing, replication and load accounting all
// key on it. Readers must hold routesMu or any worldMu mode (the table
// changes only under both).
func (ss *shardSet) shardOfStripe(t int64) int32 {
	if s, ok := ss.assign[t]; ok {
		return s
	}
	return int32(floorMod(t, int64(len(ss.shards))))
}

// ownerOfCol resolves one cell column to its owning shard: the owner of the
// column's stripe. Same locking discipline as shardOfStripe.
func (ss *shardSet) ownerOfCol(c0 int64) int32 {
	return ss.shardOfStripe(floorDiv(c0, ss.stripeCells))
}

// ownerOf returns the shard owning the cell.
func (ss *shardSet) ownerOf(coord grid.Coord) int32 {
	return ss.ownerOfCol(int64(coord[0]))
}

// replicated reports whether the cell is held by more than one shard — the
// owner plus at least one ghost copy. Under an assignment table an adjacent
// stripe may belong to the owner itself, so this is a property of the mask,
// not of the band alone.
func (ss *shardSet) replicated(coord grid.Coord) bool {
	m := ss.shardsOf(coord)
	return m&(m-1) != 0
}

// shardsOf returns the mask of the shards that must hold a copy of a point in
// the given cell: the owner plus every shard whose ghost band covers the cell
// (its owned columns lie within bandCells of the cell's column). The walk
// goes outward until the nearest column of the stripe is beyond the band; the
// distances are monotone in |dt|, so the loops end after a handful of
// iterations for any sane stripe width.
func (ss *shardSet) shardsOf(coord grid.Coord) uint64 {
	c0 := int64(coord[0])
	t := floorDiv(c0, ss.stripeCells)
	mask := shardBit(ss.shardOfStripe(t))
	for dt := int64(1); (t+dt)*ss.stripeCells-c0 <= ss.bandCells; dt++ {
		mask |= shardBit(ss.shardOfStripe(t + dt))
	}
	for dt := int64(1); c0-((t-dt)*ss.stripeCells+ss.stripeCells-1) <= ss.bandCells; dt++ {
		mask |= shardBit(ss.shardOfStripe(t - dt))
	}
	return mask
}

// decideStripeLocked resolves the adaptive stripe width from the first
// committed batch: the batch's dimension-0 cell extent divided across
// adaptiveStripesPerShard stripes per shard, clamped to [bandCells+1,
// defaultStripeCells]. Caller holds routesMu; runs at most once, before any
// point has been routed.
func (ss *shardSet) decideStripeLocked(ops []shOp) {
	var lo, hi int32
	seen := false
	for i := range ops {
		if !ops[i].insert {
			continue
		}
		c := ops[i].sp.Coord()[0]
		if !seen {
			lo, hi = c, c
			seen = true
			continue
		}
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	if !seen {
		return // nothing to observe yet; keep the provisional default
	}
	ss.adaptivePending = false
	// Arm the live re-derivation (maybeAdaptWidth): the width decided here
	// is a bet on the first batch's extent, and the engine keeps watching
	// the extent to re-derive when the bet goes stale.
	ss.adaptiveWidth = true
	ss.extLo, ss.extHi, ss.extSeen = lo, hi, true
	ss.nextWidthCheck = ss.commitSeq + widthCheckEvery
	ss.stripeCells = ss.deriveWidthLocked()
}

// noteLoadLocked charges one op to the stripe owning the cell column col;
// waited additionally records one observed lock wait on the op's owner shard
// (the hotspot detector's direct contention signal). The stats key is the
// stripe index. Caller holds routesMu and has already advanced commitSeq for
// this commit.
func (ss *shardSet) noteLoadLocked(col int32, insert, waited bool) {
	t := floorDiv(int64(col), ss.stripeCells)
	st := ss.stripeLoad[t]
	if st == nil {
		st = &stripeStat{tick: ss.commitSeq}
		ss.stripeLoad[t] = st
	}
	st.decayTo(ss.commitSeq)
	st.updates++
	if waited {
		st.waits++
	}
	if insert {
		st.points++
		// Running extent for the adaptive-width re-derivation. Deletions do
		// not shrink it: growth is the drift that strands the stripe width
		// (see deriveWidthLocked).
		if !ss.extSeen {
			ss.extLo, ss.extHi, ss.extSeen = col, col, true
		} else if col < ss.extLo {
			ss.extLo = col
		} else if col > ss.extHi {
			ss.extHi = col
		}
	} else {
		st.points--
	}
}

// StripeCells returns the effective shard stripe width in grid cells along
// dimension 0 (after clamping to the ghost-band width and, when
// WithShardStripe was not given, the adaptive decision made at the first
// committed batch). It returns 0 on a one-shard Engine, whose placement is
// inert.
func (e *Engine) StripeCells() int {
	if !e.sh.placing() {
		return 0
	}
	e.sh.routesMu.Lock()
	defer e.sh.routesMu.Unlock()
	return int(e.sh.stripeCells)
}

// ShardLoads reports the per-shard placement load of a sharded Engine: the
// stripes currently attributed to each shard, their resident owned points,
// and their decayed update counters. It returns nil on a one-shard Engine,
// which keeps no load accounts.
func (e *Engine) ShardLoads() []ShardLoad {
	if !e.sh.placing() {
		return nil
	}
	ss := e.sh
	ss.routesMu.Lock()
	defer ss.routesMu.Unlock()
	out := make([]ShardLoad, len(ss.shards))
	for i := range out {
		out[i].Shard = i
	}
	for t, st := range ss.stripeLoad {
		st.decayTo(ss.commitSeq)
		s := ss.shardOfStripe(t)
		out[s].Stripes++
		out[s].Points += st.points
		out[s].Updates += st.updates
	}
	return out
}

// Rebalance evaluates the per-shard load balance and migrates hot stripes —
// at most as many as the engine has shards — from overloaded shards to
// underloaded ones, using the policy given to WithRebalance (or
// DefaultRebalancePolicy's thresholds when none was). It returns how many
// stripes moved.
//
// A migration never quiesces the engine for the whole move. It copies the
// stripe's points to their new placement in short rounds, each under an
// exclusive world lock bounded by a fixed time budget, with commits admitted
// between rounds; then it flips the stripe's owner and folds the move into
// the seam; then it trims the stale copies in rounds of the same kind. Each
// migration advances the engine Version. Everything user-visible survives:
// point handles, ClusterIDs, the event stream's ordering, and — with
// Rho = 0 — the clustering itself bit-for-bit. On insertion-only backends
// (AlgoSemiDynamic) the source shard's copies cannot be deleted and remain
// resident (new traffic still routes to the new owner); memory is reclaimed
// only on deletion-capable algorithms. Rebalance returns after the trim. It
// is a no-op on a one-shard Engine.
//
// Every migration is logged when it flips. A failed append or durability
// wait stops the pass; Rebalance then returns that error together with the
// number of stripes moved before it.
func (e *Engine) Rebalance() (moved int, err error) {
	if !e.sh.placing() {
		return 0, nil
	}
	// One pass at a time, shared with the automatic cadence: migrations
	// release the world lock between rounds, so two interleaved passes could
	// chase each other's placement. A call that loses the race reports zero
	// moves; the running pass is doing the work.
	if !e.sh.rebalancing.CompareAndSwap(false, true) {
		return 0, nil
	}
	defer e.sh.rebalancing.Store(false)
	return e.sh.rebalance(e.sh.policy)
}

// maybeAutoRebalance runs the automatic check cadence of WithRebalance; it
// is called by commitBatch after publishing, with no lock held. A CAS flag
// collapses concurrent committers into one pass.
func (ss *shardSet) maybeAutoRebalance() {
	if w := ss.e.wal; w != nil && w.recovering {
		// Replaying (or a replica): placement changes come from the log's
		// assign records only — a spontaneous migration here would evolve
		// placement differently than the engine that wrote the log.
		return
	}
	ss.routesMu.Lock()
	due := ss.commitSeq >= ss.nextAutoCheck
	if due {
		ss.nextAutoCheck = ss.commitSeq + uint64(ss.autoEvery)
	}
	ss.routesMu.Unlock()
	if !due || !ss.rebalancing.CompareAndSwap(false, true) {
		return
	}
	defer ss.rebalancing.Store(false)
	// A failed append stops the pass; the committer that triggered it meets
	// the same log failure on its own next append.
	_, _ = ss.rebalance(ss.policy)
}

// widthCheckEvery is the adaptive-width re-derivation cadence in commits.
const widthCheckEvery = 64

// deriveWidthLocked computes the adaptive stripe width from the running
// dimension-0 extent, for the first-batch decision (decideStripeLocked) and
// every later re-derivation. Returns 0 when no insert has been observed. The
// extent is a running min/max over every insert ever routed: growth is
// tracked live; shrinkage (mass deletion at the fringes) is not chased — a
// too-wide stripe only costs placement granularity, while re-deriving on a
// transient dip would thrash. Caller holds routesMu.
func (ss *shardSet) deriveWidthLocked() int64 {
	if !ss.extSeen {
		return 0
	}
	extent := int64(ss.extHi) - int64(ss.extLo) + 1
	stripes := adaptiveStripesPerShard * int64(len(ss.shards))
	w := (extent + stripes - 1) / stripes
	if w > defaultStripeCells {
		w = defaultStripeCells
	}
	// The band clamp applies last: with an extreme ρ·ε the ghost band can
	// exceed the default cap, and a stripe at or below the band replicates
	// every cell into several shards — the invariant the explicit-width
	// path clamps for must win over the cap.
	if min := ss.bandCells + 1; w < min {
		w = min
	}
	return w
}

// maybeAdaptWidth re-derives the adaptive stripe width when the data's
// dimension-0 extent has drifted so far that the derived width differs ≥4x
// from the one in effect — a spatially wandering workload would otherwise
// end up with every live point in a handful of stripes (or every stripe
// ghost-heavy), and no sequence of per-stripe migrations can fix a wrong
// granularity. Runs on the committing goroutine after every lock has been
// released, mirroring maybeAutoRebalance; replay and replicas evolve the
// width through wal.OpWidth records instead.
func (ss *shardSet) maybeAdaptWidth() {
	if w := ss.e.wal; w != nil && w.recovering {
		return
	}
	ss.routesMu.Lock()
	due := ss.adaptiveWidth && !ss.adaptivePending && ss.commitSeq >= ss.nextWidthCheck
	var cur, newW int64
	if due {
		ss.nextWidthCheck = ss.commitSeq + widthCheckEvery
		cur = ss.stripeCells
		newW = ss.deriveWidthLocked()
	}
	ss.routesMu.Unlock()
	if !due || newW == 0 || (newW < 4*cur && cur < 4*newW) {
		return
	}
	if !ss.rebalancing.CompareAndSwap(false, true) {
		return // a migration pass is running; re-derive on a later cadence
	}
	defer ss.rebalancing.Store(false)
	ss.reshapeWidth(newW)
}

// reshapeWidth applies a re-derived stripe width: it quiesces the hotspot
// machinery (whose state is keyed by stripe index), then re-routes every
// live point through the live migration protocol (migrate) with the width
// flip as its placement change.
func (ss *shardSet) reshapeWidth(newW int64) {
	if hs := ss.hs; hs != nil {
		// Split-phase state (the hot set, its staged buffers) is keyed
		// by stripe index: pause staging, drain, and demote everything
		// before the key space changes underneath it. The TryLock mirrors
		// maybeHotspotReconcile — and keeps a reconcile fold's nested
		// commit, which reaches this check with reconcileMu held, from
		// deadlocking.
		if !hs.reconcileMu.TryLock() {
			return
		}
		defer hs.reconcileMu.Unlock()
		ss.routesMu.Lock()
		hs.pausedStaging++
		ss.routesMu.Unlock()
		defer func() {
			ss.routesMu.Lock()
			hs.pausedStaging--
			ss.routesMu.Unlock()
		}()
		ss.foldAllLocked(joinWidth)
		ss.routesMu.Lock()
		for t := range hs.hot {
			delete(hs.hot, t)
			hs.hotCount.Add(-1)
		}
		ss.routesMu.Unlock()
	}
	// A failed append leaves the width as it was; the next cadence retries.
	_, _ = ss.migrate(placeMove{width: newW})
}

// rebalance runs one migration pass: pick, migrate, repeat until balanced or
// as many moves as there are shards. The first failed append or durability
// wait ends the pass and is returned with the number of stripes moved.
func (ss *shardSet) rebalance(pol RebalancePolicy) (int, error) {
	moved := 0
	for moved < len(ss.shards) {
		ss.worldMu.Lock()
		t, dst, ok := ss.pickMigrationLocked(pol)
		ss.worldMu.Unlock()
		if !ok {
			break
		}
		flipped, err := ss.migrate(placeMove{stripe: t, dst: dst})
		if flipped {
			moved++
		}
		if err != nil || !flipped {
			return moved, err // log closing or poisoned: stop migrating, keep what moved
		}
	}
	return moved, nil
}

// placeMove is one placement-table change: stripe moves to shard dst, or,
// when width is set, the stripe width becomes width.
type placeMove struct {
	stripe int64
	dst    int32
	width  int64
}

// inEffectLocked reports whether the table already says what m would make
// it say. Caller holds routesMu or any worldMu mode.
func (ss *shardSet) inEffectLocked(m placeMove) bool {
	if m.width != 0 {
		return ss.stripeCells == m.width
	}
	return ss.shardOfStripe(m.stripe) == m.dst
}

// colsLocked returns the cell columns whose copy sets m can change: the
// stripe padded by the ghost band, or every column for a width change.
// Caller holds routesMu or any worldMu mode.
func (ss *shardSet) colsLocked(m placeMove) (lo, hi int64) {
	if m.width != 0 {
		return math.MinInt64, math.MaxInt64
	}
	return m.stripe*ss.stripeCells - ss.bandCells, (m.stripe+1)*ss.stripeCells - 1 + ss.bandCells
}

// flipLocked rewrites the routing table as m says. A width change empties
// the assignment overrides: their stripe keys mean nothing under the new
// width. Caller holds worldMu exclusively and routesMu.
func (ss *shardSet) flipLocked(m placeMove) {
	if m.width != 0 {
		ss.stripeCells = m.width
		ss.assign = make(map[int64]int32)
		return
	}
	ss.assign[m.stripe] = m.dst
}

// walAppendMove logs a placement change before it happens: replay must flip
// the table at the same point in the op stream, or routing — and with it
// the stitch's cluster-id minting — would evolve differently than this
// engine's. Returns seq 0 when the engine is not logging.
func (ss *shardSet) walAppendMove(m placeMove) (uint64, error) {
	e := ss.e
	if !e.logging() {
		return 0, nil
	}
	op := wal.Op{Kind: wal.OpAssign, ID: m.stripe, To: int64(m.dst)}
	if m.width != 0 {
		op = wal.Op{Kind: wal.OpWidth, ID: m.width}
	}
	return e.wal.append([]wal.Op{op})
}

// migrateRoundBudget bounds the work of one exclusive round of a live
// migration: a grow round stops inserting copies, and a trim round stops
// deleting them, once this much time has passed. It is a time and not a
// point count because a copy's cost varies by an order of magnitude: one
// fully-dynamic delete of a stale copy takes 25–60 µs on hotspot-zipf.
// The round's seam fold comes on top.
const migrateRoundBudget = 4 * time.Millisecond

// maxGrowRounds caps the grow rounds of one migration: writers that keep
// adding points to the stripe faster than the rounds copy them cannot hold
// the flip off for ever. The flip grows whatever is still missing.
const maxGrowRounds = 64

// roundPacing is the gap between the exclusive rounds of a live migration.
// It is load-bearing, not politeness: each round that changes placement
// state bumps placeEpoch, and a commit that routed against the old epoch
// re-routes from scratch — without a gap long enough for in-flight commits
// to drain, back-to-back rounds could chase one unlucky commit through a
// re-route per round for the whole migration.
const roundPacing = 2 * time.Millisecond

// pace waits roundPacing between two rounds of a live migration. Replay and
// replicas have no writers to admit, so they go straight on.
func (ss *shardSet) pace() {
	if w := ss.e.wal; w == nil || !w.recovering {
		time.Sleep(roundPacing)
	}
}

// migrate runs one placement change — the only way placement changes, live
// or in replay. It never holds the world lock for the whole move:
//
//  1. Grow rounds insert the copies the new placement needs, each round
//     under a short exclusive section bounded by the round budget, with
//     commits admitted between rounds. Until the flip the new copies are
//     invisible to routing (the table still names the old placement) and
//     are tracked by the seam as off-placement copies; a real extra copy of
//     a real point can only under-count neighbourhoods elsewhere, never
//     invent cores or stitch edges, so any snapshot or checkpoint taken
//     mid-migration is exact. Deletes remove grown copies naturally (they
//     are listed in the point's route).
//  2. The flip logs the change, rewrites the table, grows what points
//     inserted between rounds still lack, and folds the seam while both
//     generations are resident (moveLocked). It runs in the section of the
//     grow round that finds nothing left to copy.
//  3. Trim rounds delete the stale copies the flip queued (trimRounds).
//
// flipped reports whether the table changed. The error is the flip's failed
// append or durability wait.
func (ss *shardSet) migrate(m placeMove) (flipped bool, err error) {
	for rounds := 1; ; rounds++ {
		ss.worldMu.Lock()
		ss.routesMu.Lock()
		if ss.inEffectLocked(m) {
			// Nothing to do, or a racing pass won. Every round folded its
			// own growth, so the seam is exact.
			ss.routesMu.Unlock()
			ss.worldMu.Unlock()
			return false, nil
		}
		full := rounds > maxGrowRounds
		var (
			ticket uint64
			evs    []Event
			pub    bool
		)
		if !full {
			evs, full = ss.growRoundLocked(m)
			if len(evs) > 0 {
				ticket, pub = ss.settleFoldLocked(evs)
			}
		}
		ss.routesMu.Unlock()
		if !full {
			ss.worldMu.Unlock()
			if pub {
				ss.e.publishOrdered(ticket, evs)
			}
			ss.pace()
			continue
		}
		seq, err := ss.walAppendMove(m)
		if err != nil {
			ss.worldMu.Unlock()
			if pub {
				ss.e.publishOrdered(ticket, evs)
			}
			return false, err
		}
		flipTicket, flipEvs, flipPub := ss.moveLocked(m)
		ss.worldMu.Unlock()
		// Durability barrier before the migration's events become visible,
		// mirroring the commit path; then publish after the unlock, in
		// ticket order, so a publisher parked on a full BlockSubscriber
		// queue holds no engine lock.
		err = ss.e.wal.finish(seq)
		if pub {
			ss.e.publishOrdered(ticket, evs)
		}
		if flipPub {
			ss.e.publishOrdered(flipTicket, flipEvs)
		}
		if rounds+ss.trimRounds() > 1 {
			ss.multiRound.Add(1)
		}
		return true, err
	}
}

// growRoundLocked is one grow round of migrate. Under the table m would
// make — applied and restored within the round; routesMu is held, so no
// commit observes it — it inserts the copies that points in m's columns
// lack, until the round budget is spent, counts them as off-placement
// copies, and folds the round into the seam. full reports that no point
// lacks a copy any more. Caller holds worldMu exclusively and routesMu.
func (ss *shardSet) growRoundLocked(m placeMove) (evs []Event, full bool) {
	start := time.Now()
	lo, hi := ss.colsLocked(m)
	width, assign := ss.stripeCells, ss.assign
	ss.assign = maps.Clone(assign)
	ss.flipLocked(m)
	full = true
	spent := false
	cells := make(map[grid.Coord]uint64)
	for gid, r := range ss.routes.all() {
		if c := int64(r.col); c < lo || c > hi {
			continue
		}
		var coord grid.Coord
		coord[0] = r.col
		missing := ss.shardsOf(coord) &^ r.mask
		if missing == 0 {
			continue
		}
		if spent {
			full = false
			break
		}
		pt, ok := ss.shards[r.owner].c.PointAt(gid)
		if !ok {
			panic(fmt.Sprintf("dyndbscan: migration lost the owner copy of point %d", gid))
		}
		sp, err := ss.e.stager.Stage(pt)
		if err != nil {
			panic(fmt.Sprintf("dyndbscan: migration re-staging point %d: %v", gid, err))
		}
		cell := sp.Coord()
		for s := range shardsIn(missing) {
			if err := ss.shards[s].c.InsertStaged(sp, gid); err != nil {
				panic(fmt.Sprintf("dyndbscan: shard %d rejected a migrated copy: %v", s, err))
			}
			// Routing names the old placement until the flip: the new copy
			// is off-placement, and the seam must track its cell.
			ss.offCells[cell]++
		}
		r.mask |= missing
		ss.routes.set(gid, r)
		cells[cell] |= r.mask
		spent = time.Since(start) >= ss.roundBudget
	}
	ss.stripeCells, ss.assign = width, assign
	if len(cells) > 0 {
		// A delete routed before this round holds the point's old route
		// and would leave the grown copy behind: make it re-route.
		ss.placeEpoch++
	}
	return ss.foldQueuedLocked(cells), full
}

// trimRef names one stale copy — point gid's copy in shard — and the cell it
// occupies: a copy a placement change left outside the new placement, queued
// for trimRounds.
type trimRef struct {
	gid   PointID
	shard int32
	cell  grid.Coord
}

// trimRounds drains the trim queue in rounds bounded by the round budget,
// each under a short exclusive section with commits admitted in between,
// and reports how many rounds it took. Every entry is re-validated against
// the live route before acting: the point may have been deleted (its stale
// copy went with it), a later reshape may have consumed or re-legitimized
// the copy, or the placement may route the shard again — in all of those the
// entry is simply dropped. Each round that removed copies folds the trims
// into the seam and bumps the placement epoch.
func (ss *shardSet) trimRounds() (rounds int) {
	for {
		ss.worldMu.Lock()
		ss.routesMu.Lock()
		if len(ss.trimQueue) == 0 {
			ss.routesMu.Unlock()
			ss.worldMu.Unlock()
			return rounds
		}
		rounds++
		start := time.Now()
		n := 0
		cells := make(map[grid.Coord]uint64)
		for n < len(ss.trimQueue) && (n == 0 || time.Since(start) < ss.roundBudget) {
			tr := ss.trimQueue[n]
			n++
			bit := shardBit(tr.shard)
			r, ok := ss.routes.get(tr.gid)
			if !ok || r.mask&bit == 0 || r.owner == tr.shard {
				// Gone already, or promoted to the owner copy by a later
				// reshape (then the placement routes it — keep it).
				continue
			}
			var coord grid.Coord
			coord[0] = r.col
			if ss.shardsOf(coord)&bit != 0 {
				continue // the placement routes the shard again
			}
			if err := ss.shards[tr.shard].c.Delete(tr.gid); err != nil {
				panic(fmt.Sprintf("dyndbscan: shard %d rejected trimming a stale copy: %v", tr.shard, err))
			}
			r.mask &^= bit
			ss.routes.set(tr.gid, r)
			ss.dropOffCell(tr.cell)
			cells[tr.cell] |= bit
		}
		ss.trimQueue = ss.trimQueue[n:]
		done := len(ss.trimQueue) == 0
		if done {
			ss.trimQueue = nil
		}
		var (
			ticket uint64
			evs    []Event
			pub    bool
		)
		if len(cells) > 0 {
			evs = ss.foldQueuedLocked(cells)
			// Trims mutate backends outside any commit; if a checkpoint
			// already consumed the flip's full flag, re-arm it.
			ss.e.wal.markDirtyFull()
			ss.placeEpoch++
			ticket, pub = ss.settleFoldLocked(evs)
		}
		ss.routesMu.Unlock()
		ss.worldMu.Unlock()
		if pub {
			ss.e.publishOrdered(ticket, evs)
		}
		if done {
			return rounds
		}
		ss.pace()
	}
}

// pickMigrationLocked chooses the next migration: the hottest stripe of the
// most loaded shard whose move to the least loaded shard strictly improves
// the pair. ok is false when the balance is within policy or no stripe's
// move would help. Caller holds worldMu exclusively.
func (ss *shardSet) pickMigrationLocked(pol RebalancePolicy) (stripe int64, dst int32, ok bool) {
	ss.routesMu.Lock()
	defer ss.routesMu.Unlock()
	n := len(ss.shards)
	loads := make([]float64, n)
	type cand struct {
		t int64
		l float64
	}
	byShard := make([][]cand, n)
	for t, st := range ss.stripeLoad {
		st.decayTo(ss.commitSeq)
		if st.points == 0 && st.updates < 0.5 {
			delete(ss.stripeLoad, t) // fully decayed and empty: drop
			continue
		}
		l := st.load()
		s := ss.shardOfStripe(t)
		loads[s] += l
		byShard[s] = append(byShard[s], cand{t, l})
	}
	src, least := 0, 0
	total := 0.0
	for s, l := range loads {
		total += l
		if l > loads[src] {
			src = s
		}
		if l < loads[least] {
			least = s
		}
	}
	mean := total / float64(n)
	if src == least || loads[src] < pol.MinLoad || loads[src] <= pol.MaxImbalance*mean {
		return 0, 0, false
	}
	cands := byShard[src]
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].l != cands[j].l {
			return cands[i].l > cands[j].l
		}
		return cands[i].t < cands[j].t
	})
	for _, c := range cands {
		if c.l <= 0 {
			break
		}
		// Strict improvement: both resulting loads stay below the current
		// source load, so passes cannot oscillate.
		if loads[least]+c.l < loads[src] {
			return c.t, int32(least), true
		}
	}
	return 0, 0, false
}

// moveLocked is a placement change's flip: it applies m to the table and
// moves the physical copies to match (reshapeLocked). A width change also
// rebuilds the stripe-keyed load accounts: the resident point counts from
// the routes, while the decayed traffic counters restart from zero. Caller
// holds worldMu exclusively; the returned ticket/evs (pub=true) must be
// published by the caller after releasing it, and the caller drains the
// queued trims with trimRounds.
func (ss *shardSet) moveLocked(m placeMove) (ticket uint64, evs []Event, pub bool) {
	lo, hi := ss.colsLocked(m)
	ticket, evs, pub = ss.reshapeLocked(lo, hi, func() {
		ss.flipLocked(m)
		if m.width != 0 {
			ss.stripeLoad = make(map[int64]*stripeStat)
		}
	})
	if m.width == 0 {
		return ticket, evs, pub
	}
	ss.routesMu.Lock()
	for _, r := range ss.routes.all() {
		t := floorDiv(int64(r.col), ss.stripeCells)
		st := ss.stripeLoad[t]
		if st == nil {
			st = &stripeStat{tick: ss.commitSeq}
			ss.stripeLoad[t] = st
		}
		st.points++
	}
	ss.routesMu.Unlock()
	return ticket, evs, pub
}

// reshapeLocked applies one placement-table change (flip) and moves the
// physical copies to match: it grows (inserts the copies the new placement
// requires) and folds the seam while both generations are co-resident — the
// bridge that carries the global ClusterID assignment onto the target's
// local clusters. The copies the old placement held and the new one does not
// stay resident and listed, counted as off-placement, and join the trim
// queue; trimRounds deletes them later. The affected handles are those whose
// cell column lies in [loCol, hiCol] — the reshaped columns padded by the
// ghost band. Caller holds worldMu exclusively; the returned ticket/evs
// (pub=true) must be published by the caller after releasing it.
func (ss *shardSet) reshapeLocked(loCol, hiCol int64, flip func()) (ticket uint64, evs []Event, pub bool) {
	e := ss.e

	// A reshape moves copies between backends — churn the change ledger
	// does not model. The next checkpoint must be a full base.
	e.wal.markDirtyFull()

	// The table and the route rewrites happen under one routesMu critical
	// section: concurrent commits route under routesMu, so they observe
	// either the old placement with the old routes or the new pair — never a
	// mix. placeEpoch is bumped at the end; a commit that routed against the
	// old placement re-checks the epoch under its shard locks and re-routes.
	ss.routesMu.Lock()
	defer ss.routesMu.Unlock()

	// Affected handles: every point whose copy set can change — its cell
	// column lies within the reshaped range. The full routes scan is O(live
	// points); everything after it is O(affected points).
	type moveRec struct {
		gid PointID
		old route
	}
	var moves []moveRec
	for gid, r := range ss.routes.all() {
		if c := int64(r.col); c >= loCol && c <= hiCol {
			moves = append(moves, moveRec{gid, r})
		}
	}
	// Every copy in the range is listed in an affected route, so the grow
	// below recounts the range's off-placement copies from scratch.
	for c := range ss.offCells {
		if col := int64(c[0]); col >= loCol && col <= hiCol {
			delete(ss.offCells, c)
		}
	}

	// Flip the table: shardsOf speaks the new placement from here on.
	flip()

	// Grow: route every affected point under the new placement, inserting
	// the copies it lacks. cells collects every affected cell with the
	// shards holding a copy of it before or after: the cells whose seam
	// tracking the reshape may change.
	cells := make(map[grid.Coord]uint64)
	trim := e.algo != AlgoSemiDynamic // insertion-only backends cannot drop copies
	for _, mv := range moves {
		pt, ok := ss.shards[mv.old.owner].c.PointAt(mv.gid)
		if !ok {
			panic(fmt.Sprintf("dyndbscan: migration lost the owner copy of point %d", mv.gid))
		}
		cell := ss.geo.CellOf(pt)
		placed := ss.shardsOf(cell)
		cells[cell] |= mv.old.mask | placed
		if grow := placed &^ mv.old.mask; grow != 0 {
			sp, err := ss.e.stager.Stage(pt)
			if err != nil {
				panic(fmt.Sprintf("dyndbscan: migration re-staging point %d: %v", mv.gid, err))
			}
			for s := range shardsIn(grow) {
				if err := ss.shards[s].c.InsertStaged(sp, mv.gid); err != nil {
					panic(fmt.Sprintf("dyndbscan: shard %d rejected a migrated copy: %v", s, err))
				}
			}
		}
		// A stale copy stays listed, so deletes still find it and a later
		// reshape routing its shard again reuses it instead of inserting a
		// duplicate (which would inflate densities). On insertion-only
		// backends it stays for good.
		stale := mv.old.mask &^ placed
		for s := range shardsIn(stale) {
			ss.offCells[cell]++
			if trim {
				ss.trimQueue = append(ss.trimQueue, trimRef{mv.gid, s, cell})
			}
		}
		ss.routes.set(mv.gid, route{col: mv.old.col, owner: ss.ownerOf(cell), mask: placed | stale})
	}

	// Fold: both generations are resident and the stale copies count as
	// off-placement, so every reshaped cell is tracked in every shard
	// holding it. Co-resident source and target clusters share a component,
	// and the target keys claim the source's global ids before trimRounds
	// removes the source copies.
	evs = ss.foldQueuedLocked(cells)
	ticket, pub = ss.settleFoldLocked(evs)
	ss.placeEpoch++
	return ticket, evs, pub
}

// settleFoldLocked makes an out-of-commit fold visible: the version bump
// invalidates cached snapshots, and the fold's global events (possible only
// under Rho > 0 don't-care re-resolution) take a publication ticket when
// subscribers consume them. Caller holds worldMu exclusively, so the ticket
// orders the events exactly where the fold happened between commits.
func (ss *shardSet) settleFoldLocked(evs []Event) (ticket uint64, pub bool) {
	// Reshapes and chunk rounds only reorganize in-memory copies and the
	// stitch; the data ops they move were WAL-logged when they committed,
	// and recovery rebuilds placement from the replayed ops, so there is
	// nothing to log here.
	//
	//dynlint:ignore logvisible reshape is an in-memory reorganization; constituent ops are already logged and recovery recomputes placement
	ss.e.version.Add(1)
	if !ss.eventsOn || len(evs) == 0 {
		return 0, false
	}
	return ss.e.takeTicket(), true
}

// dropOffCell retires one off-placement copy of a cell from offCells.
func (ss *shardSet) dropOffCell(c grid.Coord) {
	if n := ss.offCells[c]; n > 1 {
		ss.offCells[c] = n - 1
	} else {
		delete(ss.offCells, c)
	}
}
