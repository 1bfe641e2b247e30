package dyndbscan

// Test-only exports.

import "time"

// SeamAudit cross-checks the engine's incrementally maintained seam structure
// against a fresh recomputation from the live backends, under a quiesced
// world. Tests (the randomized cross-mode equivalence harness in particular)
// call it at every checkpoint: any divergence between the folded deltas and
// the ground truth is reported at the first commit that introduced it.
func (e *Engine) SeamAudit() error {
	ss := e.sh
	ss.worldMu.Lock()
	defer ss.worldMu.Unlock()
	return ss.auditSeamLocked()
}

// MoveStripe migrates one stripe to the given shard unconditionally,
// bypassing the load policy — the directed-migration hook of the placement
// tests (Rebalance only migrates what the policy deems worthwhile). It runs
// the live migration protocol, grow rounds, flip and trim rounds, as a
// Rebalance pass does.
func (e *Engine) MoveStripe(stripe int64, dst int) error {
	_, err := e.sh.migrate(placeMove{stripe: stripe, dst: int32(dst)})
	return err
}

// SetMigrateRoundBudget overrides the time budget of one exclusive migration
// round, so that tests can force a migration into many rounds. Call it
// before the engine's first migration.
func (e *Engine) SetMigrateRoundBudget(d time.Duration) {
	e.sh.roundBudget = d
}

// MultiRoundMigrations reports how many migrations took more than one
// exclusive round.
func (e *Engine) MultiRoundMigrations() int64 {
	return e.sh.multiRound.Load()
}

// StripeOwner reports which shard currently owns the stripe.
func (e *Engine) StripeOwner(stripe int64) int {
	ss := e.sh
	ss.routesMu.Lock()
	defer ss.routesMu.Unlock()
	return int(ss.shardOfStripe(stripe))
}

// DefaultStripeCells exposes the provisional/default stripe width (also the
// adaptive cap) so tests assert against the real constant.
const DefaultStripeCells = defaultStripeCells

// StagedOps reports how many acknowledged inserts currently sit in hotspot
// staging buffers, awaiting reconciliation.
func (e *Engine) StagedOps() int64 {
	if e.sh.hs == nil {
		return 0
	}
	return e.sh.hs.stagedTotal.Load()
}

// HoldReconcile acquires the hotspot reconcile lock and returns its release —
// the directed hook of the join-barrier regression tests: while held, it
// plays the part of an in-flight reconcile whose stripe snapshot predates
// later-staged ops, so a correct barrier join (Sync/Checkpoint/delete/Close)
// must block until release instead of returning with deltas still staged.
func (e *Engine) HoldReconcile() (release func()) {
	hs := e.sh.hs
	hs.reconcileMu.Lock()
	return hs.reconcileMu.Unlock
}

// HoldWorldShared takes the world lock shared, as an in-flight commit does,
// and returns its release — the directed hook of the migration-round tests:
// while held, a migration round waits for the lock exclusively, and commits
// that route meanwhile queue behind the round.
func (e *Engine) HoldWorldShared() (release func()) {
	e.sh.worldMu.RLock()
	return e.sh.worldMu.RUnlock
}

// PublishedSnapshot returns the snapshot in the publication slot, current or
// not (nil before the first build). Every snapshot build publishes, so a
// slot that holds the same pointer before and after a read proves the read
// built none.
func (e *Engine) PublishedSnapshot() *Snapshot {
	return e.snap.Load()
}

// ChangeLedger reports the checkpoint ledger's size, whether it has gone
// full, and the live handle count that caps it.
func (e *Engine) ChangeLedger() (entries, live int, full bool) {
	ss := e.sh
	ss.worldMu.Lock()
	defer ss.worldMu.Unlock()
	ss.routesMu.Lock()
	live = ss.routes.len()
	ss.routesMu.Unlock()
	d := &e.wal.dirty
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.entries(), live, d.full
}
