package dyndbscan

// Incremental cross-shard stitch. Everything in this file runs under
// shardSet.seamMu (lock level 60, declared in shard.go) or under worldMu
// held exclusively (placement changes, checkpoint restore, audit); see
// LOCKING.md.
//
// PR 3 stitched shard-local clusters into global ones by re-enumerating every
// core cell of every shard under an exclusive world lock. Snapshot builds
// could afford that, but event-enabled commits could not: deriving global
// cluster events needed a per-commit stitch diff, so the moment a subscriber
// attached, sharded commits fell back to stop-the-world — the write path lost
// its parallelism exactly when users watched cluster evolution.
//
// seamState removes that fallback. It is a persistently maintained version of
// the stitch: the per-shard labels of every cell two or more shards hold
// copies of (the seam cells, see seamTracked), the edge multiset those labels
// induce between shard-local clusters, the set of live shard-local clusters,
// and the global-id assignment over them. It is the engine's only stitch:
// commits fold their own changes in — a seam delta — and so does every round
// of a stripe migration or width reshape (foldQueuedLocked); a
// checkpoint restore is an ordinary commit. Nothing ever rebuilds it:
//
//   - each backend's change record (internal/core/changes.go) marks the
//     cells whose core-cell state crossed the empty/non-empty boundary; the
//     commit re-reads each one's final label under the shard locks it
//     already holds;
//   - whole-cluster label changes arrive as the backends' own merge / split /
//     form / dissolve events: a merge is a bulk rename of the absorbed key's
//     seam entries, a split re-reads exactly the split cluster's seam cells
//     (scoped re-derivation — the deletion-side answer to union-find not
//     supporting deletes), form and dissolve add and retire keys.
//
// Because every op is replayed in every shard holding a copy of its cell, a
// shard's view of any cell it stores evolves only during commits that hold
// that shard's lock — and any commit that changes any shard's view of a cell
// necessarily holds the cell owner's lock (the op lies within the owner's
// ghost band). Seam entries of one cell are therefore never mutated by two
// in-flight commits, and seamMu only has to serialize the structural fold, not
// the world: commits on disjoint shard sets stay concurrent with subscribers
// attached.
//
// Global ids keep the stable-identity contract through scoped re-derivation:
// a commit pulls into scope every shard-local cluster whose component might
// have changed (closing over whole pre-commit components), recomputes just
// those components, and re-claims ids — each final component claims the
// smallest unclaimed global id attributed to it through the commit's lineage,
// minting only for components with no history. Untouched components are never
// revisited, so their ids cannot move. The global cluster events of the
// commit are the net transitions between the scoped pre- and post-states,
// exactly as the old stop-the-world diff computed them globally.

import (
	"fmt"
	"math/bits"
	"sort"

	"dyndbscan/internal/core"
	"dyndbscan/internal/grid"
)

// seamState is the live stitch structure; all fields are guarded by
// shardSet.seamMu (commits fold deltas under it) except during the
// out-of-commit folds, which run under worldMu held exclusively.
type seamState struct {
	// cells holds, for every tracked cell (seamTracked) that at least one
	// backend currently sees as core, the local cluster label each such
	// backend assigns it.
	cells map[grid.Coord]map[int32]ClusterID
	// keyCells is the inverse index: the tracked cells each shard-local
	// cluster currently labels — the scope of a rename or split.
	keyCells map[stitchKey]map[grid.Coord]struct{}
	// adj is the seam edge multiset: adj[a][b] counts the tracked cells
	// carrying entries for both a and b (symmetric, never self).
	adj map[stitchKey]map[stitchKey]int
	// keys is every live shard-local cluster, interior ones included
	// (maintained from the backends' form/dissolve/merge/split events).
	keys map[stitchKey]struct{}
	// gidKeys inverts shardSet.keyGID over the live keys: the members of
	// each global cluster's component.
	gidKeys map[ClusterID]map[stitchKey]struct{}
}

func newSeamState() *seamState {
	return &seamState{
		cells:    make(map[grid.Coord]map[int32]ClusterID),
		keyCells: make(map[stitchKey]map[grid.Coord]struct{}),
		adj:      make(map[stitchKey]map[stitchKey]int),
		keys:     make(map[stitchKey]struct{}),
		gidKeys:  make(map[ClusterID]map[stitchKey]struct{}),
	}
}

func (sm *seamState) adjInc(a, b stitchKey) {
	if a == b {
		return
	}
	for _, p := range [2][2]stitchKey{{a, b}, {b, a}} {
		m := sm.adj[p[0]]
		if m == nil {
			m = make(map[stitchKey]int)
			sm.adj[p[0]] = m
		}
		m[p[1]]++
	}
}

func (sm *seamState) adjDec(a, b stitchKey) {
	if a == b {
		return
	}
	for _, p := range [2][2]stitchKey{{a, b}, {b, a}} {
		m := sm.adj[p[0]]
		if m == nil || m[p[1]] == 0 {
			panic(fmt.Sprintf("dyndbscan: seam adjacency underflow between %v and %v", a, b))
		}
		if m[p[1]]--; m[p[1]] == 0 {
			delete(m, p[1])
			if len(m) == 0 {
				delete(sm.adj, p[0])
			}
		}
	}
}

// seamTxn accumulates one commit's seam delta: the scoped pre-state (the
// global-id assignment of every component the delta might change), the keys
// minted by the commit, and the lineage its local merges/splits induced.
type seamTxn struct {
	ss      *shardSet
	pre     map[stitchKey]ClusterID // pre-commit gid of every scoped pre-existing key
	scoped  map[ClusterID]struct{}  // pre-gids whose whole components were pulled into pre
	fresh   map[stitchKey]struct{}  // keys minted by this commit (no pre-gid)
	lineage map[stitchKey][]stitchKey
}

func (ss *shardSet) newSeamTxn() *seamTxn {
	return &seamTxn{
		ss:      ss,
		pre:     make(map[stitchKey]ClusterID),
		scoped:  make(map[ClusterID]struct{}),
		fresh:   make(map[stitchKey]struct{}),
		lineage: make(map[stitchKey][]stitchKey),
	}
}

// openTxn returns tx, opening a fresh transaction when tx is nil: a commit
// opens one only once its delta holds a cluster event or a tracked cell.
func (ss *shardSet) openTxn(tx *seamTxn) *seamTxn {
	if tx == nil {
		return ss.newSeamTxn()
	}
	return tx
}

// enterScope pulls k's pre-commit component into the transaction scope: once
// any member of a component is touched, the whole component's previous
// assignment participates in re-derivation and claiming. Keys minted by this
// commit have no pre-state and are scoped through tx.fresh instead.
func (tx *seamTxn) enterScope(k stitchKey) {
	if _, isFresh := tx.fresh[k]; isFresh {
		return
	}
	if _, seen := tx.pre[k]; seen {
		return
	}
	g, ok := tx.ss.keyGID[k]
	if !ok {
		return // key unknown to the assignment (never live): nothing to scope
	}
	if _, done := tx.scoped[g]; done {
		tx.pre[k] = g // defensive: component index missed this member
		return
	}
	tx.scoped[g] = struct{}{}
	for member := range tx.ss.seam.gidKeys[g] {
		tx.pre[member] = g
	}
	tx.pre[k] = g
}

// addKey registers a cluster formed by this commit.
func (tx *seamTxn) addKey(k stitchKey) {
	sm := tx.ss.seam
	if _, ok := sm.keys[k]; ok {
		tx.enterScope(k) // duplicate formation: tolerate, but re-derive
		return
	}
	sm.keys[k] = struct{}{}
	tx.fresh[k] = struct{}{}
}

// removeKey retires a dissolved cluster. Its remaining seam entries are torn
// down defensively — the cells that carried them transitioned and will be
// re-read by the change-record pass anyway.
func (tx *seamTxn) removeKey(k stitchKey) {
	tx.enterScope(k)
	sm := tx.ss.seam
	if kc := sm.keyCells[k]; len(kc) > 0 {
		coords := make([]grid.Coord, 0, len(kc))
		for c := range kc {
			coords = append(coords, c)
		}
		for _, c := range coords {
			tx.setEntry(k.shard, c, 0, false)
		}
	}
	delete(sm.keys, k)
	delete(tx.fresh, k)
}

// renameKey folds a local merge into the seam: every entry labeled absorbed
// becomes survivor, the absorbed key retires, and the lineage records that
// its identity flowed into the survivor.
func (tx *seamTxn) renameKey(s int32, absorbed, survivor ClusterID) {
	ka, kv := stitchKey{s, absorbed}, stitchKey{s, survivor}
	tx.enterScope(ka)
	tx.enterScope(kv)
	tx.lineage[ka] = append(tx.lineage[ka], kv)
	sm := tx.ss.seam
	if _, ok := sm.keys[kv]; !ok {
		// The survivor must be live; recover by registering it.
		sm.keys[kv] = struct{}{}
		tx.fresh[kv] = struct{}{}
	}
	for coord := range sm.keyCells[ka] {
		ents := sm.cells[coord]
		for os, ocid := range ents {
			if os == s {
				continue
			}
			other := stitchKey{os, ocid}
			tx.enterScope(other)
			sm.adjDec(ka, other)
			sm.adjInc(kv, other)
		}
		ents[s] = survivor
		kc := sm.keyCells[kv]
		if kc == nil {
			kc = make(map[grid.Coord]struct{})
			sm.keyCells[kv] = kc
		}
		kc[coord] = struct{}{}
	}
	delete(sm.keyCells, ka)
	delete(sm.keys, ka)
	delete(tx.fresh, ka)
}

// splitKey folds a local split into the seam: fragment keys are minted, the
// lineage records the old identity flowing into each fresh fragment, and the
// cells the split cluster labeled are re-read from the backend (under the
// shard lock the commit holds) — the scoped re-derivation that stands in for
// union-find deletion.
func (tx *seamTxn) splitKey(s int32, old ClusterID, frags []ClusterID, w core.CoreCellWalker) {
	ko := stitchKey{s, old}
	tx.enterScope(ko)
	for _, f := range frags {
		if f == old {
			continue
		}
		tx.addKey(stitchKey{s, f})
		tx.lineage[ko] = append(tx.lineage[ko], stitchKey{s, f})
	}
	sm := tx.ss.seam
	if kc := sm.keyCells[ko]; len(kc) > 0 {
		coords := make([]grid.Coord, 0, len(kc))
		for c := range kc {
			coords = append(coords, c)
		}
		for _, c := range coords {
			lab, ok := w.CoreCellCluster(c)
			tx.setEntry(s, c, lab, ok)
		}
	}
}

// applyClusterEvent folds one backend cluster event of shard s into the
// transaction. Point events never reach here.
func (tx *seamTxn) applyClusterEvent(s int32, ev Event, w core.CoreCellWalker) {
	switch ev.Kind {
	case EventClusterFormed:
		tx.addKey(stitchKey{s, ev.Cluster})
	case EventClusterDissolved:
		tx.removeKey(stitchKey{s, ev.Cluster})
	case EventClusterMerged:
		tx.renameKey(s, ev.Absorbed, ev.Cluster)
	case EventClusterSplit:
		tx.splitKey(s, ev.Cluster, ev.Fragments, w)
	}
}

// setEntry records shard s's current view of tracked cell coord: label lab
// while the cell holds core points in that view (ok), absent otherwise.
// Every key whose adjacency changes is pulled into scope first.
func (tx *seamTxn) setEntry(s int32, coord grid.Coord, lab ClusterID, ok bool) {
	sm := tx.ss.seam
	ents := sm.cells[coord]
	cur, had := ClusterID(0), false
	if ents != nil {
		cur, had = ents[s]
	}
	if had && ok && cur == lab {
		return
	}
	if had {
		k := stitchKey{s, cur}
		tx.enterScope(k)
		for os, ocid := range ents {
			if os == s {
				continue
			}
			other := stitchKey{os, ocid}
			tx.enterScope(other)
			sm.adjDec(k, other)
		}
		delete(ents, s)
		if kc := sm.keyCells[k]; kc != nil {
			delete(kc, coord)
			if len(kc) == 0 {
				delete(sm.keyCells, k)
			}
		}
		if len(ents) == 0 {
			delete(sm.cells, coord)
			ents = nil
		}
	}
	if !ok {
		return
	}
	k := stitchKey{s, lab}
	tx.enterScope(k)
	if _, live := sm.keys[k]; !live {
		// A label with no recorded formation (should not happen; the event
		// stream precedes the change-record pass). Register it so the claim
		// pass can mint an id rather than corrupt the assignment.
		sm.keys[k] = struct{}{}
		tx.fresh[k] = struct{}{}
	}
	if ents == nil {
		ents = make(map[int32]ClusterID, 2)
		sm.cells[coord] = ents
	}
	for os, ocid := range ents {
		if os == s {
			continue
		}
		other := stitchKey{os, ocid}
		tx.enterScope(other)
		sm.adjInc(k, other)
	}
	ents[s] = lab
	kc := sm.keyCells[k]
	if kc == nil {
		kc = make(map[grid.Coord]struct{})
		sm.keyCells[k] = kc
	}
	kc[coord] = struct{}{}
}

// finalize re-derives the scoped components, re-claims their global ids, and
// returns the commit's net global cluster events. Caller holds seamMu.
func (tx *seamTxn) finalize() []Event {
	sm := tx.ss.seam
	if len(tx.pre) == 0 && len(tx.fresh) == 0 {
		return nil
	}

	// Scoped key set: every touched key still live.
	scopedKeys := make(map[stitchKey]struct{}, len(tx.pre)+len(tx.fresh))
	addScoped := func(k stitchKey) {
		if _, live := sm.keys[k]; live {
			scopedKeys[k] = struct{}{}
		}
	}
	for k := range tx.pre {
		addScoped(k)
	}
	for k := range tx.fresh {
		addScoped(k)
	}

	// Re-derive the affected components by BFS over the seam adjacency.
	// Scope closure should make the walk stay inside scopedKeys; if an edge
	// added this commit reaches an untouched component anyway, pull its
	// pre-state in on the fly (its keyGID entries are still the pre-commit
	// values — nothing is rewritten until the claim pass below).
	visited := make(map[stitchKey]struct{}, len(scopedKeys))
	var comps [][]stitchKey
	for {
		// Roots: scoped keys not yet placed in a component. Entering the
		// scope of an escaped-to component during the walk below can add more
		// (pre members the walk did not reach), so drain until stable —
		// leaving any scoped live key unvisited would retire its id without
		// re-claiming it.
		roots := make([]stitchKey, 0, len(scopedKeys))
		for k := range scopedKeys {
			if _, done := visited[k]; !done {
				roots = append(roots, k)
			}
		}
		for k := range tx.pre {
			if _, done := visited[k]; done {
				continue
			}
			if _, live := sm.keys[k]; live {
				if _, in := scopedKeys[k]; !in {
					scopedKeys[k] = struct{}{}
					roots = append(roots, k)
				}
			}
		}
		if len(roots) == 0 {
			break
		}
		sort.Slice(roots, func(i, j int) bool { return stitchKeyLess(roots[i], roots[j]) })
		for _, start := range roots {
			if _, done := visited[start]; done {
				continue
			}
			visited[start] = struct{}{}
			comp := []stitchKey{}
			queue := []stitchKey{start}
			for len(queue) > 0 {
				k := queue[0]
				queue = queue[1:]
				comp = append(comp, k)
				if _, in := scopedKeys[k]; !in {
					tx.enterScope(k)
					scopedKeys[k] = struct{}{}
				}
				for nb := range sm.adj[k] {
					if _, done := visited[nb]; !done {
						visited[nb] = struct{}{}
						queue = append(queue, nb)
					}
				}
			}
			sort.Slice(comp, func(a, b int) bool { return stitchKeyLess(comp[a], comp[b]) })
			comps = append(comps, comp)
		}
	}
	sort.Slice(comps, func(a, b int) bool { return stitchKeyLess(comps[a][0], comps[b][0]) })

	// Attribute previous gids to the components their keys' identities flowed
	// into, through the commit's lineage.
	keyComp := make(map[stitchKey]int, len(scopedKeys))
	for ci, comp := range comps {
		for _, k := range comp {
			keyComp[k] = ci
		}
	}
	prevGIDs := make([][]ClusterID, len(comps))
	for k, g := range tx.pre {
		for _, r := range lineageReach(k, tx.lineage) {
			if ci, ok := keyComp[r]; ok {
				prevGIDs[ci] = append(prevGIDs[ci], g)
			}
		}
	}
	for ci := range prevGIDs {
		prevGIDs[ci] = dedupSortedIDs(prevGIDs[ci])
	}

	// Retire the scoped pre-assignments, then re-claim: each component takes
	// the smallest unclaimed gid attributed to it, or mints. Untouched
	// components are outside the scope by construction, so no claim here can
	// collide with an id they hold.
	for k, g := range tx.pre {
		delete(tx.ss.keyGID, k)
		if set := sm.gidKeys[g]; set != nil {
			delete(set, k)
			if len(set) == 0 {
				delete(sm.gidKeys, g)
			}
		}
	}
	gidOf := make([]ClusterID, len(comps))
	claimed := make(map[ClusterID]struct{}, len(comps))
	for ci, comp := range comps {
		gid := ClusterID(-1)
		for _, g := range prevGIDs[ci] {
			if _, taken := claimed[g]; !taken {
				gid = g
				break
			}
		}
		if gid < 0 {
			gid = tx.ss.nextGID
			tx.ss.nextGID++
		}
		claimed[gid] = struct{}{}
		gidOf[ci] = gid
		set := sm.gidKeys[gid]
		if set == nil {
			set = make(map[stitchKey]struct{}, len(comp))
			sm.gidKeys[gid] = set
		}
		for _, k := range comp {
			tx.ss.keyGID[k] = gid
			set[k] = struct{}{}
		}
	}

	oldLive := make([]ClusterID, 0, len(tx.scoped))
	for g := range tx.scoped {
		oldLive = append(oldLive, g)
	}
	sort.Slice(oldLive, func(i, j int) bool { return oldLive[i] < oldLive[j] })
	return netTransitions(comps, gidOf, prevGIDs, oldLive)
}

// netTransitions derives the global cluster events of one stitch transition:
// formed (component with no history), dissolved (previous id reaching no
// component), merged (several previous ids collapsing into one component) and
// split (one previous id spread over several components). For single-op
// commits this matches the backends' own event semantics; for large mixed
// batches it is the net transition between the two assignments.
func netTransitions(comps [][]stitchKey, gidOf []ClusterID, prevGIDs [][]ClusterID, oldLive []ClusterID) []Event {
	var formed []ClusterID
	touches := make(map[ClusterID][]ClusterID) // previous gid -> final gids touching it
	for ci := range comps {
		final := gidOf[ci]
		prev := prevGIDs[ci]
		if len(prev) == 0 {
			formed = append(formed, final)
			continue
		}
		for _, g := range prev {
			touches[g] = append(touches[g], final)
		}
	}
	sort.Slice(formed, func(i, j int) bool { return formed[i] < formed[j] })

	var evs []Event
	for _, g := range formed {
		evs = append(evs, Event{Kind: EventClusterFormed, Cluster: g})
	}
	for _, g := range oldLive {
		fins := dedupSortedIDs(touches[g])
		switch {
		case len(fins) == 0:
			evs = append(evs, Event{Kind: EventClusterDissolved, Cluster: g})
		case len(fins) == 1 && fins[0] == g:
			// Survived unchanged (or absorbed others; those report themselves).
		case len(fins) == 1:
			evs = append(evs, Event{Kind: EventClusterMerged, Cluster: fins[0], Absorbed: g})
		default:
			evs = append(evs, Event{Kind: EventClusterSplit, Cluster: g, Fragments: fins})
			if !containsID(fins, g) {
				// Batched split+merge degenerate: the old id did not survive
				// on any fragment; report its retirement too.
				evs = append(evs, Event{Kind: EventClusterMerged, Cluster: fins[0], Absorbed: g})
			}
		}
	}
	return evs
}

// seamTracked is the seam's cell predicate: true for every cell two or more
// shards may hold copies of — the cells the placement replicates, plus every
// cell holding a copy outside the placement (offCells). Over-tracking is
// safe: a tracked cell only one shard holds adds no seam edge. The commit
// fold, the out-of-commit folds and the audit all use it. Callers hold
// worldMu in any mode.
func (ss *shardSet) seamTracked(coord grid.Coord) bool {
	if len(ss.offCells) > 0 && ss.offCells[coord] > 0 {
		return true
	}
	return ss.replicated(coord)
}

// reread re-reads shard s's view of one cell whose tracking or label may
// have changed, dropping the entry when the cell is not tracked.
func (tx *seamTxn) reread(s int32, coord grid.Coord) {
	lab, ok := tx.ss.shards[s].c.CoreCellCluster(coord)
	tx.setEntry(s, coord, lab, ok && tx.ss.seamTracked(coord))
}

// foldQueuedLocked is the seam transaction of every backend change made
// outside a commit — a migration's grow round, its flip, or a trim round.
// It folds what the backends queued (their cluster lineage and the cells
// their change records mark Core, as a commit would) and re-reads every cell
// in cells, in the shards of its mask and in every shard the seam holds an
// entry for: these are the cells whose tracking may have changed, which no
// change record reports. Point events are copy-movement artifacts and are
// dropped. Like a commit, it records the change records and the global
// cluster events it returns in the checkpoint ledger. Caller holds worldMu
// exclusively and routesMu.
func (ss *shardSet) foldQueuedLocked(cells map[grid.Coord]uint64) []Event {
	tx := ss.newSeamTxn()
	for si, sh := range ss.shards {
		var clust []Event
		ss.drainEvents(int32(si), nil, &clust, false)
		for _, ev := range clust {
			tx.applyClusterEvent(int32(si), ev, sh.c)
		}
	}
	for si, sh := range ss.shards {
		for _, ch := range sh.takeChanges() {
			if ch.Core {
				tx.reread(int32(si), ch.Coord)
			}
		}
	}
	for coord, holders := range cells {
		for s := range ss.seam.cells[coord] {
			holders |= shardBit(s)
		}
		for s := range shardsIn(holders) {
			tx.reread(s, coord)
		}
	}
	evs := tx.finalize()
	every := shardBit(int32(len(ss.shards))) - 1
	ss.e.wal.noteDirty(nil, ss.shards, every, evs, ss.routes.len())
	return evs
}

// auditSeamLocked cross-checks the incremental seam state against a fresh
// recomputation from the live backends — the test oracle for the incremental
// maintenance — after auditing the route table (auditRoutesLocked). Caller
// holds worldMu exclusively.
func (ss *shardSet) auditSeamLocked() error {
	if err := ss.auditRoutesLocked(); err != nil {
		return err
	}
	sm := ss.seam
	// Recompute entries and keys from the backends.
	freshCells := make(map[grid.Coord]map[int32]ClusterID)
	freshKeys := make(map[stitchKey]struct{})
	for si, sh := range ss.shards {
		s := int32(si)
		sh.c.ForEachCoreCell(func(coord grid.Coord, cid core.ClusterID) bool {
			freshKeys[stitchKey{s, cid}] = struct{}{}
			if !ss.seamTracked(coord) {
				return true
			}
			ents := freshCells[coord]
			if ents == nil {
				ents = make(map[int32]ClusterID, 2)
				freshCells[coord] = ents
			}
			ents[s] = cid
			return true
		})
	}
	if len(freshKeys) != len(sm.keys) {
		return fmt.Errorf("seam audit: %d live keys, seam tracks %d", len(freshKeys), len(sm.keys))
	}
	for k := range freshKeys {
		if _, ok := sm.keys[k]; !ok {
			return fmt.Errorf("seam audit: live key %v missing from seam", k)
		}
	}
	if len(freshCells) != len(sm.cells) {
		return fmt.Errorf("seam audit: %d tracked cells live, seam holds %d", len(freshCells), len(sm.cells))
	}
	for coord, ents := range freshCells {
		got := sm.cells[coord]
		if len(got) != len(ents) {
			return fmt.Errorf("seam audit: cell %v entries %v, seam holds %v", coord, ents, got)
		}
		for s, cid := range ents {
			if got[s] != cid {
				return fmt.Errorf("seam audit: cell %v shard %d label %d, seam holds %d", coord, s, cid, got[s])
			}
		}
	}
	// Recompute the adjacency multiset.
	freshAdj := make(map[stitchKey]map[stitchKey]int)
	inc := func(a, b stitchKey) {
		m := freshAdj[a]
		if m == nil {
			m = make(map[stitchKey]int)
			freshAdj[a] = m
		}
		m[b]++
	}
	for _, ents := range freshCells {
		ks := make([]stitchKey, 0, len(ents))
		for s, cid := range ents {
			ks = append(ks, stitchKey{s, cid})
		}
		for i := range ks {
			for j := range ks {
				if i != j {
					inc(ks[i], ks[j])
				}
			}
		}
	}
	if len(freshAdj) != len(sm.adj) {
		return fmt.Errorf("seam audit: %d adjacency rows live, seam holds %d", len(freshAdj), len(sm.adj))
	}
	for a, row := range freshAdj {
		got := sm.adj[a]
		if len(got) != len(row) {
			return fmt.Errorf("seam audit: adjacency row %v: %v, seam holds %v", a, row, got)
		}
		for b, n := range row {
			if got[b] != n {
				return fmt.Errorf("seam audit: edge %v-%v count %d, seam holds %d", a, b, n, got[b])
			}
		}
	}
	// The assignment must label exactly the live keys, constantly over each
	// component and distinctly across components.
	if len(ss.keyGID) != len(sm.keys) {
		return fmt.Errorf("seam audit: keyGID covers %d keys, %d live", len(ss.keyGID), len(sm.keys))
	}
	for k := range sm.keys {
		if _, ok := ss.keyGID[k]; !ok {
			return fmt.Errorf("seam audit: live key %v has no global id", k)
		}
	}
	for g, set := range sm.gidKeys {
		for k := range set {
			if ss.keyGID[k] != g {
				return fmt.Errorf("seam audit: gidKeys says %v->%d, keyGID says %d", k, g, ss.keyGID[k])
			}
		}
	}
	for k, g := range ss.keyGID {
		if _, ok := sm.gidKeys[g][k]; !ok {
			return fmt.Errorf("seam audit: keyGID %v->%d missing from gidKeys", k, g)
		}
	}
	// Components of the fresh adjacency must be in bijection with gids.
	visited := make(map[stitchKey]struct{})
	compGID := make(map[ClusterID]bool)
	for k := range sm.keys {
		if _, done := visited[k]; done {
			continue
		}
		visited[k] = struct{}{}
		g := ss.keyGID[k]
		if compGID[g] {
			return fmt.Errorf("seam audit: gid %d spans several components", g)
		}
		compGID[g] = true
		queue := []stitchKey{k}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			if ss.keyGID[cur] != g {
				return fmt.Errorf("seam audit: component of %v mixes gids %d and %d", k, g, ss.keyGID[cur])
			}
			for nb := range freshAdj[cur] {
				if _, done := visited[nb]; !done {
					visited[nb] = struct{}{}
					queue = append(queue, nb)
				}
			}
		}
	}
	return nil
}

// auditRoutesLocked checks the one-handle-space invariants the commit's
// point-event filter relies on: every route names its cell's owner shard and
// lists a copy there, every listed shard holds a copy under the route's
// handle, and no backend holds a copy that no route lists. On a hotspot engine
// it also checks the staged side: no handle is both routed and staged, and
// every entry of a hot stripe's buffer is staged under that stripe. (The
// stagedTotal counter is not checked: a fold decrements it after its commit,
// so it may lag.) Caller holds worldMu exclusively.
func (ss *shardSet) auditRoutesLocked() error {
	ss.routesMu.Lock()
	defer ss.routesMu.Unlock()
	unlisted := 0 // backend copies minus listed copies
	for _, sh := range ss.shards {
		unlisted += sh.c.Len()
	}
	for id, r := range ss.routes.all() {
		if owner := ss.ownerOfCol(int64(r.col)); r.owner != owner {
			return fmt.Errorf("route audit: point %d names shard %d its owner, its cell's owner is %d", id, r.owner, owner)
		}
		if r.mask&shardBit(r.owner) == 0 {
			return fmt.Errorf("route audit: point %d lists no copy in its owner shard %d", id, r.owner)
		}
		for s := range shardsIn(r.mask) {
			if int(s) >= len(ss.shards) || !ss.shards[s].c.Has(id) {
				return fmt.Errorf("route audit: point %d lists shard %d, which holds no copy", id, s)
			}
		}
		unlisted -= bits.OnesCount64(r.mask)
	}
	if unlisted != 0 {
		return fmt.Errorf("route audit: backends hold %d copies more than the routes list", unlisted)
	}
	for id := range ss.stagedRoutes {
		if ss.routes.has(id) {
			return fmt.Errorf("route audit: point %d is both routed and staged", id)
		}
	}
	if ss.hs != nil {
		for t, h := range ss.hs.hot {
			for _, st := range h.ents {
				if got, ok := ss.stagedRoutes[st.gid]; !ok || got != t {
					return fmt.Errorf("route audit: point %d is buffered in hot stripe %d but not staged under it", st.gid, t)
				}
			}
		}
	}
	return nil
}
