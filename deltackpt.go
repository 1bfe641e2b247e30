package dyndbscan

// Delta checkpoints: the incremental capture path behind Engine.Checkpoint.
//
// A full checkpoint serializes the whole live state and pauses the engine for
// O(N); a delta checkpoint serializes only what changed since the previous
// checkpoint in the chain — deleted handles, freshly inserted points, the
// points whose cluster memberships could have moved, and the merge lineage —
// so the pause is proportional to the inter-checkpoint churn. The log stores
// the chain (one base plus its deltas, see internal/wal/chain.go) and
// recovery composes it back into one ckptData before replaying the records
// past the tip.
//
// The change set lives in one ledger (ckptDirty): the handle churn, the dirty
// cells and the cluster lineage since the last capture, fed by every mutation
// site — each commit, and each fold of a migration round — in one lock hold.
// Its three membership parts are each sound on their own and complete
// together:
//
//   - Dirty cells: every grid cell touched by a point placement, removal, or
//     core-status flip since the last capture, with the shards whose backend
//     touched it — the backends' change records (internal/core/changes.go),
//     drained by the mutation site. A point q's membership is determined by
//     the core points within (1+ρ)ε of it, so any local membership change is
//     witnessed by a dirty cell within box distance 2(1+ρ)ε of q's cell; the
//     capture re-reads the membership of every live point that close to a
//     dirty cell ("patch" entries).
//
//   - The merge ledger: a merge renames the absorbed cluster's far members
//     without touching a single cell near them, so commits record every
//     EventClusterMerged in commit order and compose applies the renames
//     wholesale before the patches.
//
//   - Split lineage: a split renames far members of every fragment, and the
//     fragment memberships are decided by the backend, not derivable from the
//     base. Commits record the split's cluster and fragment ids; the capture
//     marks every core cell currently labeled with one of them as dirty, so
//     the patches re-read all their members. Because a fragment may itself be
//     absorbed by a later merge inside the same window, the capture first
//     closes the split set over the merge ledger (absorbed ∈ set ⇒ survivor
//     joins the set).
//
// Anything the ledger cannot vouch for — a checkpoint restore, a stripe
// reshape, a failed checkpoint write — marks it "full", and the next capture
// falls back to a full (base) checkpoint, which also bounds chain length via
// the compaction cadence (WithWALCompactEvery). So does a ledger holding more
// entries than there are live points: its delta would walk and write more
// than a base. That cap holds with automatic checkpoints off too, so the
// ledger's memory is bounded by the live set however long it goes uncaptured.

import (
	"fmt"
	"sort"
	"sync"

	"dyndbscan/internal/grid"
)

// Delta payload modes; full payloads use ckptSingle/ckptSharded. The single
// mode is decode-only (see checkpoint.go).
const (
	ckptDeltaSingle  = 3 // single-backend delta payload (decode-only)
	ckptDeltaSharded = 4 // sharded delta payload (adds stripe placement)
)

// defaultCompactEvery is how many checkpoints share one base before the chain
// folds back into a fresh full checkpoint.
const defaultCompactEvery = 8

// WithWALCompactEvery sets how many checkpoints may share one chain before a
// fresh full (base) checkpoint is written: 1 makes every checkpoint full,
// n > 1 lets up to n-1 incremental delta checkpoints ride on each base
// (default 8). Deltas shrink the checkpoint pause to the size of the
// inter-checkpoint churn; the base cadence bounds recovery compose time and
// lets the log trim the chain's history.
func WithWALCompactEvery(n int) Option {
	return func(s *engineSettings) {
		if n < 1 {
			s.setErr(fmt.Errorf("dyndbscan: WithWALCompactEvery(%d): cadence must be ≥ 1", n))
			return
		}
		s.walCompactEvery = n
		s.walCompactSet = true
		s.walTuned = true
	}
}

// gidMerge is one EventClusterMerged in the commit-ordered ledger.
type gidMerge struct {
	gid      ClusterID // surviving id
	absorbed ClusterID // retired id
}

// dirtyState is the change ledger between checkpoint captures: the handle
// churn, the dirty cells and the cluster lineage.
type dirtyState struct {
	ins       map[PointID]struct{}
	del       map[PointID]struct{}
	cells     map[grid.Coord]uint64 // dirty cell → mask of the shards that touched it
	merges    []gidMerge            // commit order
	splitGIDs map[ClusterID]struct{}
	// full poisons the delta path: something changed that the ledger does
	// not cover (restore, reshape, failed write), or it outgrew the live set
	// — capture a base.
	full bool
}

// ckptDirty is dirtyState behind its leaf mutex. Commits record into it from
// inside their critical sections (under seamMu, with worldMu shared), folds
// under exclusive worldMu; captures drain it while the world is quiesced.
type ckptDirty struct {
	//dynlint:lock-level 120
	mu sync.Mutex
	dirtyState
}

// noteDirty records one mutation site's changes: the handle churn of ops —
// the handles its inserts minted and its deletes removed; a fold has none —
// the change records the shards in mask drained, and the site's global
// cluster events in commit order. live is the live handle count after the
// mutation, the ledger's cap. Nil-safe; a recovering engine (replay,
// replica) never accumulates — recovery ends with an explicit markDirtyFull
// instead.
func (w *walState) noteDirty(ops []shOp, shards []*shard, mask uint64, evs []Event, live int) {
	if w == nil || w.recovering {
		return
	}
	d := &w.dirty
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.full {
		return
	}
	if d.ins == nil {
		d.ins = make(map[PointID]struct{})
		d.del = make(map[PointID]struct{})
		d.cells = make(map[grid.Coord]uint64)
	}
	for i := range ops {
		id := ops[i].gid
		if ops[i].insert {
			d.ins[id] = struct{}{}
		} else if _, fresh := d.ins[id]; fresh {
			// Handles are never reused, so an id inserted since the last
			// capture and deleted again cancels out entirely.
			delete(d.ins, id)
		} else {
			d.del[id] = struct{}{}
		}
	}
	for s := range shardsIn(mask) {
		for _, ch := range shards[s].chg {
			d.cells[ch.Coord] |= shardBit(s)
		}
	}
	for _, ev := range evs {
		d.noteEventLocked(ev)
	}
	if d.entries() > live {
		d.dirtyState = dirtyState{full: true}
	}
}

// entries is the ledger's size, the quantity its cap bounds.
func (d *dirtyState) entries() int {
	return len(d.ins) + len(d.del) + len(d.cells) + len(d.merges) + len(d.splitGIDs)
}

func (d *ckptDirty) noteEventLocked(ev Event) {
	switch ev.Kind {
	case EventClusterMerged:
		d.merges = append(d.merges, gidMerge{gid: ev.Cluster, absorbed: ev.Absorbed})
	case EventClusterSplit:
		if d.splitGIDs == nil {
			d.splitGIDs = make(map[ClusterID]struct{})
		}
		d.splitGIDs[ev.Cluster] = struct{}{}
		for _, f := range ev.Fragments {
			d.splitGIDs[f] = struct{}{}
		}
	}
	// Formed and dissolved clusters need no lineage: every member gained or
	// lost is witnessed by the core-status flips, hence by dirty cells.
}

// markDirtyFull poisons the delta path: the next checkpoint must be a base.
// Unlike noteDirty it applies even while recovering — recovery itself is the
// canonical "the ledger saw nothing" state.
func (w *walState) markDirtyFull() {
	if w == nil {
		return
	}
	w.dirty.mu.Lock()
	w.dirty.dirtyState = dirtyState{full: true}
	w.dirty.mu.Unlock()
}

// takeDirty snapshots and resets the accumulator; called once per capture
// while commits are quiesced.
func (w *walState) takeDirty() dirtyState {
	w.dirty.mu.Lock()
	out := w.dirty.dirtyState
	w.dirty.dirtyState = dirtyState{}
	w.dirty.mu.Unlock()
	return out
}

// closeSplitLineage closes the split set over the merge ledger: if a split
// cluster (or fragment) was later absorbed, its far members now wear the
// survivor's label, so the survivor's cells must be re-read too. Walking the
// ledger in commit order handles chains of absorptions.
func closeSplitLineage(d *dirtyState) map[ClusterID]struct{} {
	if len(d.splitGIDs) == 0 {
		return nil
	}
	split := d.splitGIDs
	for _, m := range d.merges {
		if _, in := split[m.absorbed]; in {
			split[m.gid] = struct{}{}
		}
	}
	return split
}

// deltaPatchRadius is how far from a dirty cell a live point's membership
// must be re-read: membership depends on core points within (1+ρ)ε, and the
// box distance between the two cells is at most the point distance.
func deltaPatchRadius(cfg Config) float64 { return 2 * cfg.Eps * (1 + cfg.Rho) }

// ckptDelta is a decoded delta checkpoint payload.
type ckptDelta struct {
	mode    byte
	dims    int
	nextPt  PointID
	nextGID ClusterID

	del      []PointID // ascending: handles deleted since the parent
	upIDs    []PointID // ascending: handles inserted since the parent (and still live)
	upCoords []Point   // parallel to upIDs

	// Membership patches: for each listed live handle, its full current
	// cluster-id set (empty = noise), replacing whatever the parent said.
	patchIDs  []PointID     // ascending
	patchGIDs [][]ClusterID // parallel; each ascending

	merges []gidMerge // commit-ordered merge ledger

	// Sharded placement, replacing the parent's wholesale.
	stripeCells int64
	assign      map[int64]int32
}

// appendPlacement encodes the sharded placement tail shared by full and delta
// payloads: stripe width, then the assignment overrides in sorted stripe
// order for deterministic bytes, then a split count that is always 0.
func appendPlacement(b []byte, stripeCells int64, assign map[int64]int32) []byte {
	b = appendUvarint(b, uint64(stripeCells))
	stripes := make([]int64, 0, len(assign))
	for st := range assign {
		stripes = append(stripes, st)
	}
	sort.Slice(stripes, func(i, j int) bool { return stripes[i] < stripes[j] })
	b = appendUvarint(b, uint64(len(stripes)))
	for _, st := range stripes {
		b = appendVarint(b, st)
		b = appendUvarint(b, uint64(assign[st]))
	}
	// Stripe splitting was removed, but the section stays in the format so
	// payload bytes do not change; the decoders refuse a non-zero count.
	return appendUvarint(b, 0)
}

// encodeCkptDelta serializes a delta payload. Handle lists are delta-encoded
// ascending like the full payload's.
func encodeCkptDelta(d *ckptDelta) []byte {
	b := []byte{ckptVersion, d.mode}
	b = appendUvarint(b, uint64(d.dims))
	b = appendUvarint(b, uint64(d.nextPt))
	b = appendUvarint(b, uint64(d.nextGID))
	b = appendUvarint(b, uint64(len(d.del)))
	prev := int64(-1)
	for _, id := range d.del {
		b = appendUvarint(b, uint64(int64(id)-prev))
		prev = int64(id)
	}
	b = appendUvarint(b, uint64(len(d.upIDs)))
	prev = -1
	for i, id := range d.upIDs {
		b = appendUvarint(b, uint64(int64(id)-prev))
		prev = int64(id)
		pt := d.upCoords[i]
		for j := 0; j < d.dims; j++ {
			b = appendFloat(b, pt[j])
		}
	}
	b = appendUvarint(b, uint64(len(d.patchIDs)))
	prev = -1
	for i, id := range d.patchIDs {
		b = appendUvarint(b, uint64(int64(id)-prev))
		prev = int64(id)
		gids := d.patchGIDs[i]
		b = appendUvarint(b, uint64(len(gids)))
		for _, g := range gids {
			b = appendUvarint(b, uint64(g))
		}
	}
	b = appendUvarint(b, uint64(len(d.merges)))
	for _, m := range d.merges {
		b = appendUvarint(b, uint64(m.gid))
		b = appendUvarint(b, uint64(m.absorbed))
	}
	if d.mode == ckptDeltaSharded {
		b = appendPlacement(b, d.stripeCells, d.assign)
	}
	return b
}

// decodeCkptDelta parses a delta payload, rejecting anything malformed the
// same way decodeCheckpoint does.
func decodeCkptDelta(b []byte) (*ckptDelta, error) {
	d := &payloadDecoder{b: b}
	if v := d.byte(); v != ckptVersion {
		return nil, fmt.Errorf("dyndbscan: unsupported checkpoint version %d", v)
	}
	dl := &ckptDelta{mode: d.byte()}
	if dl.mode != ckptDeltaSingle && dl.mode != ckptDeltaSharded {
		return nil, errCorruptCkpt
	}
	dl.dims = int(d.uvarint())
	dl.nextPt = PointID(d.uvarint())
	dl.nextGID = ClusterID(d.uvarint())
	if d.err != nil || dl.dims <= 0 || dl.dims > 1<<12 {
		return nil, errCorruptCkpt
	}
	readIDs := func() []PointID {
		n := d.count()
		ids := make([]PointID, 0, n)
		prev := int64(-1)
		for i := 0; i < n && d.err == nil; i++ {
			var ok bool
			if prev, ok = d.ascendingID(prev); !ok {
				d.fail() // ids are strictly ascending and non-negative
				return nil
			}
			ids = append(ids, PointID(prev))
		}
		return ids
	}
	dl.del = readIDs()
	nu := d.count()
	dl.upIDs = make([]PointID, 0, nu)
	dl.upCoords = make([]Point, 0, nu)
	prev := int64(-1)
	for i := 0; i < nu && d.err == nil; i++ {
		var ok bool
		if prev, ok = d.ascendingID(prev); !ok {
			return nil, errCorruptCkpt
		}
		pt := make(Point, dl.dims)
		for j := range pt {
			pt[j] = d.float()
		}
		dl.upIDs = append(dl.upIDs, PointID(prev))
		dl.upCoords = append(dl.upCoords, pt)
	}
	np := d.count()
	dl.patchIDs = make([]PointID, 0, np)
	dl.patchGIDs = make([][]ClusterID, 0, np)
	prev = -1
	for i := 0; i < np && d.err == nil; i++ {
		var ok bool
		if prev, ok = d.ascendingID(prev); !ok {
			return nil, errCorruptCkpt
		}
		ng := d.count()
		gids := make([]ClusterID, 0, ng)
		prevG := ClusterID(-1)
		for j := 0; j < ng && d.err == nil; j++ {
			g := ClusterID(d.uvarint())
			if g <= prevG {
				return nil, errCorruptCkpt // gid sets are strictly ascending
			}
			prevG = g
			gids = append(gids, g)
		}
		dl.patchIDs = append(dl.patchIDs, PointID(prev))
		dl.patchGIDs = append(dl.patchGIDs, gids)
	}
	nm := d.count()
	dl.merges = make([]gidMerge, 0, nm)
	for i := 0; i < nm && d.err == nil; i++ {
		g := ClusterID(d.uvarint())
		a := ClusterID(d.uvarint())
		dl.merges = append(dl.merges, gidMerge{gid: g, absorbed: a})
	}
	if dl.mode == ckptDeltaSharded {
		dl.stripeCells = int64(d.uvarint())
		na := d.count()
		dl.assign = make(map[int64]int32, na)
		for i := 0; i < na && d.err == nil; i++ {
			st := d.varint()
			sh := d.uvarint()
			dl.assign[st] = int32(sh)
		}
		if dl.stripeCells <= 0 {
			return nil, errCorruptCkpt
		}
		if err := d.retiredSplits(); err != nil {
			return nil, err
		}
	}
	if d.err != nil {
		return nil, fmt.Errorf("%w: %v", errCorruptCkpt, d.err)
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", errCorruptCkpt, len(d.b))
	}
	return dl, nil
}

// composeCheckpoints folds a checkpoint chain (base payload first, then its
// deltas oldest-first, exactly as the log returns them) into one ckptData.
func composeCheckpoints(payloads [][]byte) (*ckptData, error) {
	ck, err := decodeCheckpoint(payloads[0])
	if err != nil {
		return nil, err
	}
	for _, p := range payloads[1:] {
		dl, err := decodeCkptDelta(p)
		if err != nil {
			return nil, err
		}
		if err := ck.applyDelta(dl); err != nil {
			return nil, err
		}
	}
	for g, members := range ck.clusters {
		if len(members) == 0 {
			delete(ck.clusters, g)
		}
	}
	return ck, nil
}

// applyDelta advances ck by one delta. Order matters: the merge ledger first
// (wholesale renames, in commit order), then the per-point membership
// patches, which override whatever the renames said for the points near the
// change — the same precedence the capture relied on.
func (ck *ckptData) applyDelta(d *ckptDelta) error {
	if (ck.mode == ckptSingle) != (d.mode == ckptDeltaSingle) {
		return fmt.Errorf("%w: delta mode %d on a mode-%d base", errCorruptCkpt, d.mode, ck.mode)
	}
	if d.dims != ck.dims {
		return fmt.Errorf("%w: delta dimensionality %d on a %d-dimensional base", errCorruptCkpt, d.dims, ck.dims)
	}
	// 1. Merges: move the absorbed cluster's members under the survivor.
	for _, m := range d.merges {
		members, ok := ck.clusters[m.absorbed]
		if !ok {
			continue // absorbed id already empty (or patched away) — no-op
		}
		delete(ck.clusters, m.absorbed)
		ck.clusters[m.gid] = mergeSortedIDs(ck.clusters[m.gid], members)
	}
	// 2. Membership removals: deleted handles vanish everywhere; patched
	// handles are cleared everywhere so their patch entry is authoritative.
	rm := make(map[PointID]struct{}, len(d.del)+len(d.patchIDs))
	for _, id := range d.del {
		rm[id] = struct{}{}
	}
	for _, id := range d.patchIDs {
		rm[id] = struct{}{}
	}
	if len(rm) > 0 {
		for g, members := range ck.clusters {
			out := members[:0]
			for _, id := range members {
				if _, dead := rm[id]; !dead {
					out = append(out, id)
				}
			}
			ck.clusters[g] = out
		}
	}
	// 3. Live set: drop the deleted handles, append the inserted ones. The
	// mint counter is monotone and handles are never reused, so every upsert
	// id exceeds every id the parent could hold; anything else is corruption.
	if len(d.del) > 0 {
		dd := make(map[PointID]struct{}, len(d.del))
		for _, id := range d.del {
			dd[id] = struct{}{}
		}
		ids, coords := ck.ids[:0], ck.coords[:0]
		for i, id := range ck.ids {
			if _, dead := dd[id]; !dead {
				ids = append(ids, id)
				coords = append(coords, ck.coords[i])
			}
		}
		ck.ids, ck.coords = ids, coords
	}
	if len(d.upIDs) > 0 {
		if n := len(ck.ids); n > 0 && d.upIDs[0] <= ck.ids[n-1] {
			return fmt.Errorf("%w: delta upsert id %d at or below the base's newest id %d", errCorruptCkpt, d.upIDs[0], ck.ids[n-1])
		}
		ck.ids = append(ck.ids, d.upIDs...)
		ck.coords = append(ck.coords, d.upCoords...)
	}
	// 4. Patches: install each patched point's full membership set.
	touched := make(map[ClusterID]struct{})
	for i, id := range d.patchIDs {
		for _, g := range d.patchGIDs[i] {
			ck.clusters[g] = append(ck.clusters[g], id)
			touched[g] = struct{}{}
		}
	}
	for g := range touched {
		members := ck.clusters[g]
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	}
	// 5. Counters and placement replace the parent's wholesale.
	ck.nextPt, ck.nextGID = d.nextPt, d.nextGID
	if d.mode == ckptDeltaSharded {
		ck.stripeCells = d.stripeCells
		ck.assign = d.assign
	}
	return nil
}

// mergeSortedIDs unions two ascending handle lists into a fresh ascending,
// deduplicated list (border points can be members of both sides).
func mergeSortedIDs(a, b []PointID) []PointID {
	out := make([]PointID, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i, j = i+1, j+1
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// deltaPayload builds a delta payload from a quiesced source. Returns
// ok=false when the patch set is so large a base checkpoint would be cheaper.
// Membership is read from owner copies only: in a sharded engine the ghost
// band guarantees the owner shard's backend recorded a dirty cell for every
// change relevant to a point it owns, and ForEachPointNear visits only its
// own residents, so each live point is patched from exactly one backend.
func (src *ckptSource) deltaPayload(d *dirtyState) ([]byte, bool) {
	ss := src.ss
	if split := closeSplitLineage(d); len(split) > 0 {
		// Lineage is noted with the cells, so the cell map exists.
		for si, sh := range ss.shards {
			sh.c.ForEachCoreCell(func(coord grid.Coord, cid ClusterID) bool {
				if g, ok := ss.keyGID[stitchKey{int32(si), cid}]; ok {
					if _, in := split[g]; in {
						d.cells[coord] |= shardBit(int32(si))
					}
				}
				return true
			})
		}
	}
	r := deltaPatchRadius(ss.cfg)
	patch := make(map[PointID][]ClusterID)
	for cell, mask := range d.cells {
		for s := range shardsIn(mask) {
			ss.shards[s].c.ForEachPointNear(cell, r, func(id PointID) bool {
				if _, done := patch[id]; done {
					return true
				}
				if o, ok := src.owner(id); ok && o == s {
					patch[id], _ = ss.clusterOfLocked(o, id)
				} // else a ghost copy; its owner shard patches it
				return true
			})
		}
	}
	if len(patch)*2 > src.live {
		return nil, false
	}
	dl := &ckptDelta{
		mode:        ckptDeltaSharded,
		dims:        ss.cfg.Dims,
		nextPt:      src.nextPt,
		nextGID:     src.nextGID,
		merges:      d.merges,
		stripeCells: src.stripeCells,
		assign:      src.assign,
	}
	dl.del = sortedIDSet(d.del)
	for id := range d.ins {
		if _, live := src.owner(id); live {
			dl.upIDs = append(dl.upIDs, id)
		}
	}
	sort.Slice(dl.upIDs, func(i, j int) bool { return dl.upIDs[i] < dl.upIDs[j] })
	dl.upCoords = make([]Point, len(dl.upIDs))
	for i, id := range dl.upIDs {
		dl.upCoords[i] = src.pointAt(src.liveOwner(id), id)
	}
	dl.patchIDs = make([]PointID, 0, len(patch))
	for id := range patch {
		dl.patchIDs = append(dl.patchIDs, id)
	}
	sort.Slice(dl.patchIDs, func(i, j int) bool { return dl.patchIDs[i] < dl.patchIDs[j] })
	dl.patchGIDs = make([][]ClusterID, len(dl.patchIDs))
	for i, id := range dl.patchIDs {
		dl.patchGIDs[i] = patch[id]
	}
	return encodeCkptDelta(dl), true
}

// sortedIDSet flattens a handle set into an ascending slice.
func sortedIDSet(set map[PointID]struct{}) []PointID {
	if len(set) == 0 {
		return nil
	}
	out := make([]PointID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
