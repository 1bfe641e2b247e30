package dyndbscan

//dynlint:reconciled-surface

// Checkpoint payloads: the serialized live state that bounds WAL replay.
//
// A checkpoint stores the live points (handles and coordinates), the id-mint
// counters, the cluster-identity assignment, and the stripe placement. Restore re-inserts the points with forced handles through the
// ordinary insert machinery, so the rebuilt backends are real post-insert
// states, then grafts the stored cluster identities back on by membership
// matching: under Rho = 0 the rebuild reproduces the checkpointed clustering
// exactly (insertion order does not matter for the exact semantics), so the
// match is perfect; under Rho > 0 a rebuild is itself a legal ρ-approximate
// clustering of the same points that may resolve don't-care-band points
// differently, so identities transfer by maximum member overlap — clients
// keep their ClusterIDs wherever the clusters are recognizably the same.
//
// The stitch's keyGID table is rewritten in place, since it is the
// translation layer between shard-local and global cluster ids. Point
// handles need no translation: every backend stores each copy under the
// point's global PointID.
//
// Capture and restore read the engine through ckptSource: every live handle
// has an owner copy — the backend whose view of the point is exact.
//
// Payload modes. Engines write the sharded modes (ckptSharded here,
// ckptDeltaSharded in deltackpt.go), a one-shard engine included. The single
// modes were written by the single-backend engine this package no longer
// has; they are decode-only, and restore into a one-shard engine with the
// default placement.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math"
	"sort"

	"dyndbscan/internal/wal"
)

const (
	ckptVersion = 1
	ckptSingle  = 1 // single-backend payload (decode-only)
	ckptSharded = 2 // sharded payload (adds stripe placement)
)

var errCorruptCkpt = errors.New("dyndbscan: corrupt checkpoint payload")

// Little-endian append/decode helpers shared by the engine meta record and
// the checkpoint payload.

func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

func appendVarint(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

func appendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// payloadDecoder is a sticky-error cursor over an encoded payload; check err
// once at the end.
type payloadDecoder struct {
	b   []byte
	err error
}

func (d *payloadDecoder) fail() {
	if d.err == nil {
		d.err = errors.New("truncated")
	}
}

func (d *payloadDecoder) byte() byte {
	if d.err != nil || len(d.b) < 1 {
		d.fail()
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *payloadDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *payloadDecoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *payloadDecoder) float() float64 {
	if d.err != nil || len(d.b) < 8 {
		d.fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

// ascendingID reads one delta of a strictly ascending id list and returns the
// id it names, prev plus the delta. ok is false for a zero delta, and for a
// delta that would wrap prev past the int64 range — negative ids included —
// neither of which the encoder writes.
func (d *payloadDecoder) ascendingID(prev int64) (id int64, ok bool) {
	delta := d.uvarint()
	id = prev + int64(delta)
	return id, delta != 0 && delta <= math.MaxInt64 && id > prev
}

// count reads a length prefix and bounds it by the bytes left, since every
// counted item encodes to at least one byte (a corrupt payload must fail,
// not allocate memory for items it cannot hold).
func (d *payloadDecoder) count() int {
	n := d.uvarint()
	if n > uint64(len(d.b)) {
		d.fail()
		return 0
	}
	return int(n)
}

// retiredSplits reads the placement tail's split count, which the engine
// always writes as 0 (see appendPlacement), and refuses any other value.
func (d *payloadDecoder) retiredSplits() error {
	if n := d.uvarint(); n != 0 && d.err == nil {
		return fmt.Errorf("%w (%d split stripes in the checkpoint)", errRetiredSplit, n)
	}
	return nil
}

// ckptData is a decoded checkpoint payload.
type ckptData struct {
	mode    byte
	dims    int
	nextPt  PointID
	nextGID ClusterID
	ids     []PointID // ascending
	coords  []Point   // parallel to ids
	// clusters maps each stored global id to its ascending member handles
	// (border points appear under every cluster they belong to).
	clusters map[ClusterID][]PointID

	// Stripe placement (zero in single-mode payloads).
	stripeCells int64
	assign      map[int64]int32
}

// encodeCheckpointCommon writes the shape-independent sections: counters,
// points, clusters.
func encodeCheckpointCommon(b []byte, dims int, nextPt PointID, nextGID ClusterID, ids []PointID, coordAt func(i int) Point, clusters map[ClusterID][]PointID) []byte {
	b = appendUvarint(b, uint64(dims))
	b = appendUvarint(b, uint64(nextPt))
	b = appendUvarint(b, uint64(nextGID))
	b = appendUvarint(b, uint64(len(ids)))
	prev := int64(-1)
	for i, id := range ids {
		b = appendUvarint(b, uint64(int64(id)-prev))
		prev = int64(id)
		pt := coordAt(i)
		for d := 0; d < dims; d++ {
			b = appendFloat(b, pt[d])
		}
	}
	gids := make([]ClusterID, 0, len(clusters))
	for g := range clusters {
		gids = append(gids, g)
	}
	sort.Slice(gids, func(i, j int) bool { return gids[i] < gids[j] })
	b = appendUvarint(b, uint64(len(gids)))
	for _, g := range gids {
		members := clusters[g]
		b = appendUvarint(b, uint64(g))
		b = appendUvarint(b, uint64(len(members)))
		prev := int64(-1)
		for _, id := range members {
			b = appendUvarint(b, uint64(int64(id)-prev))
			prev = int64(id)
		}
	}
	return b
}

func decodeCheckpoint(b []byte) (*ckptData, error) {
	d := &payloadDecoder{b: b}
	if v := d.byte(); v != ckptVersion {
		return nil, fmt.Errorf("dyndbscan: unsupported checkpoint version %d", v)
	}
	ck := &ckptData{mode: d.byte()}
	if ck.mode != ckptSingle && ck.mode != ckptSharded {
		return nil, errCorruptCkpt
	}
	ck.dims = int(d.uvarint())
	ck.nextPt = PointID(d.uvarint())
	ck.nextGID = ClusterID(d.uvarint())
	if d.err != nil || ck.dims <= 0 || ck.dims > 1<<12 {
		return nil, errCorruptCkpt
	}
	n := d.count()
	ck.ids = make([]PointID, 0, n)
	ck.coords = make([]Point, 0, n)
	prev := int64(-1)
	for i := 0; i < n && d.err == nil; i++ {
		var ok bool
		if prev, ok = d.ascendingID(prev); !ok {
			return nil, errCorruptCkpt // ids are strictly ascending and non-negative
		}
		pt := make(Point, ck.dims)
		for j := range pt {
			pt[j] = d.float()
		}
		ck.ids = append(ck.ids, PointID(prev))
		ck.coords = append(ck.coords, pt)
	}
	nc := d.count()
	ck.clusters = make(map[ClusterID][]PointID, nc)
	for i := 0; i < nc && d.err == nil; i++ {
		g := ClusterID(d.uvarint())
		nm := d.count()
		members := make([]PointID, 0, nm)
		mp := int64(-1)
		for j := 0; j < nm && d.err == nil; j++ {
			var ok bool
			if mp, ok = d.ascendingID(mp); !ok {
				return nil, errCorruptCkpt
			}
			members = append(members, PointID(mp))
		}
		ck.clusters[g] = members
	}
	if ck.mode == ckptSharded {
		ck.stripeCells = int64(d.uvarint())
		na := d.count()
		ck.assign = make(map[int64]int32, na)
		for i := 0; i < na && d.err == nil; i++ {
			st := d.varint()
			sh := d.uvarint()
			ck.assign[st] = int32(sh)
		}
		if ck.stripeCells <= 0 {
			return nil, errCorruptCkpt
		}
		// Splits section (see appendPlacement); absent in payloads written
		// before stripe splitting existed, so only decoded when bytes remain.
		if d.err == nil && len(d.b) != 0 {
			if err := d.retiredSplits(); err != nil {
				return nil, err
			}
		}
	}
	if d.err != nil {
		return nil, fmt.Errorf("%w: %v", errCorruptCkpt, d.err)
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", errCorruptCkpt, len(d.b))
	}
	return ck, nil
}

// ckptSource is the quiesced engine state a checkpoint capture or a restore
// reads; see the file comment.
type ckptSource struct {
	ss      *shardSet
	live    int // live handle count
	nextPt  PointID
	nextGID ClusterID

	stripeCells int64
	assign      map[int64]int32
}

// sourceLocked views the engine as a checkpoint source: owner copies come
// from the route table, global cluster ids from the stitch. Caller holds
// worldMu exclusively, which quiesces every commit.
func (ss *shardSet) sourceLocked() *ckptSource {
	src := &ckptSource{ss: ss, nextGID: ss.nextGID}
	ss.routesMu.Lock()
	src.live = ss.routes.len()
	src.nextPt = ss.nextID
	src.stripeCells = ss.stripeCells
	src.assign = maps.Clone(ss.assign)
	ss.routesMu.Unlock()
	return src
}

// owner returns the owner shard of a handle; ok is false for a dead one.
func (src *ckptSource) owner(id PointID) (int32, bool) {
	r, ok := src.ss.routes.get(id)
	return r.owner, ok
}

// liveOwner returns the owner shard of a handle live in the source.
func (src *ckptSource) liveOwner(id PointID) int32 {
	o, ok := src.owner(id)
	if !ok {
		// Unreachable: callers pass handles live in the quiesced source.
		panic(fmt.Sprintf("dyndbscan: checkpoint: live id %d has no owner copy", id))
	}
	return o
}

// pointAt returns the coordinates of id's copy in its owner shard o.
func (src *ckptSource) pointAt(o int32, id PointID) Point {
	pt, ok := src.ss.shards[o].c.PointAt(id)
	if !ok {
		panic(fmt.Sprintf("dyndbscan: checkpoint: owner shard %d has no copy of point %d", o, id))
	}
	return pt
}

// groupClusters lists the live handles ids (ascending) under every global
// cluster their owner copies belong to, each member list ascending — the
// cluster section of a full payload, and the rebuilt side of a restore's
// identity match. A non-nil coords (parallel to ids) also receives each
// handle's coordinates, so a full capture reads every owner copy once.
func (src *ckptSource) groupClusters(ids []PointID, coords []Point) map[ClusterID][]PointID {
	clusters := make(map[ClusterID][]PointID)
	for i, id := range ids {
		o := src.liveOwner(id)
		if coords != nil {
			coords[i] = src.pointAt(o, id)
		}
		gids, _ := src.ss.clusterOfLocked(o, id)
		for _, g := range gids {
			clusters[g] = append(clusters[g], id)
		}
	}
	return clusters
}

// fullPayload serializes the whole live state.
func (src *ckptSource) fullPayload() []byte {
	ids := src.ss.liveIDsLocked()
	coords := make([]Point, len(ids))
	clusters := src.groupClusters(ids, coords)
	b := []byte{ckptVersion, ckptSharded}
	b = encodeCheckpointCommon(b, src.ss.cfg.Dims, src.nextPt, src.nextGID, ids,
		func(i int) Point { return coords[i] }, clusters)
	return appendPlacement(b, src.stripeCells, src.assign)
}

// capture quiesces the engine and serializes its state; seq 0 means nothing
// was ever logged. With wantDelta the capture first tries to serialize only
// the changes since the previous checkpoint (isDelta true on success, see
// deltackpt.go); either way the change ledger is drained, resetting the
// next delta's baseline.
func (e *Engine) capture(wantDelta bool) (seq uint64, payload []byte, isDelta bool) {
	ss := e.sh
	ss.worldMu.Lock()
	defer ss.worldMu.Unlock()
	// The LastSeq read below is the payload's coverage claim: every record
	// at or below it must be reflected in the payload. Ordinary appends
	// happen under worldMu.RLock, so the exclusive hold quiesces them;
	// staged-delta appends happen under routesMu alone, so Engine.Checkpoint
	// pauses staging and folds everything staged before calling here. Assert
	// that coupling — a staged insert at this point would be covered by seq
	// but missing from the payload, and silently lost on trim.
	if hs := ss.hs; hs != nil && hs.stagedTotal.Load() != 0 {
		panic("dyndbscan: checkpoint: staged hotspot deltas present during payload capture")
	}
	src := ss.sourceLocked()
	seq = e.wal.log.LastSeq()
	if seq == 0 {
		return 0, nil, false
	}
	d := e.wal.takeDirty()
	if wantDelta && !d.full {
		if b, ok := src.deltaPayload(&d); ok {
			return seq, b, true
		}
	}
	return seq, src.fullPayload(), false
}

// restoreCheckpoint rebuilds the freshly constructed engine from a
// checkpoint chain, base payload first (see composeCheckpoints); an empty
// chain restores nothing. Runs inside Open and Replica.rebuild, before
// replay, before the Engine escapes. A single-mode chain, written by the
// retired single-backend engine, restores into a one-shard engine.
func (e *Engine) restoreCheckpoint(payloads [][]byte) error {
	if len(payloads) == 0 {
		return nil
	}
	ck, err := composeCheckpoints(payloads)
	if err != nil {
		return err
	}
	if ck.dims != e.cfg.Dims {
		return fmt.Errorf("%w: dimensionality %d does not match the log's %d", errCorruptCkpt, ck.dims, e.cfg.Dims)
	}
	if ck.mode == ckptSingle && e.sh.placing() {
		return fmt.Errorf("%w: single-backend checkpoint in a sharded log", errCorruptCkpt)
	}
	return e.sh.restore(ck)
}

// restore rebuilds the engine: placement first (so routing matches the
// checkpointed stripes; a single-mode payload carries none and keeps the
// default), then the points commit as one explicit-handle record through
// applyRecord — its seam fold mints temporary global ids — then the
// temporary ids are renamed to the stored identities in place.
func (ss *shardSet) restore(ck *ckptData) error {
	ss.routesMu.Lock()
	if ck.mode != ckptSingle {
		ss.stripeCells = ck.stripeCells
	}
	adaptive := ss.adaptivePending
	ss.adaptivePending = false
	for st, sh := range ck.assign {
		if int(sh) >= len(ss.shards) {
			ss.routesMu.Unlock()
			return fmt.Errorf("%w: stripe assigned to shard %d of %d", errCorruptCkpt, sh, len(ss.shards))
		}
		ss.assign[st] = sh
	}
	ss.routesMu.Unlock()

	if len(ck.ids) > 0 {
		rec := make([]wal.Op, len(ck.ids))
		for i, id := range ck.ids {
			rec[i] = wal.Op{Kind: wal.OpInsertAt, ID: int64(id), Coord: ck.coords[i]}
		}
		if err := ss.e.applyRecord(rec); err != nil {
			return fmt.Errorf("dyndbscan: checkpoint restore: %w", err)
		}
		// The rebuild happened outside the ledger's sight: the first
		// checkpoint after a restore is a full one.
		ss.e.wal.markDirtyFull()
	}
	ss.routesMu.Lock()
	if ck.nextPt > ss.nextID {
		ss.nextID = ck.nextPt
	}
	if adaptive {
		// The restored width is adaptive: keep re-deriving it from the
		// extent the restore commit charged (noteLoadLocked), as the first
		// batch's decision arms it on a fresh engine.
		ss.adaptiveWidth = true
		ss.nextWidthCheck = ss.commitSeq + widthCheckEvery
	}
	ss.routesMu.Unlock()

	// Graft: match the clusters the fold stitched under temporary ids
	// against the stored ones, and rename the temporary ids in place — the
	// stitch table is the translation layer between shard-local and global
	// cluster ids (point handles are global in every backend already).
	// Replayed suffix records then fold incrementally on top, minting new
	// cluster ids in commit order — the order the crashed engine minted them.
	ss.worldMu.Lock()
	defer ss.worldMu.Unlock()
	src := ss.sourceLocked()
	m, next := matchClusters(src.groupClusters(ss.liveIDsLocked(), nil), ck.clusters, ck.nextGID)
	// Temporary ids that never surfaced through an owned member (possible
	// only for degenerate pure-ghost components) still need a stable, unique
	// identity; mint in ascending temp order for determinism.
	temps := make([]ClusterID, 0, len(ss.seam.gidKeys))
	for g := range ss.seam.gidKeys {
		if _, ok := m[g]; !ok {
			temps = append(temps, g)
		}
	}
	sort.Slice(temps, func(i, j int) bool { return temps[i] < temps[j] })
	for _, g := range temps {
		m[g] = next
		next++
	}
	for k, g := range ss.keyGID {
		ss.keyGID[k] = m[g]
	}
	renamed := make(map[ClusterID]map[stitchKey]struct{}, len(ss.seam.gidKeys))
	for g, set := range ss.seam.gidKeys {
		renamed[m[g]] = set
	}
	ss.seam.gidKeys = renamed
	ss.nextGID = next
	return nil
}

// matchClusters transfers stored global cluster ids onto rebuilt clusters by
// maximum member overlap: rebuilt clusters are visited in ascending id
// order; each claims the unclaimed stored id sharing the most members (ties
// to the smallest id), or mints from next when nothing overlaps. Under
// Rho = 0 the rebuild reproduces the stored clustering exactly and the match
// is a bijection; under Rho > 0 don't-care-band points may have moved
// between clusters and the overlap rule keeps identities wherever clusters
// are recognizably the same. Deterministic: order and tie-breaks never
// depend on map iteration.
func matchClusters(rebuilt map[ClusterID][]PointID, stored map[ClusterID][]PointID, next ClusterID) (map[ClusterID]ClusterID, ClusterID) {
	ptStored := make(map[PointID][]ClusterID)
	for g, members := range stored {
		for _, id := range members {
			ptStored[id] = append(ptStored[id], g)
		}
	}
	order := make([]ClusterID, 0, len(rebuilt))
	for c := range rebuilt {
		order = append(order, c)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	m := make(map[ClusterID]ClusterID, len(order))
	claimed := make(map[ClusterID]struct{}, len(order))
	for _, c := range order {
		tally := make(map[ClusterID]int)
		for _, id := range rebuilt[c] {
			for _, g := range ptStored[id] {
				if _, taken := claimed[g]; !taken {
					tally[g]++
				}
			}
		}
		best, bestN := ClusterID(-1), 0
		for g, n := range tally {
			if n > bestN || (n == bestN && n > 0 && g < best) {
				best, bestN = g, n
			}
		}
		if bestN == 0 {
			best = next
			next++
		}
		claimed[best] = struct{}{}
		m[c] = best
	}
	return m, next
}
