// Package wal implements the durability layer of the engine: a versioned
// binary codec for committed op batches, a length-prefixed CRC-checked
// segment-rotating log of those batches, snapshot checkpoints that bound
// replay time, and a tailing reader for log-shipped read replicas.
//
// The package speaks a neutral op vocabulary (Op, with float64 coordinates
// and int64 handles) so it depends on nothing above it; the engine converts
// its own op types at the boundary.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// OpKind discriminates the operations a WAL record can carry.
type OpKind uint8

const (
	// OpInsert adds a point with the given coordinates.
	OpInsert OpKind = 1
	// OpDelete removes the live handle ID.
	OpDelete OpKind = 2
	// OpAssign reassigns stripe ID to shard To — a placement change. Replay
	// must reproduce placement history, not just data history: in a sharded
	// engine the order global cluster ids are minted in depends on which
	// shard owns which stripe, so an unlogged migration would make replay
	// mint different ids than the engine that wrote the log.
	OpAssign OpKind = 3
	// OpInsertAt adds a point with the given coordinates under the explicit
	// handle ID. An engine with a hotspot path logs each insert it commits
	// directly this way, so replay adopts the handles instead of re-minting
	// them; a staged insert logs OpStagedInsert when it is staged, and the
	// fold that later applies it appends nothing.
	OpInsertAt OpKind = 4
	// OpSplit re-granulated stripe ID into To sub-stripes — a placement-table
	// refinement of a removed engine tier. The codec still decodes it so that
	// the engine can name it when it refuses a log that holds one; nothing
	// writes it any more.
	OpSplit OpKind = 5
	// OpStagedInsert adds a point with the given coordinates under the
	// explicit handle ID, written at hotspot *staging* time — before the
	// point is folded into its owning shard. The encoding is identical to
	// OpInsertAt; the distinct kind records that the write raced the fold,
	// so replay tooling can tell a staged-durability record from an
	// ordinary explicit-handle commit. Replay applies it exactly like
	// OpInsertAt: the reconcile fold never re-logs an already-staged
	// handle, so each handle appears in the log once.
	OpStagedInsert OpKind = 6
	// OpWidth re-derives the stripe width: ID is the new width in grid
	// cells. A width change rebuilds the whole placement table, so it is a
	// placement record like OpAssign — replay must flip the width at
	// exactly this point in the stream or every later stripe id (and hence
	// global cluster-id minting order) diverges from the writer's.
	OpWidth OpKind = 7
)

// Op is one logged operation. Inserts carry the staged (dims-length)
// coordinates; deletes carry the global handle. Plain OpInsert records never
// log handles: replaying the records in order through a deterministic engine
// re-mints the identical handles, which is what makes them survive a restart.
// OpInsertAt records (the hotspot path, where mint order and log order
// diverge) carry the handle explicitly.
type Op struct {
	Kind  OpKind
	Coord []float64 // OpInsert/OpInsertAt: the point's coordinates
	ID    int64     // OpDelete/OpInsertAt: the handle; OpAssign/OpSplit: the stripe
	To    int64     // OpAssign: the destination shard; OpSplit: the part count
}

// CodecVersion is the current op-batch encoding version, the first byte of
// every encoded batch. Decoders reject versions they do not know rather than
// misparse them.
const CodecVersion = 1

// ErrCodec is wrapped by DecodeOps for every malformed or unsupported
// encoding.
var ErrCodec = errors.New("wal: malformed op batch")

// maxBatchOps bounds the declared op count a decoder will allocate for —
// corrupt or adversarial input must not translate a 10-byte record into a
// multi-gigabyte allocation. Honest encoders never hit it: the engine's
// batches are orders of magnitude smaller.
const maxBatchOps = 1 << 22

// maxDims bounds the declared coordinate count per insert, same rationale.
const maxDims = 1 << 12

// AppendOps appends the versioned encoding of ops to dst and returns the
// extended slice. Layout: version byte, uvarint op count, then per op a kind
// byte followed by (insert) a uvarint dimension count and that many little-
// endian float64 bit patterns, or (delete) the handle as a uvarint.
func AppendOps(dst []byte, ops []Op) []byte {
	dst = append(dst, CodecVersion)
	dst = binary.AppendUvarint(dst, uint64(len(ops)))
	for i := range ops {
		op := &ops[i]
		dst = append(dst, byte(op.Kind))
		switch op.Kind {
		case OpInsert:
			dst = binary.AppendUvarint(dst, uint64(len(op.Coord)))
			for _, c := range op.Coord {
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(c))
			}
		case OpDelete, OpWidth:
			dst = binary.AppendUvarint(dst, uint64(op.ID))
		case OpAssign, OpSplit:
			dst = binary.AppendVarint(dst, op.ID) // stripes can be negative
			dst = binary.AppendUvarint(dst, uint64(op.To))
		case OpInsertAt, OpStagedInsert:
			dst = binary.AppendUvarint(dst, uint64(len(op.Coord)))
			for _, c := range op.Coord {
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(c))
			}
			dst = binary.AppendUvarint(dst, uint64(op.ID))
		default:
			// Encoding is engine-internal; an unknown kind here is a bug, and
			// writing it would poison the log for every future replay.
			panic(fmt.Sprintf("wal: AppendOps: invalid op kind %d", op.Kind))
		}
	}
	return dst
}

// DecodeOps decodes one op batch produced by AppendOps. The whole input must
// be consumed: trailing bytes mean the record framing and the payload
// disagree, which is corruption.
func DecodeOps(data []byte) ([]Op, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("%w: empty payload", ErrCodec)
	}
	if data[0] != CodecVersion {
		return nil, fmt.Errorf("%w: unsupported codec version %d", ErrCodec, data[0])
	}
	data = data[1:]
	n, k := binary.Uvarint(data)
	if k <= 0 || n > maxBatchOps {
		return nil, fmt.Errorf("%w: bad op count", ErrCodec)
	}
	data = data[k:]
	ops := make([]Op, 0, n)
	for i := uint64(0); i < n; i++ {
		if len(data) == 0 {
			return nil, fmt.Errorf("%w: truncated at op %d", ErrCodec, i)
		}
		kind := OpKind(data[0])
		data = data[1:]
		switch kind {
		case OpInsert, OpInsertAt, OpStagedInsert:
			d, k := binary.Uvarint(data)
			if k <= 0 || d > maxDims {
				return nil, fmt.Errorf("%w: bad dimension count at op %d", ErrCodec, i)
			}
			data = data[k:]
			if uint64(len(data)) < 8*d {
				return nil, fmt.Errorf("%w: truncated coordinates at op %d", ErrCodec, i)
			}
			coord := make([]float64, d)
			for j := range coord {
				coord[j] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*j:]))
			}
			data = data[8*d:]
			op := Op{Kind: kind, Coord: coord}
			if kind != OpInsert {
				id, k := binary.Uvarint(data)
				if k <= 0 {
					return nil, fmt.Errorf("%w: bad insert handle at op %d", ErrCodec, i)
				}
				data = data[k:]
				op.ID = int64(id)
			}
			ops = append(ops, op)
		case OpDelete, OpWidth:
			id, k := binary.Uvarint(data)
			if k <= 0 {
				return nil, fmt.Errorf("%w: bad handle at op %d", ErrCodec, i)
			}
			data = data[k:]
			ops = append(ops, Op{Kind: kind, ID: int64(id)})
		case OpAssign, OpSplit:
			stripe, k := binary.Varint(data)
			if k <= 0 {
				return nil, fmt.Errorf("%w: bad assign stripe at op %d", ErrCodec, i)
			}
			data = data[k:]
			to, k := binary.Uvarint(data)
			if k <= 0 {
				return nil, fmt.Errorf("%w: bad assign shard at op %d", ErrCodec, i)
			}
			data = data[k:]
			ops = append(ops, Op{Kind: kind, ID: stripe, To: int64(to)})
		default:
			return nil, fmt.Errorf("%w: unknown op kind %d at op %d", ErrCodec, kind, i)
		}
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCodec, len(data))
	}
	return ops, nil
}

// OpsFromBytes is the total (never-failing) interpreter that turns an
// arbitrary byte stream into an op stream — the shared front end of the fuzz
// harnesses. Three bytes per op: a selector (one in four ops is a delete),
// then two payload bytes, scaled so inserted points cluster readily around
// the engine's stripe seams. Delete ops carry an abstract index in ID (not a
// live handle): the consumer resolves it against its own live set, so any
// byte stream maps to a valid op stream.
func OpsFromBytes(data []byte) []Op {
	ops := make([]Op, 0, len(data)/3)
	for i := 0; i+2 < len(data); i += 3 {
		sel, bx, by := data[i], data[i+1], data[i+2]
		if sel&3 == 3 {
			ops = append(ops, Op{Kind: OpDelete, ID: int64(bx)<<8 | int64(by)})
			continue
		}
		ops = append(ops, Op{
			Kind:  OpInsert,
			Coord: []float64{(float64(bx) - 128) * 1.6, float64(by) * 0.9},
		})
	}
	return ops
}
