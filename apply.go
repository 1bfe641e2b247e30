package dyndbscan

import "fmt"

// OpKind discriminates the operations an Apply batch can carry.
type OpKind uint8

const (
	// OpInsert adds Op.Pt to the point set.
	OpInsert OpKind = iota + 1
	// OpDelete removes the live handle Op.ID.
	OpDelete
)

// String returns the op kind's name.
func (k OpKind) String() string {
	switch k {
	case OpInsert:
		return "Insert"
	case OpDelete:
		return "Delete"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// Op is one element of a mixed-operation batch; build them with InsertOp and
// DeleteOp.
type Op struct {
	Kind OpKind
	Pt   Point   // OpInsert: the point to add
	ID   PointID // OpDelete: the handle to remove
}

// InsertOp returns the Op inserting pt.
func InsertOp(pt Point) Op { return Op{Kind: OpInsert, Pt: pt} }

// DeleteOp returns the Op deleting the live handle id.
func DeleteOp(id PointID) Op { return Op{Kind: OpDelete, ID: id} }

// Apply executes a mixed batch of insertions and deletions as one update:
// one commit, one version advance, one event publication. It is the natural
// unit for a service ingesting a change stream (a tick of positions: new
// vehicles in, stale vehicles out).
//
// The batch runs in two phases. The pre-commit phase validates every op and
// stages the insertions (coordinate conversion, grid cell assignment) in
// parallel across the engine's workers; a malformed point, an unknown or
// duplicated delete target, an invalid kind, or any delete op on the
// insertion-only AlgoSemiDynamic fails the whole batch with no state change.
// Delete targets must be live when Apply begins: an op cannot delete a point
// inserted earlier in the same batch (its handle is not known yet). The
// commit phase then applies the ops in order under one critical section.
//
// The result has one entry per op: the freshly minted handle for an
// insertion, the (now dead) target handle for a deletion.
//
// Should the backend reject an op mid-commit anyway, the work already
// applied commits, and the error reports the aborting index — the same
// partial-commit contract as InsertBatch/DeleteBatch.
func (e *Engine) Apply(ops []Op) ([]PointID, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	// Pre-commit phase: split out the insertions, stage them in parallel,
	// and validate delete targets for well-formedness and duplicates.
	inserts := make([]Point, 0, len(ops))
	insertAt := make([]int, 0, len(ops)) // op index of each staged insert
	dels := make(map[PointID]int, 8)     // delete target -> first op index
	for i, op := range ops {
		switch op.Kind {
		case OpInsert:
			inserts = append(inserts, op.Pt)
			insertAt = append(insertAt, i)
		case OpDelete:
			if e.algo == AlgoSemiDynamic {
				// Predictably doomed: fail the whole batch up front instead
				// of partially committing the inserts before it.
				return nil, fmt.Errorf("dyndbscan: Apply op %d: %w", i, ErrDeletesUnsupported)
			}
			if j, dup := dels[op.ID]; dup {
				return nil, fmt.Errorf("dyndbscan: Apply op %d deletes id %d already deleted by op %d: %w", i, op.ID, j, ErrDuplicateID)
			}
			dels[op.ID] = i
		default:
			return nil, fmt.Errorf("dyndbscan: Apply op %d: invalid kind %v", i, op.Kind)
		}
	}
	if e.sh != nil {
		return e.sh.apply(ops, inserts, insertAt)
	}
	staged, err := e.stageInserts(inserts, "Apply op", insertAt)
	if err != nil {
		return nil, err
	}

	// Commit phase.
	out := make([]PointID, len(ops))
	e.lock()
	for i, op := range ops {
		if op.Kind == OpDelete && !e.c.Has(op.ID) {
			e.failUpdate()
			return nil, fmt.Errorf("dyndbscan: Apply op %d: %w (id %d)", i, ErrUnknownPoint, op.ID)
		}
	}
	seq, werr := e.walAppendOps(ops)
	if werr != nil {
		e.failUpdate()
		return nil, werr
	}
	var (
		inserted []PointID
		deleted  []PointID
		next     int // index into staged
	)
	abort := func(i int, err error) ([]PointID, error) {
		if len(inserted) > 0 || len(deleted) > 0 {
			e.noteDeleted(deleted)
			e.noteInserted(inserted)
			e.release(e.finishUpdate())
		} else {
			e.failUpdate()
		}
		return out[:i], fmt.Errorf("dyndbscan: Apply aborted at op %d: %w", i, err)
	}
	for i, op := range ops {
		switch op.Kind {
		case OpInsert:
			id, err := e.c.InsertStaged(staged[next])
			next++
			if err != nil {
				return abort(i, err)
			}
			inserted = append(inserted, id)
			out[i] = id
		case OpDelete:
			if err := e.c.Delete(op.ID); err != nil {
				return abort(i, err)
			}
			deleted = append(deleted, op.ID)
			out[i] = op.ID
		}
	}
	e.noteDeleted(deleted)
	e.noteInserted(inserted)
	evs := e.finishUpdate()
	if err := e.releaseLogged(seq, evs); err != nil {
		return out, err
	}
	return out, nil
}
