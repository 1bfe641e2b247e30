package dyndbscan

import (
	"fmt"

	"dyndbscan/internal/pipeline"
)

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
func (e *Engine) Apply(ops []Op) ([]PointID, error) {
	staged, err := stageOps(e, ops, &errsApply, func(op Op) Op { return op })
	if err != nil || len(staged) == 0 {
		return nil, err
	}
	ok, err := e.sh.commitBatch(staged, errsApply.unknown)
	if !ok {
		return nil, err
	}
	return handles(staged), err
}

// The update front-end. Every entry point (Insert, InsertBatch, Delete,
// DeleteBatch, Apply) turns its input into one staged op list, validated
// once, and hands it to shardSet.commitBatch (shard.go). Log replay and
// checkpoint restore stage through the same stageOps (Engine.applyRecord,
// persist.go) and commit through shardSet.commitRouted, which never stages.

// opErrs words an entry point's validation failures. The checks are shared;
// each entry point keeps its own long-standing messages.
type opErrs struct {
	bad     func(i int, err error) error         // op i's point failed staging
	dup     func(i, first int, id PointID) error // op i deletes what op first already deletes
	semi    func(i int) error                    // op i deletes on the insertion-only algorithm
	unknown func(i int, id PointID) error        // op i's delete target is not live at commit
}

var (
	errsInsertBatch = opErrs{
		bad: func(i int, err error) error { return fmt.Errorf("dyndbscan: InsertBatch point %d: %w", i, err) },
	}
	errsDeleteBatch = opErrs{
		dup: func(i, _ int, id PointID) error {
			return fmt.Errorf("dyndbscan: DeleteBatch id %d duplicated at index %d: %w", id, i, ErrDuplicateID)
		},
		semi: func(int) error {
			return fmt.Errorf("dyndbscan: DeleteBatch aborted at index 0: %w", ErrDeletesUnsupported)
		},
		unknown: func(i int, id PointID) error {
			return fmt.Errorf("dyndbscan: DeleteBatch index %d: %w (id %d)", i, ErrUnknownPoint, id)
		},
	}
	errsApply = opErrs{
		bad: func(i int, err error) error { return fmt.Errorf("dyndbscan: Apply op %d: %w", i, err) },
		dup: func(i, first int, id PointID) error {
			return fmt.Errorf("dyndbscan: Apply op %d deletes id %d already deleted by op %d: %w", i, id, first, ErrDuplicateID)
		},
		semi: func(i int) error { return fmt.Errorf("dyndbscan: Apply op %d: %w", i, ErrDeletesUnsupported) },
		unknown: func(i int, id PointID) error {
			return fmt.Errorf("dyndbscan: Apply op %d: %w (id %d)", i, ErrUnknownPoint, id)
		},
	}
)

// stageOps is the pre-commit phase of the batch entry points: as converts
// each input element to its Op. A sequential pass rejects invalid kinds,
// deletes on AlgoSemiDynamic and duplicate delete targets; then the inserts
// are staged (validation, cloning, grid cell assignment) across the engine's
// workers. Either failure leaves the engine untouched.
func stageOps[T any](e *Engine, in []T, w *opErrs, as func(T) Op) ([]shOp, error) {
	var dels map[PointID]int // delete target -> first op index
	for i, x := range in {
		switch op := as(x); op.Kind {
		case OpInsert:
		case OpDelete:
			if e.algo == AlgoSemiDynamic {
				return nil, w.semi(i)
			}
			if dels == nil {
				dels = make(map[PointID]int, 8)
			}
			if j, dup := dels[op.ID]; dup {
				return nil, w.dup(i, j, op.ID)
			}
			dels[op.ID] = i
		default:
			return nil, fmt.Errorf("dyndbscan: Apply op %d: invalid kind %v", i, op.Kind)
		}
	}
	return pipeline.Map(e.workers, in, func(i int, x T) (shOp, error) {
		op := as(x)
		if op.Kind == OpDelete {
			return shOp{gid: op.ID}, nil
		}
		sp, err := e.stager.Stage(op.Pt)
		if err != nil {
			return shOp{}, w.bad(i, err)
		}
		return shOp{insert: true, sp: sp}, nil
	})
}
