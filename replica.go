package dyndbscan

//dynlint:reconciled-surface

// Log-shipped read replicas: a Replica tails a primary's write-ahead log —
// in this process or another — and maintains its own engine by applying the
// records through Engine.applyWALRecord, which commits data records through
// the Apply front-end (applyRecord) exactly as Open's replay does and
// refuses a record no writer produces. Replay determinism (see
// persist.go) makes the replica's state bit-identical to the primary's at
// every record boundary: the same handles, the same stable ClusterIDs, so a
// client can fail its reads over to a replica without re-learning either.
//
// The replica is always a consistent point-in-time view — exactly the
// primary as of the last applied record — and under group commit it can only
// ever trail by what the primary has made visible: one fsync interval of
// commits plus whatever the poll cadence adds. Lag reports the distance in
// WAL records. When the primary checkpoints past the replica's position
// (trimming the segments it still needed), the replica notices the
// truncation and rebuilds itself from the fresh checkpoint, then resumes
// tailing.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dyndbscan/internal/wal"
)

// defaultReplicaPoll is how often a caught-up Replica re-checks the log.
const defaultReplicaPoll = 2 * time.Millisecond

// ErrReplicaClosed is returned by Lag after Close.
var ErrReplicaClosed = errors.New("dyndbscan: replica is closed")

// ReplicaOption configures OpenReplica.
type ReplicaOption func(*replicaSettings)

type replicaSettings struct {
	poll time.Duration
}

// WithReplicaPoll sets how often a caught-up replica polls the log for new
// records (default 2ms). Lower is fresher; higher is cheaper.
func WithReplicaPoll(d time.Duration) ReplicaOption {
	return func(s *replicaSettings) {
		if d > 0 {
			s.poll = d
		}
	}
}

// Replica is a read-only engine fed from a write-ahead log directory; see
// OpenReplica. Its query methods are safe for concurrent use and are served
// from the replica's own engine — snapshot reads are lock-free exactly as on
// a primary. A Replica never writes to the log directory.
type Replica struct {
	dir  string
	poll time.Duration

	// eng is the current engine; swapped wholesale when a checkpoint trim
	// forces a rebuild, so readers always see a complete state.
	eng     atomic.Pointer[Engine]
	applied atomic.Uint64 // newest applied record

	rd *wal.Reader // owned by the tail goroutine after OpenReplica returns

	//dynlint:lock-level 120
	errMu   sync.Mutex
	tailErr error

	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
}

// OpenReplica opens a read replica over the log in dir: it restores the
// newest checkpoint, applies the records after it, and keeps tailing the log
// in the background — following a live primary writing to the same
// directory. The log must exist (ErrNoLog otherwise).
func OpenReplica(dir string, opts ...ReplicaOption) (*Replica, error) {
	rs := replicaSettings{poll: defaultReplicaPoll}
	for _, opt := range opts {
		opt(&rs)
	}
	r := &Replica{
		dir:  dir,
		poll: rs.poll,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	if err := r.rebuild(); err != nil {
		return nil, err
	}
	r.drain() // catch up before the first read is served
	if err := r.Err(); err != nil {
		r.rd.Close()
		return nil, err
	}
	go r.tail()
	return r, nil
}

// rebuild (re)constructs the replica's engine from the log's meta record and
// newest checkpoint. Called at open and whenever the primary checkpointed
// past the replica's position.
func (r *Replica) rebuild() error {
	if r.rd != nil {
		r.rd.Close()
		r.rd = nil
	}
	rd, err := wal.OpenReader(r.dir)
	if err != nil {
		return err
	}
	e, _, err := engineFromLog(r.dir, nil)
	if err != nil {
		rd.Close()
		return err
	}
	w := &walState{}
	// recovering stays true for the replica's whole life: its engine applies
	// log records but must never append any (the primary owns the log).
	w.recovering = true
	e.wal = w
	if err := e.restoreCheckpoint(rd.CheckpointPayloads()); err != nil {
		rd.Close()
		return err
	}
	r.rd = rd
	r.eng.Store(e)
	r.applied.Store(rd.CheckpointSeq())
	return nil
}

// tail is the background apply loop.
func (r *Replica) tail() {
	defer close(r.done)
	t := time.NewTicker(r.poll)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
		}
		if r.drain() {
			return
		}
	}
}

// drain applies every visible record, rebuilding across checkpoint trims.
// Returns true on a sticky failure (the replica then serves its last good
// state and Err reports why it stopped advancing).
func (r *Replica) drain() bool {
	for {
		seq, ops, err := r.rd.Next()
		switch {
		case err == nil:
		case errors.Is(err, wal.ErrCaughtUp):
			return false
		case errors.Is(err, wal.ErrTruncated):
			// The primary checkpointed past us; restart from its checkpoint.
			if rerr := r.rebuild(); rerr != nil {
				r.fail(fmt.Errorf("dyndbscan: replica rebuild after checkpoint trim: %w", rerr))
				return true
			}
			continue
		default:
			r.fail(fmt.Errorf("dyndbscan: replica tail: %w", err))
			return true
		}
		if aerr := r.eng.Load().applyWALRecord(ops); aerr != nil {
			r.fail(fmt.Errorf("dyndbscan: replica applying record %d: %w", seq, aerr))
			return true
		}
		r.applied.Store(seq)
	}
}

func (r *Replica) fail(err error) {
	r.errMu.Lock()
	if r.tailErr == nil {
		r.tailErr = err
	}
	r.errMu.Unlock()
}

// Err reports why the replica stopped advancing (nil while healthy).
func (r *Replica) Err() error {
	r.errMu.Lock()
	defer r.errMu.Unlock()
	return r.tailErr
}

// AppliedSeq returns the newest WAL record the replica has applied.
func (r *Replica) AppliedSeq() uint64 { return r.applied.Load() }

// Lag measures how far the replica trails the log: the number of records
// visible in the log directory beyond the replica's applied position. 0
// means fully caught up with everything the primary has flushed (records
// still in the primary's group-commit buffer are not yet visible to anyone).
func (r *Replica) Lag() (uint64, error) {
	select {
	case <-r.done:
		if err := r.Err(); err != nil {
			return 0, err
		}
		return 0, ErrReplicaClosed
	default:
	}
	head, err := wal.HeadSeq(r.dir)
	if err != nil {
		return 0, err
	}
	applied := r.applied.Load()
	if head <= applied {
		return 0, nil
	}
	return head - applied, nil
}

// Read surface: every method delegates to the replica's engine and sees the
// state as of some applied record — a consistent prefix of the primary's
// history.

// Snapshot returns a consistent, immutable view of the replica's clustering.
func (r *Replica) Snapshot() *Snapshot { return r.eng.Load().Snapshot() }

// ClusterOf returns the stable cluster ids of the point; ids agree with the
// primary's.
func (r *Replica) ClusterOf(id PointID) ([]ClusterID, bool) { return r.eng.Load().ClusterOf(id) }

// Members returns the sorted member points of the cluster.
func (r *Replica) Members(id ClusterID) []PointID { return r.eng.Load().Members(id) }

// GroupBy answers a C-group-by query over the given handles.
func (r *Replica) GroupBy(q []PointID) (Result, error) { return r.eng.Load().GroupBy(q) }

// GroupAll returns the replica's full current clustering.
func (r *Replica) GroupAll() (Result, error) { return r.eng.Load().GroupAll() }

// Len returns the number of live points.
func (r *Replica) Len() int { return r.eng.Load().Len() }

// Has reports whether the handle is live.
func (r *Replica) Has(id PointID) bool { return r.eng.Load().Has(id) }

// Version returns the replica engine's epoch (advances with applied records;
// not comparable to the primary's Version — compare AppliedSeq instead).
func (r *Replica) Version() uint64 { return r.eng.Load().Version() }

// Close stops tailing and releases the replica's resources. Idempotent; the
// query methods keep serving the last applied state afterwards.
func (r *Replica) Close() error {
	r.closeOnce.Do(func() {
		close(r.stop)
		<-r.done
		r.rd.Close()
		r.eng.Load().Close()
	})
	return nil
}
