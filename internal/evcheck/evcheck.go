// Package evcheck validates cluster-evolution event streams against the
// invariants every Engine — one shard or many — promises its
// subscribers:
//
//   - identity lifecycle: a cluster id is introduced exactly once (by a
//     Formed event or as a fresh fragment of a Split) and retired exactly
//     once (Dissolved, or absorbed by a Merged);
//   - no event references an id that is not live at that point of the
//     stream: merges name two live clusters and splits name a live source.
//     Split fragments may be fresh (introducing their id) or already live —
//     batched commits report net transitions, where a piece of a split
//     cluster can flow into a pre-existing cluster within the same commit;
//   - lineage consistency across Merged/Split: the surviving/split id was
//     live before the event and the absorbed id is dead after it;
//   - commit-order versions are monotone when the observer marks commit
//     boundaries with Commit.
//
// A Validator is safe for concurrent use; its Observe method can be passed
// directly as an Engine.Subscribe callback. Violations are accumulated (with
// the event index) rather than panicking, so a test can drive a long stream
// and report the earliest breach.
package evcheck

import (
	"fmt"
	"sort"
	"sync"

	"dyndbscan/internal/core"
)

// Validator checks one subscriber stream. The zero value is not ready; use
// New.
type Validator struct {
	//dynlint:lock-level 120
	mu       sync.Mutex
	live     map[core.ClusterID]struct{}
	events   int
	lastVer  uint64
	hasVer   bool
	breaches []string
}

// New returns an empty Validator: it expects the stream to introduce every
// cluster id before referencing it. For a subscription attached to a
// non-empty engine, Seed the currently live cluster ids first.
func New() *Validator {
	return &Validator{live: make(map[core.ClusterID]struct{})}
}

// Seed marks ids as live before the stream starts — the cluster ids that
// existed when the subscription was attached.
func (v *Validator) Seed(ids []core.ClusterID) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, id := range ids {
		v.live[id] = struct{}{}
	}
}

func (v *Validator) breach(format string, args ...any) {
	v.breaches = append(v.breaches, fmt.Sprintf("event %d: ", v.events)+fmt.Sprintf(format, args...))
}

// Observe folds one event into the validator. It has the signature of an
// Engine.Subscribe callback.
func (v *Validator) Observe(ev core.Event) {
	v.mu.Lock()
	defer v.mu.Unlock()
	switch ev.Kind {
	case core.EventClusterFormed:
		if _, ok := v.live[ev.Cluster]; ok {
			v.breach("Formed(%d): id already live", ev.Cluster)
		}
		v.live[ev.Cluster] = struct{}{}
	case core.EventClusterDissolved:
		if _, ok := v.live[ev.Cluster]; !ok {
			v.breach("Dissolved(%d): id not live", ev.Cluster)
		}
		delete(v.live, ev.Cluster)
	case core.EventClusterMerged:
		if ev.Cluster == ev.Absorbed {
			v.breach("Merged(%d<-%d): survivor and absorbed coincide", ev.Cluster, ev.Absorbed)
		}
		if _, ok := v.live[ev.Cluster]; !ok {
			v.breach("Merged(%d<-%d): surviving id not live", ev.Cluster, ev.Absorbed)
		}
		if _, ok := v.live[ev.Absorbed]; !ok {
			v.breach("Merged(%d<-%d): absorbed id not live", ev.Cluster, ev.Absorbed)
		}
		delete(v.live, ev.Absorbed)
	case core.EventClusterSplit:
		if _, ok := v.live[ev.Cluster]; !ok {
			v.breach("Split(%d->%v): split id not live", ev.Cluster, ev.Fragments)
		}
		if len(ev.Fragments) < 2 {
			v.breach("Split(%d->%v): fewer than two fragments", ev.Cluster, ev.Fragments)
		}
		// Fragments introduce their ids if fresh. A fragment may also name a
		// cluster that is already live: a batched commit reports the *net*
		// transition, and a piece of the split cluster can have flowed into a
		// pre-existing cluster within the same commit (two clusters
		// exchanging territory both split into the same final pair). When the
		// split id itself survives on no fragment it stays live here, and the
		// stream must retire it explicitly (the batched split+merge
		// degenerate emits that Merged right after) — which then validates as
		// usual.
		seen := make(map[core.ClusterID]struct{}, len(ev.Fragments))
		for _, f := range ev.Fragments {
			if _, dup := seen[f]; dup {
				v.breach("Split(%d->%v): duplicate fragment %d", ev.Cluster, ev.Fragments, f)
			}
			seen[f] = struct{}{}
			v.live[f] = struct{}{}
		}
	case core.EventPointBecameCore, core.EventPointBecameNoise:
		// Point events carry no cluster reference to validate.
	default:
		v.breach("unknown event kind %v", ev.Kind)
	}
	v.events++
}

// Commit marks a commit-order observation point at the given engine version;
// versions must never regress in the order observations are made (two
// observations with no commit in between legitimately see the same version).
func (v *Validator) Commit(version uint64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.hasVer && version < v.lastVer {
		v.breach("commit version %d regressed below %d", version, v.lastVer)
	}
	v.lastVer = version
	v.hasVer = true
}

// Events returns how many events the validator has observed.
func (v *Validator) Events() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.events
}

// Live returns the cluster ids the stream says are currently live, sorted.
func (v *Validator) Live() []core.ClusterID {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]core.ClusterID, 0, len(v.live))
	for id := range v.live {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ReconcileLive compares the stream-derived live set against want (the
// cluster ids of a snapshot taken after a delivery barrier): the event stream
// must account for exactly the clusters that exist.
func (v *Validator) ReconcileLive(want []core.ClusterID) error {
	got := v.Live()
	w := append([]core.ClusterID(nil), want...)
	sort.Slice(w, func(i, j int) bool { return w[i] < w[j] })
	if len(got) != len(w) {
		return fmt.Errorf("evcheck: stream says %d live clusters %v, snapshot has %d %v", len(got), got, len(w), w)
	}
	for i := range got {
		if got[i] != w[i] {
			return fmt.Errorf("evcheck: stream live set %v diverges from snapshot %v", got, w)
		}
	}
	return nil
}

// Err returns an error describing every accumulated violation, nil if the
// stream has been clean so far.
func (v *Validator) Err() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if len(v.breaches) == 0 {
		return nil
	}
	return fmt.Errorf("evcheck: %d violations, first: %s (all: %v)", len(v.breaches), v.breaches[0], v.breaches)
}
