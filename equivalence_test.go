package dyndbscan_test

// Randomized cross-mode equivalence harness: a seeded generator drives
// identical mixed Insert/Delete/Apply streams through a bare internal/core
// backend — the independent reference — and through the engine modes:
// one-shard, sharded without subscribers, and sharded with a subscriber
// attached (plus WAL-restarted and hotspot engines when configured), across
// all three algorithms, asserting clustering equality and event-stream
// reconcilability every few commits. With Rho = 0 every clustering decision
// is a pure function of the visible point set, so every mode must agree with
// the reference exactly; at every check the live read paths (GroupBy and
// ClusterOf without a current snapshot) must also answer exactly what the
// snapshot of the same epoch does, and the subscribed engine additionally has
// its incrementally maintained seam structure audited against a fresh stitch
// and its event stream validated (internal/evcheck) and reconciled against
// the snapshot's live cluster set.
//
// On failure the harness shrinks the op stream (bounded greedy chunk
// removal, replaying from scratch) and prints the seed plus the minimal op
// log so the exact stream can be replayed.

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"dyndbscan"
	"dyndbscan/internal/core"
	"dyndbscan/internal/evcheck"
)

// eqOp is one operation of a generated stream. Deletions carry an index into
// the live-handle list at execution time (mod its length), so a shrunk
// stream stays executable.
type eqOp struct {
	Insert bool
	X, Y   float64
	Del    int
}

func (op eqOp) String() string {
	if op.Insert {
		return fmt.Sprintf("I(%.1f,%.1f)", op.X, op.Y)
	}
	return fmt.Sprintf("D(%d)", op.Del)
}

// genEqOps emits a blob-structured stream: drifting cluster centers spread
// along dimension 0 (crossing many stripe seams), plus uniform noise and —
// unless the algorithm is insertion-only — interleaved deletions.
func genEqOps(seed int64, n int, deletes bool) []eqOp {
	rng := rand.New(rand.NewSource(seed))
	type blob struct{ x, y float64 }
	blobs := make([]blob, 8)
	for i := range blobs {
		blobs[i] = blob{-280 + rng.Float64()*560, rng.Float64() * 160}
	}
	ops := make([]eqOp, 0, n)
	for len(ops) < n {
		r := rng.Float64()
		switch {
		case deletes && r < 0.32:
			ops = append(ops, eqOp{Del: rng.Intn(1 << 20)})
		case r < 0.90:
			b := &blobs[rng.Intn(len(blobs))]
			b.x += (rng.Float64() - 0.5) * 6 // drift: clusters wander across seams
			ops = append(ops, eqOp{Insert: true, X: b.x + rng.NormFloat64()*18, Y: b.y + rng.NormFloat64()*18})
		default:
			ops = append(ops, eqOp{Insert: true, X: -320 + rng.Float64()*640, Y: rng.Float64() * 200})
		}
	}
	return ops
}

// eqConfig parameterizes one harness run.
type eqConfig struct {
	algo           dyndbscan.Algorithm
	shards         int
	stripe         int
	eps            float64
	minPts         int
	batch          int           // ops per Apply commit
	checkEvery     int           // commits between checkpoints
	rebalanceEvery int           // commits between Rebalance() calls on the sharded engines; 0 = never
	requireMoves   bool          // fail unless at least one migration happened (seeded streams only)
	roundBudget    time.Duration // migration round budget of the subscribed sharded engine; 0 = the default (each extra round costs a pacing sleep)
	restartEvery   int           // commits between Close+Open restarts of a WAL-backed engine; 0 = no WAL engine
	hotspot        bool          // add a hotspot-enabled engine (and hotspot-enable the WAL engine, when present)
	hotJoinEvery   int           // commits between forced Sync() joins on the hotspot engine; 0 = only query-driven joins
}

// eqHotspotPolicy is a hair-trigger hotspot policy: almost any traffic marks
// a stripe hot and reconciles fire after a handful of staged ops — so a short
// stream drives the full split-phase → join cycle that production thresholds
// would only reach under sustained contention.
func eqHotspotPolicy() dyndbscan.HotspotPolicy {
	return dyndbscan.HotspotPolicy{
		ScoreThreshold: 2,
		WaitWeight:     4,
		CheckEvery:     1,
		ReconcileOps:   8,
	}
}

func newEqEngine(cfg eqConfig, shards int, extra ...dyndbscan.Option) (*dyndbscan.Engine, error) {
	opts := []dyndbscan.Option{
		dyndbscan.WithAlgorithm(cfg.algo),
		dyndbscan.WithDims(2),
		dyndbscan.WithEps(cfg.eps),
		dyndbscan.WithMinPts(cfg.minPts),
		dyndbscan.WithRho(0),
		dyndbscan.WithShards(shards),
	}
	if shards > 1 {
		opts = append(opts, dyndbscan.WithShardStripe(cfg.stripe))
		if cfg.rebalanceEvery > 0 {
			// A hair-trigger manual policy so the interleaved Rebalance()
			// calls actually migrate stripes on the skewed blob traffic.
			opts = append(opts, dyndbscan.WithRebalance(dyndbscan.RebalancePolicy{
				MaxImbalance: 1.01, MinLoad: 1,
			}))
		}
	}
	return dyndbscan.New(append(opts, extra...)...)
}

// eqOracle is the harness's independent reference: a bare internal/core
// backend, fed the same ops as the engines one at a time. Its handles mint
// in op order exactly as an engine's do.
type eqOracle interface {
	Insert(dyndbscan.Point) (dyndbscan.PointID, error)
	Delete(dyndbscan.PointID) error
	GroupBy([]dyndbscan.PointID) (dyndbscan.Result, error)
	IDs() []dyndbscan.PointID
}

func newEqOracle(cfg eqConfig) (eqOracle, error) {
	c := core.Config{Dims: 2, Eps: cfg.eps, MinPts: cfg.minPts, Rho: 0}
	switch cfg.algo {
	case dyndbscan.AlgoSemiDynamic:
		return core.NewSemiDynamic(c)
	case dyndbscan.AlgoIncDBSCAN:
		return core.NewIncDBSCAN(c)
	default:
		return core.NewFullyDynamic(c)
	}
}

// oracleApply feeds one Apply batch to the reference op by op and returns
// the handles, in the shape Engine.Apply reports them.
func oracleApply(o eqOracle, batch []dyndbscan.Op) ([]dyndbscan.PointID, error) {
	out := make([]dyndbscan.PointID, len(batch))
	for i, op := range batch {
		if op.Kind == dyndbscan.OpInsert {
			id, err := o.Insert(op.Pt)
			if err != nil {
				return nil, err
			}
			out[i] = id
			continue
		}
		if err := o.Delete(op.ID); err != nil {
			return nil, err
		}
		out[i] = op.ID
	}
	return out, nil
}

// oracleIsomorphic compares an engine's clustering with the reference's as
// partitions; cluster ids are not compared.
func oracleIsomorphic(o eqOracle, e *dyndbscan.Engine, name string) error {
	ids := o.IDs()
	if e.Len() != len(ids) {
		return fmt.Errorf("Len mismatch: core %d, %s %d", len(ids), name, e.Len())
	}
	want, err := o.GroupBy(ids)
	if err != nil {
		return fmt.Errorf("core GroupBy: %w", err)
	}
	got, err := e.GroupAll()
	if err != nil {
		return fmt.Errorf("%s GroupAll: %w", name, err)
	}
	return resultsIsomorphic(want, got, "core", name)
}

// resultsIsomorphic compares two normalized results as partitions.
func resultsIsomorphic(ra, rb dyndbscan.Result, aName, bName string) error {
	if len(ra.Groups) != len(rb.Groups) {
		return fmt.Errorf("group count mismatch: %s %d, %s %d", aName, len(ra.Groups), bName, len(rb.Groups))
	}
	for i := range ra.Groups {
		if !reflect.DeepEqual(ra.Groups[i], rb.Groups[i]) {
			return fmt.Errorf("group %d mismatch:\n%s: %v\n%s: %v", i, aName, ra.Groups[i], bName, rb.Groups[i])
		}
	}
	if !(len(ra.Noise) == 0 && len(rb.Noise) == 0) && !reflect.DeepEqual(ra.Noise, rb.Noise) {
		return fmt.Errorf("noise mismatch:\n%v: %v\n%v: %v", aName, ra.Noise, bName, rb.Noise)
	}
	return nil
}

// liveReadsAgree checks one engine at a quiescent point: GroupBy and
// ClusterOf over q, read live (the checks run before anything builds this
// epoch's snapshot), must answer exactly what the snapshot of the same epoch
// does.
func liveReadsAgree(e *dyndbscan.Engine, name string, q []dyndbscan.PointID) error {
	got, err := e.GroupBy(q)
	if err != nil {
		return fmt.Errorf("%s live GroupBy: %w", name, err)
	}
	cids := make([][]dyndbscan.ClusterID, len(q))
	for i, id := range q {
		c, ok := e.ClusterOf(id)
		if !ok {
			return fmt.Errorf("%s live ClusterOf(%d): not live", name, id)
		}
		cids[i] = c
	}
	s := e.Snapshot()
	want, err := s.GroupBy(q)
	if err != nil {
		return fmt.Errorf("%s Snapshot().GroupBy: %w", name, err)
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("%s: live GroupBy differs from Snapshot().GroupBy:\nlive:     %v\nsnapshot: %v", name, got, want)
	}
	for i, id := range q {
		if w, _ := s.ClusterOf(id); fmt.Sprint(cids[i]) != fmt.Sprint(w) {
			return fmt.Errorf("%s: live ClusterOf(%d) = %v, snapshot says %v", name, id, cids[i], w)
		}
	}
	return nil
}

// runEqStream replays ops through the reference and the engine modes and
// returns an error naming the first checkpoint at which any invariant broke.
func runEqStream(cfg eqConfig, ops []eqOp) (err error) {
	oracle, err := newEqOracle(cfg)
	if err != nil {
		return err
	}
	ref, err := newEqEngine(cfg, 1)
	if err != nil {
		return err
	}
	defer ref.Close()
	plain, err := newEqEngine(cfg, cfg.shards)
	if err != nil {
		return err
	}
	defer plain.Close()
	sub, err := newEqEngine(cfg, cfg.shards)
	if err != nil {
		return err
	}
	defer sub.Close()
	if cfg.roundBudget > 0 {
		// A tiny round budget cuts this engine's migrations into many
		// rounds, so the checkpoints below see the seam after multi-round
		// moves.
		sub.SetMigrateRoundBudget(cfg.roundBudget)
	}
	val := evcheck.New()
	cancel := sub.Subscribe(val.Observe)
	defer cancel()

	// Hotspot mode, when configured: a sharded engine whose hair-trigger
	// policy keeps stripes bouncing through split phase, so most inserts are
	// absorbed into staged deltas and surface only through reconciles, query
	// joins, and the forced Sync() joins below. Handles must still mint in
	// lockstep and every checkpoint must see the identical clustering — the
	// split-phase machinery has to be invisible to correctness.
	var hot *dyndbscan.Engine
	if cfg.hotspot {
		// Stripe width is a placement detail, not a clustering parameter, so
		// the hotspot engine may run wider stripes than the others: more of
		// the stream lands in each hot stripe and stages.
		hot, err = newEqEngine(cfg, cfg.shards,
			dyndbscan.WithHotspot(eqHotspotPolicy()), dyndbscan.WithShardStripe(12))
		if err != nil {
			return err
		}
		defer hot.Close()
	}

	// Fourth mode, when configured: a WAL-backed sharded engine that is
	// periodically torn down with Close and recovered with Open mid-stream.
	// Its handles and clustering must stay in lockstep with the others across
	// every restart — durability must be invisible to correctness.
	var walEng *dyndbscan.Engine
	var walRuntimeOpts []dyndbscan.Option
	var walRestart func(stage string) error
	if cfg.restartEvery > 0 {
		walDir, err := os.MkdirTemp("", "dyndbscan-eq-wal-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(walDir)
		if cfg.shards > 1 && cfg.rebalanceEvery > 0 {
			walRuntimeOpts = append(walRuntimeOpts, dyndbscan.WithRebalance(dyndbscan.RebalancePolicy{
				MaxImbalance: 1.01, MinLoad: 1,
			}))
		}
		if cfg.shards > 1 && cfg.hotspot {
			// The WAL engine runs hotspot-enabled too: restarts then replay
			// explicit-handle and staged-delta records, and prove a
			// checkpoint never covers a staged-but-unreconciled insert.
			// WithHotspot is a runtime option, so Open re-applies it.
			walRuntimeOpts = append(walRuntimeOpts, dyndbscan.WithHotspot(eqHotspotPolicy()))
		}
		walOpts := append([]dyndbscan.Option{
			dyndbscan.WithAlgorithm(cfg.algo),
			dyndbscan.WithDims(2),
			dyndbscan.WithEps(cfg.eps),
			dyndbscan.WithMinPts(cfg.minPts),
			dyndbscan.WithRho(0),
			dyndbscan.WithShards(cfg.shards),
			dyndbscan.WithWAL(walDir, dyndbscan.SyncEvery(time.Millisecond)),
			dyndbscan.WithWALCheckpointEvery(40), // checkpoints interleave with restarts
		}, walRuntimeOpts...)
		if cfg.shards > 1 {
			stripe := cfg.stripe
			if cfg.hotspot {
				// Same wide-stripe treatment as the hotspot engine, so the
				// restart cycles replay the same staging pattern.
				stripe = 12
			}
			walOpts = append(walOpts, dyndbscan.WithShardStripe(stripe))
		}
		walEng, err = dyndbscan.New(walOpts...)
		if err != nil {
			return err
		}
		defer func() { walEng.Close() }()
		walRestart = func(stage string) error {
			before := walEng.Snapshot()
			if err := walEng.Close(); err != nil {
				return fmt.Errorf("%s: wal Close: %w", stage, err)
			}
			reopened, err := dyndbscan.Open(walDir, walRuntimeOpts...)
			if err != nil {
				return fmt.Errorf("%s: wal Open: %w", stage, err)
			}
			walEng = reopened
			after := walEng.Snapshot()
			// Exact survival: same handles AND same stable ClusterIDs.
			if !reflect.DeepEqual(before.Clusters, after.Clusters) {
				return fmt.Errorf("%s: clusters changed across restart:\nbefore: %v\nafter:  %v",
					stage, before.Clusters, after.Clusters)
			}
			if !reflect.DeepEqual(before.Noise, after.Noise) {
				return fmt.Errorf("%s: noise changed across restart:\nbefore: %v\nafter:  %v",
					stage, before.Noise, after.Noise)
			}
			return nil
		}
	}

	var live []dyndbscan.PointID
	commits, moves := 0, 0
	type eqMode struct {
		name string
		e    *dyndbscan.Engine
	}
	checkpoint := func(stage string) error {
		sub.Sync()
		if err := val.Err(); err != nil {
			return fmt.Errorf("%s: event stream invalid: %w", stage, err)
		}
		val.Commit(sub.Version())
		modes := []eqMode{{"one-shard", ref}, {"sharded", plain}, {"sharded+sub", sub}}
		if walEng != nil {
			modes = append(modes, eqMode{"wal", walEng})
		}
		if hot != nil {
			modes = append(modes, eqMode{"hotspot", hot})
		}
		var q []dyndbscan.PointID
		for i := 0; i < len(live); i += 3 {
			q = append(q, live[i])
		}
		for _, m := range modes {
			if err := oracleIsomorphic(oracle, m.e, m.name); err != nil {
				return fmt.Errorf("%s: core vs %s: %w", stage, m.name, err)
			}
			if err := liveReadsAgree(m.e, m.name, q); err != nil {
				return fmt.Errorf("%s: %w", stage, err)
			}
		}
		if err := val.ReconcileLive(sub.Snapshot().ClusterIDs()); err != nil {
			return fmt.Errorf("%s: event stream vs snapshot: %w", stage, err)
		}
		if err := sub.SeamAudit(); err != nil {
			return fmt.Errorf("%s: %w", stage, err)
		}
		if err := val.Err(); err != nil {
			return fmt.Errorf("%s: event stream invalid: %w", stage, err)
		}
		return nil
	}

	for lo := 0; lo < len(ops); lo += cfg.batch {
		hi := lo + cfg.batch
		if hi > len(ops) {
			hi = len(ops)
		}
		// Build one Apply batch: delete targets come from the live set as of
		// the batch start (Apply forbids same-batch insert+delete), without
		// duplicates.
		batch := make([]dyndbscan.Op, 0, hi-lo)
		used := make(map[dyndbscan.PointID]struct{})
		var targets []dyndbscan.PointID
		for _, op := range ops[lo:hi] {
			if op.Insert {
				batch = append(batch, dyndbscan.InsertOp(dyndbscan.Point{op.X, op.Y}))
				continue
			}
			if len(live) == 0 {
				continue
			}
			id := live[op.Del%len(live)]
			if _, dup := used[id]; dup {
				continue
			}
			used[id] = struct{}{}
			batch = append(batch, dyndbscan.DeleteOp(id))
			targets = append(targets, id)
		}
		if len(batch) == 0 {
			continue
		}
		outRef, err := ref.Apply(batch)
		if err != nil {
			return fmt.Errorf("ops[%d:%d]: one-shard Apply: %w", lo, hi, err)
		}
		outCore, err := oracleApply(oracle, batch)
		if err != nil {
			return fmt.Errorf("ops[%d:%d]: core apply: %w", lo, hi, err)
		}
		if !reflect.DeepEqual(outRef, outCore) {
			return fmt.Errorf("ops[%d:%d]: one-shard engine minted different handles than the core reference", lo, hi)
		}
		outPlain, err := plain.Apply(batch)
		if err != nil {
			return fmt.Errorf("ops[%d:%d]: sharded Apply: %w", lo, hi, err)
		}
		outSub, err := sub.Apply(batch)
		if err != nil {
			return fmt.Errorf("ops[%d:%d]: sharded+sub Apply: %w", lo, hi, err)
		}
		if !reflect.DeepEqual(outRef, outPlain) || !reflect.DeepEqual(outRef, outSub) {
			return fmt.Errorf("ops[%d:%d]: handles diverge across modes", lo, hi)
		}
		if walEng != nil {
			outWal, err := walEng.Apply(batch)
			if err != nil {
				return fmt.Errorf("ops[%d:%d]: wal Apply: %w", lo, hi, err)
			}
			if !reflect.DeepEqual(outRef, outWal) {
				return fmt.Errorf("ops[%d:%d]: wal engine minted different handles", lo, hi)
			}
		}
		if hot != nil {
			// The hotspot engine receives the same ops, but each mixed batch
			// is split into one delete commit and one pure-insert commit:
			// only all-insert (commutative) batches are eligible for
			// split-phase diversion, and the blob streams almost never emit
			// one by chance. Delete targets predate the batch, so the split
			// is semantics-preserving, and inserts keep their relative order,
			// so handles still must mint in lockstep with the reference.
			var delOps, insOps []dyndbscan.Op
			for _, op := range batch {
				if op.Kind == dyndbscan.OpInsert {
					insOps = append(insOps, op)
				} else {
					delOps = append(delOps, op)
				}
			}
			var outDel, outIns []dyndbscan.PointID
			if len(delOps) > 0 {
				if outDel, err = hot.Apply(delOps); err != nil {
					return fmt.Errorf("ops[%d:%d]: hotspot Apply (deletes): %w", lo, hi, err)
				}
			}
			if len(insOps) > 0 {
				if outIns, err = hot.Apply(insOps); err != nil {
					return fmt.Errorf("ops[%d:%d]: hotspot Apply (inserts): %w", lo, hi, err)
				}
			}
			outHot := make([]dyndbscan.PointID, len(batch))
			di, ii := 0, 0
			for i, op := range batch {
				if op.Kind == dyndbscan.OpInsert {
					outHot[i] = outIns[ii]
					ii++
				} else {
					outHot[i] = outDel[di]
					di++
				}
			}
			if !reflect.DeepEqual(outRef, outHot) {
				return fmt.Errorf("ops[%d:%d]: hotspot engine minted different handles", lo, hi)
			}
		}
		for i, op := range batch {
			if op.Kind == dyndbscan.OpInsert {
				live = append(live, outRef[i])
			}
		}
		if len(targets) > 0 {
			dead := make(map[dyndbscan.PointID]struct{}, len(targets))
			for _, id := range targets {
				dead[id] = struct{}{}
			}
			w := 0
			for _, id := range live {
				if _, d := dead[id]; !d {
					live[w] = id
					w++
				}
			}
			live = live[:w]
		}
		commits++
		if cfg.rebalanceEvery > 0 && commits%cfg.rebalanceEvery == 0 {
			// Interleaved live migrations: both sharded engines rebalance
			// mid-stream. Handles, ClusterIDs, the clustering, and the event
			// stream must all survive (the following checkpoints prove it);
			// the one-shard engine has no placement to move.
			n, err := plain.Rebalance()
			if err != nil {
				return fmt.Errorf("ops[:%d]: sharded Rebalance: %w", hi, err)
			}
			moves += n
			if n, err = sub.Rebalance(); err != nil {
				return fmt.Errorf("ops[:%d]: sharded+sub Rebalance: %w", hi, err)
			}
			moves += n
			if walEng != nil && cfg.shards > 1 {
				// Rebalances are deliberately NOT logged: replay must stay
				// correct under any placement. Migrating the WAL engine
				// mid-stream and restarting it later proves exactly that.
				if _, err := walEng.Rebalance(); err != nil {
					return fmt.Errorf("ops[:%d]: wal Rebalance: %w", hi, err)
				}
			}
			if hot != nil {
				if _, err := hot.Rebalance(); err != nil {
					return fmt.Errorf("ops[:%d]: hotspot Rebalance: %w", hi, err)
				}
			}
		}
		if hot != nil && cfg.hotJoinEvery > 0 && commits%cfg.hotJoinEvery == 0 {
			hot.Sync() // forced join: every staged delta folds in before the next batch
		}
		if walRestart != nil && commits%cfg.restartEvery == 0 {
			if err := walRestart(fmt.Sprintf("after commit %d (ops[:%d])", commits, hi)); err != nil {
				return err
			}
		}
		if commits%cfg.checkEvery == 0 {
			if err := checkpoint(fmt.Sprintf("after commit %d (ops[:%d])", commits, hi)); err != nil {
				return err
			}
		}
	}
	if cfg.requireMoves && moves == 0 {
		// The seeded streams are skewed enough that the hair-trigger policy
		// must migrate; zero moves means the migration path went untested.
		return fmt.Errorf("no stripe migration happened across %d commits — harness lost its rebalancing coverage", commits)
	}
	if cfg.requireMoves && sub.MultiRoundMigrations() == 0 {
		// Same guard for the round protocol: some move must have needed
		// more than one exclusive round.
		return fmt.Errorf("no migration took more than one round across %d commits — harness lost its multi-round coverage", commits)
	}
	if hot != nil && cfg.requireMoves {
		// Same coverage guard for the split-phase machinery: the hair-trigger
		// policy must have staged and reconciled something, or the hotspot
		// engine silently degenerated into a plain sharded engine.
		if st := hot.HotspotStats(); st.Reconciles == 0 || st.ReconciledOps == 0 {
			return fmt.Errorf("hotspot engine never reconciled a staged delta across %d commits — harness lost its split-phase coverage (stats %+v)", commits, st)
		}
	}
	return checkpoint("final")
}

// shrinkEqOps reduces a failing stream with bounded greedy chunk removal;
// every candidate replays from scratch, so the budget caps total work.
func shrinkEqOps(cfg eqConfig, ops []eqOp) []eqOp {
	fails := func(cand []eqOp) bool { return runEqStream(cfg, cand) != nil }
	cur := append([]eqOp(nil), ops...)
	budget := 60
	for chunk := len(cur) / 2; chunk >= 1 && budget > 0; chunk /= 2 {
		for start := 0; start+chunk <= len(cur) && budget > 0; {
			cand := append(append([]eqOp(nil), cur[:start]...), cur[start+chunk:]...)
			budget--
			if fails(cand) {
				cur = cand
			} else {
				start += chunk
			}
		}
	}
	return cur
}

func formatEqOps(ops []eqOp) string {
	parts := make([]string, len(ops))
	for i, op := range ops {
		parts[i] = op.String()
	}
	return strings.Join(parts, " ")
}

// TestCrossModeEquivalence is the acceptance harness of the incremental
// cross-shard stitch: ≥10k ops per seed, all three algorithms, every mode
// checked against a bare core backend.
func TestCrossModeEquivalence(t *testing.T) {
	cases := []struct {
		name    string
		algo    dyndbscan.Algorithm
		deletes bool
	}{
		{"FullyDynamic", dyndbscan.AlgoFullyDynamic, true},
		{"SemiDynamic", dyndbscan.AlgoSemiDynamic, false},
		{"IncDBSCAN", dyndbscan.AlgoIncDBSCAN, true},
	}
	seeds := []int64{42}
	nops := 10_000
	if testing.Short() {
		nops = 2_000
	}
	for _, tc := range cases {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				cfg := eqConfig{
					algo:   tc.algo,
					shards: 4,
					stripe: 3,
					eps:    25,
					minPts: 4,
					batch:  16, checkEvery: 12,
					rebalanceEvery: 17, // co-prime with checkEvery: migrations land between and on checkpoints
					requireMoves:   true,
					roundBudget:    100 * time.Microsecond,
					restartEvery:   31, // WAL engine: kill-and-recover cycles land all over the schedule
					hotspot:        true,
					hotJoinEvery:   7, // forced joins land between query-driven ones
				}
				ops := genEqOps(seed, nops, tc.deletes)
				err := runEqStream(cfg, ops)
				if err == nil {
					return
				}
				t.Logf("cross-mode divergence (seed %d, %d ops): %v — shrinking", seed, len(ops), err)
				scfg := cfg
				scfg.requireMoves = false // don't let shrink chase lost-coverage "failures"
				min := shrinkEqOps(scfg, ops)
				minErr := runEqStream(scfg, min)
				if minErr == nil {
					minErr = err // shrink lost the failure; report the original
					min = ops
				}
				t.Fatalf("cross-mode equivalence failed\nseed: %d\nerror: %v\nreplay (%d ops): %s",
					seed, minErr, len(min), formatEqOps(min))
			})
		}
	}
}
