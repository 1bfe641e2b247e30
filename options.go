package dyndbscan

import (
	"errors"
	"fmt"
)

// Algorithm selects which dynamic clustering algorithm an Engine runs.
type Algorithm int

const (
	// AlgoFullyDynamic is the paper's fully dynamic ρ-double-approximate
	// DBSCAN (Theorem 4): near-constant amortized insertions AND deletions.
	// The default, and the right choice for almost every workload.
	AlgoFullyDynamic Algorithm = iota
	// AlgoSemiDynamic is the insertion-only ρ-approximate DBSCAN
	// (Theorem 1). Slightly cheaper per insertion and with plain (not
	// double) approximation semantics, but Delete/DeleteBatch return
	// ErrDeletesUnsupported.
	AlgoSemiDynamic
	// AlgoIncDBSCAN is the incremental exact DBSCAN baseline of Ester et
	// al. (1998). Exact at any dimensionality, but deletions can trigger
	// cluster-wide BFS; use it for comparisons, not production traffic.
	AlgoIncDBSCAN
)

// String returns the algorithm's name.
func (a Algorithm) String() string {
	switch a {
	case AlgoFullyDynamic:
		return "FullyDynamic"
	case AlgoSemiDynamic:
		return "SemiDynamic"
	case AlgoIncDBSCAN:
		return "IncDBSCAN"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// ErrMissingOption is wrapped by New when a required option (WithEps,
// WithMinPts) was not provided.
var ErrMissingOption = errors.New("dyndbscan: required option missing")

// engineSettings accumulates the functional options of New.
type engineSettings struct {
	algo         Algorithm
	cfg          Config
	epsSet       bool
	minPtsSet    bool
	workers      int             // staging/snapshot workers; 0 = one per CPU
	shards       int             // spatial shards; 1 (the default) = inert placement
	stripeCells  int             // shard stripe width in grid cells; 0 = adaptive
	rebalance    RebalancePolicy // shard rebalancing policy (see WithRebalance)
	rebalanceSet bool
	hotspot      HotspotPolicy // contention-adaptive commit path (see WithHotspot)
	hotspotSet   bool

	// Durability (see persist.go). opening marks settings built by Open,
	// where the shape comes from the log's meta record rather than options.
	walDir          string
	walPolicy       SyncPolicy
	walCkptEvery    int
	walCkptSet      bool
	walCompactEvery int
	walCompactSet   bool
	walSegBytes     int64
	walTuned        bool // a WAL tuning option was used (requires WithWAL or Open)
	opening         bool

	err error // first option-level error, reported by New
}

// Option configures an Engine under construction; see New.
type Option func(*engineSettings)

// WithAlgorithm selects the clustering algorithm (default AlgoFullyDynamic).
func WithAlgorithm(a Algorithm) Option {
	return func(s *engineSettings) {
		switch a {
		case AlgoFullyDynamic, AlgoSemiDynamic, AlgoIncDBSCAN:
			s.algo = a
		default:
			s.setErr(fmt.Errorf("dyndbscan: unknown algorithm %v", a))
		}
	}
}

// WithEps sets the DBSCAN density radius ε. Required (no radius makes sense
// as a default for arbitrary data).
func WithEps(eps float64) Option {
	return func(s *engineSettings) { s.cfg.Eps = eps; s.epsSet = true }
}

// WithMinPts sets the DBSCAN density threshold MinPts. Required.
func WithMinPts(minPts int) Option {
	return func(s *engineSettings) { s.cfg.MinPts = minPts; s.minPtsSet = true }
}

// WithRho sets the approximation parameter ρ (default 0.001, the paper's
// recommendation; 0 requests exact semantics — in 2D the semi- and
// fully-dynamic algorithms then maintain exact DBSCAN clusters).
func WithRho(rho float64) Option {
	return func(s *engineSettings) { s.cfg.Rho = rho }
}

// WithDims sets the dimensionality d (default 2).
func WithDims(d int) Option {
	return func(s *engineSettings) { s.cfg.Dims = d }
}

// WithWorkers sets how many goroutines the Engine uses for the parallel
// phases of its serving layer: batch staging (InsertBatch/Apply pre-commit
// validation and grid assignment) and snapshot construction. 0 (the
// default) means one worker per CPU; 1 disables the parallel phases.
func WithWorkers(n int) Option {
	return func(s *engineSettings) {
		if n < 0 {
			s.setErr(fmt.Errorf("dyndbscan: WithWorkers(%d): worker count cannot be negative", n))
			return
		}
		s.workers = n
	}
}

// WithShards partitions space into n grid-aligned shards, each owning its
// own clustering backend behind its own lock, so updates touching disjoint
// shards commit concurrently — write throughput then scales with cores on
// spatially spread workloads. n = 1 (the default) is the same engine with
// one shard: its placement is inert (no stripes to decide, account or
// migrate), and its commits run inline on the caller's goroutine.
//
// Sharding partitions the grid into stripes along dimension 0, assigned to
// the shards through a versioned table — round-robin at first, adjusted by
// load-aware rebalancing (WithRebalance, Engine.Rebalance); each shard
// additionally replicates a narrow ghost band of neighboring points so that
// core statuses and seam edges are computed from complete neighborhoods, and
// snapshot construction stitches the per-shard clusterings back together
// across shard boundaries. With
// Rho = 0 the stitched result is exactly the single-shard clustering (up to
// the stable-id naming); with Rho > 0 both are legal ρ-approximate
// clusterings that may resolve don't-care-band points differently.
//
// Commit parallelism is independent of Subscribe: with subscribers attached,
// each commit derives its global cluster events by folding its own seam
// delta into an incrementally maintained cross-shard stitch, so commits on
// disjoint shard sets still proceed concurrently.
//
// n may be at most 64: each point's route records the shards holding its
// copies in a 64-bit mask. New refuses a larger n, and Open refuses a log
// whose meta record names one.
func WithShards(n int) Option {
	return func(s *engineSettings) {
		if n < 1 {
			s.setErr(fmt.Errorf("dyndbscan: WithShards(%d): shard count must be ≥ 1", n))
			return
		}
		s.shards = n
	}
}

// WithShardStripe sets the shard stripe width in grid cells along dimension 0.
// Narrower stripes spread a spatially compact workload across more shards but
// raise the fraction of points replicated into ghost bands; wider stripes do
// the opposite. A width at or below the ghost-band width (≈ 2(1+ρ)ε in cells)
// would replicate every cell into several shards, so the effective width is
// clamped to one cell more than the band; Engine.StripeCells reports the
// width in effect.
//
// Without this option the width is adaptive: derived from the data extent of
// the first committed batch so that each shard starts with a handful of
// stripes. Requires WithShards(n>1); combining it with a single-shard Engine
// is an error.
func WithShardStripe(cells int) Option {
	return func(s *engineSettings) {
		if cells < 1 {
			s.setErr(fmt.Errorf("dyndbscan: WithShardStripe(%d): stripe width must be ≥ 1", cells))
			return
		}
		s.stripeCells = cells
	}
}

// WithRebalance sets the load-aware rebalancing policy of a sharded Engine.
// Zero fields take their defaults (see RebalancePolicy); with CheckEvery > 0
// the Engine evaluates the per-shard balance automatically on the commit
// path and migrates hot stripes to underloaded shards, otherwise migrations
// run only through explicit Engine.Rebalance calls. Requires WithShards(n>1).
func WithRebalance(p RebalancePolicy) Option {
	return func(s *engineSettings) {
		if p.MaxImbalance < 0 || p.MinLoad < 0 || p.CheckEvery < 0 {
			s.setErr(fmt.Errorf("dyndbscan: WithRebalance(%+v): negative policy field", p))
			return
		}
		s.rebalance = p
		s.rebalanceSet = true
	}
}

// WithHotspot enables the contention-adaptive commit path of a sharded
// Engine and sets its policy. Zero fields take their defaults (see
// HotspotPolicy). When a stripe's contention score crosses the policy
// threshold the Engine moves it into split phase: inserts are absorbed into
// staged delta buffers without the owning shard's lock and folded in bulk by
// a reconciler, while deletes, clustering queries, Sync, Checkpoint, and
// Close force an immediate reconcile. See the README's "Hotspots &
// contention" section for the semantics. Requires WithShards(n>1).
func WithHotspot(p HotspotPolicy) Option {
	return func(s *engineSettings) {
		if p.ScoreThreshold < 0 || p.WaitWeight < 0 || p.CheckEvery < 0 ||
			p.ReconcileOps < 0 {
			s.setErr(fmt.Errorf("dyndbscan: WithHotspot(%+v): negative policy field", p))
			return
		}
		s.hotspot = p
		s.hotspotSet = true
	}
}

func (s *engineSettings) setErr(err error) {
	if s.err == nil {
		s.err = err
	}
}

// newSettings returns the defaults New starts from.
func newSettings() *engineSettings {
	return &engineSettings{
		algo:   AlgoFullyDynamic,
		cfg:    Config{Dims: 2, Rho: 0.001},
		shards: 1,
	}
}

// validate finishes option processing: option-level errors first, then the
// required options, then the Config's own invariants.
func (s *engineSettings) validate() error {
	if s.err != nil {
		return s.err
	}
	if !s.epsSet {
		return fmt.Errorf("%w: WithEps", ErrMissingOption)
	}
	if !s.minPtsSet {
		return fmt.Errorf("%w: WithMinPts", ErrMissingOption)
	}
	if s.shards > maxShards {
		return fmt.Errorf("dyndbscan: WithShards(%d): the sharded engine supports at most %d shards", s.shards, maxShards)
	}
	if s.stripeCells > 0 && s.shards <= 1 {
		return errors.New("dyndbscan: WithShardStripe requires WithShards(n>1); a single-shard engine has no stripes")
	}
	if s.rebalanceSet && s.shards <= 1 {
		return errors.New("dyndbscan: WithRebalance requires WithShards(n>1); a single-shard engine has nothing to rebalance")
	}
	if s.hotspotSet && s.shards <= 1 {
		return errors.New("dyndbscan: WithHotspot requires WithShards(n>1); a single-shard engine has no stripe contention")
	}
	if err := s.validateWAL(); err != nil {
		return err
	}
	return s.cfg.Validate()
}
