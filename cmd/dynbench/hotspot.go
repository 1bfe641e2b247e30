package main

// The "hotspot" figure is not from the paper: it measures the
// contention-adaptive hot-stripe commit path. A Zipf-skewed insert-heavy
// stream (most batches land on a handful of hot stripes) is replayed by
// concurrent workers through a rebalance-only engine and through the same
// engine with WithHotspot, so the table shows what split-phase staging buys
// in throughput and commit-latency tails when traffic refuses to spread.

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"time"

	"dyndbscan"
	"dyndbscan/internal/grid"
	"dyndbscan/internal/harness"
)

const (
	hotBatch    = 1 // ops per Apply: hotspot traffic commits op by op (the Doppel scenario)
	hotShards   = 4
	hotStripeW  = 16  // cells per stripe
	hotEps      = 200 // well above point spacing: clusters form and churn
	hotStripes  = 32  // distinct stripes the Zipf ranks map onto
	hotZipfS    = 1.3 // Zipf exponent: rank 0 absorbs roughly a third of batches
	hotDelEvery = 48  // batches between delete batches (insert-heavy: ~98% inserts)
)

// hotPolicy is the policy under test: hot enough to enter split phase on the
// Zipf head within a few hundred ops, reconciling every few hundred staged
// inserts so the fold amortizes the per-commit fixed costs the small Apply
// batches otherwise pay one by one.
func hotPolicy() dyndbscan.HotspotPolicy {
	return dyndbscan.HotspotPolicy{
		ScoreThreshold: 4,
		WaitWeight:     16,
		CheckEvery:     4,
		ReconcileOps:   256,
	}
}

// hotRebalance is the shared placement policy: both variants rebalance, so
// the comparison isolates the split-phase commit path.
func hotRebalance() dyndbscan.RebalancePolicy {
	return dyndbscan.RebalancePolicy{MaxImbalance: 1.2, MinLoad: 256, CheckEvery: 32}
}

// hotX maps a Zipf rank to an x-coordinate inside that stripe. Ranks
// interleave across the stripe range so consecutive hot ranks are not
// adjacent stripes (adjacency would let one shard own the whole head).
func hotX(rank uint64, off float64) float64 {
	side := grid.NewParams(2, hotEps).Side
	stripe := (rank * 7) % hotStripes
	return (float64(stripe) + off) * side * hotStripeW
}

// quantiles returns p50/p99/p999/max of the observed Apply latencies.
func quantiles(lat []time.Duration) (p50, p99, p999, max time.Duration) {
	if len(lat) == 0 {
		return
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	at := func(q float64) time.Duration {
		i := int(q * float64(len(lat)-1))
		return lat[i]
	}
	return at(0.50), at(0.99), at(0.999), lat[len(lat)-1]
}

// hotspotRun replays o.N Zipf-skewed ops through one engine variant with the
// given worker count and reports throughput plus Apply-latency quantiles.
// A non-empty walDir makes the run durable with group commit: the hotspot
// variant then writes a staged-delta record (wal.OpStagedInsert) for every
// diverted insert at staging time, so the sweep prices exactly that logging.
func hotspotRun(o harness.Options, workers int, pol *dyndbscan.HotspotPolicy, walDir string) (opsPerSec float64, lat []time.Duration, stats dyndbscan.HotspotStats) {
	opts := []dyndbscan.Option{
		dyndbscan.WithAlgorithm(dyndbscan.AlgoFullyDynamic),
		dyndbscan.WithDims(2),
		dyndbscan.WithEps(hotEps),
		dyndbscan.WithMinPts(o.MinPts),
		dyndbscan.WithShards(hotShards),
		dyndbscan.WithShardStripe(hotStripeW),
		dyndbscan.WithRebalance(hotRebalance()),
	}
	if walDir != "" {
		// Same group-commit window as the wal figure, so the two sweeps'
		// durability costs are comparable.
		opts = append(opts, dyndbscan.WithWAL(walDir, dyndbscan.SyncEvery(2*time.Millisecond)))
	}
	if pol != nil {
		opts = append(opts, dyndbscan.WithHotspot(*pol))
	}
	eng, err := dyndbscan.New(opts...)
	if err != nil {
		panic(fmt.Sprintf("dynbench: hotspot: %v", err))
	}
	defer eng.Close()

	batches := o.N / hotBatch
	perWorker := batches / workers
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
	)
	lats := make([][]time.Duration, workers)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(o.Seed + int64(w)))
			zipf := rand.NewZipf(rng, hotZipfS, 1, hotStripes-1)
			mine := make([]time.Duration, 0, perWorker)
			var retired []dyndbscan.PointID
			for b := 0; b < perWorker; b++ {
				var ops []dyndbscan.Op
				if b%hotDelEvery == hotDelEvery-1 && len(retired) >= hotBatch {
					// A delete batch: retire the oldest handles. Deletes are
					// a Doppel-style join trigger, so these also exercise the
					// forced-reconcile path mid-stream.
					for _, id := range retired[:hotBatch] {
						ops = append(ops, dyndbscan.DeleteOp(id))
					}
					retired = retired[hotBatch:]
				} else {
					// One Zipf draw per batch: hotspot traffic is bursty
					// (a device, tenant, or region producing a run of
					// updates), so a batch is the unit of locality, and the
					// stripe skew follows the Zipf head batch by batch.
					rank := zipf.Uint64()
					for i := 0; i < hotBatch; i++ {
						x := hotX(rank, rng.Float64())
						y := rng.Float64() * 10 * hotEps
						ops = append(ops, dyndbscan.InsertOp(dyndbscan.Point{x, y}))
					}
				}
				t0 := time.Now()
				res, err := eng.Apply(ops)
				mine = append(mine, time.Since(t0))
				if err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
					return
				}
				if ops[0].Kind == dyndbscan.OpInsert {
					retired = append(retired, res...)
				}
			}
			lats[w] = mine
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if len(errs) > 0 {
		panic(fmt.Sprintf("dynbench: hotspot: %v", errs[0]))
	}
	for _, l := range lats {
		lat = append(lat, l...)
	}
	return float64(perWorker*workers*hotBatch) / elapsed.Seconds(), lat, eng.HotspotStats()
}

// hotspotSweep renders the workers × wal × policy throughput/latency grid.
func hotspotSweep(o harness.Options) harness.Table {
	tb := harness.Table{
		Title: fmt.Sprintf("Hotspot — contention-adaptive commit path on Zipf(s=%.1f) insert-heavy traffic (N=%d, %d-op batches)", hotZipfS, o.N, hotBatch),
		Caption: "Both variants run the same load-aware rebalancing; 'hotspot' additionally enables split-phase\n" +
			"staging (WithHotspot). wal=off runs in memory; wal=delta adds a group-commit WAL, where every\n" +
			"staged insert writes its staged-delta record (OpStagedInsert) at staging time — the durable\n" +
			"variant pays that append on the diverted path. speedup = hotspot ops/s over rebalance-only at\n" +
			"the same worker count and wal setting. Latency quantiles are per-Apply wall times across workers.",
		Header: []string{"workers", "wal", "policy", "ops/s", "p50", "p99", "p999", "speedup", "staged", "reconciles"},
	}
	for _, workers := range []int{1, 2, 4} {
		for _, wal := range []bool{false, true} {
			walName := "off"
			if wal {
				walName = "delta"
			}
			var baseOps float64
			for _, hot := range []bool{false, true} {
				name, pol := "rebalance-only", (*dyndbscan.HotspotPolicy)(nil)
				if hot {
					p := hotPolicy()
					name, pol = "hotspot", &p
				}
				if o.Verbose != nil {
					o.Verbose("  running hotspot sweep workers=%d wal=%s policy=%s (N=%d)...", workers, walName, name, o.N)
				}
				walDir := ""
				if wal {
					dir, err := os.MkdirTemp("", "dynbench-hotspot-wal-*")
					if err != nil {
						panic(fmt.Sprintf("dynbench: hotspot: %v", err))
					}
					walDir = dir
				}
				ops, lat, st := hotspotRun(o, workers, pol, walDir)
				if walDir != "" {
					os.RemoveAll(walDir)
				}
				p50, p99, p999, _ := quantiles(lat)
				speedup := "-"
				if hot {
					speedup = fmt.Sprintf("%.2fx", ops/baseOps)
				} else {
					baseOps = ops
				}
				tb.Rows = append(tb.Rows, []string{
					fmt.Sprintf("%d", workers), walName, name,
					fmt.Sprintf("%.0f", ops),
					p50.Round(time.Microsecond).String(),
					p99.Round(time.Microsecond).String(),
					p999.Round(time.Microsecond).String(),
					speedup,
					fmt.Sprintf("%d", st.ReconciledOps),
					fmt.Sprintf("%d", st.Reconciles),
				})
			}
		}
	}
	return tb
}

// hotspotSweepTables is the "hotspot" figure: the workers × policy sweep.
func hotspotSweepTables(o harness.Options) []harness.Table {
	return []harness.Table{hotspotSweep(o)}
}
