// Command dyncluster clusters points with the dynamic DBSCAN algorithms,
// driving the dyndbscan.Engine API.
//
// Two modes:
//
// Batch mode (default) reads one comma-separated point per line from stdin
// or -in, ingests everything with one InsertBatch, and prints the final
// clustering — one line per input point with its cluster ids (a border point
// may have several) or "noise":
//
//	dyngen -mode dataset -d 2 -n 5000 | dyncluster -d 2 -eps 200 -minpts 10
//
// Ops mode (-ops) replays a dyngen workload file (insert/delete/query lines)
// and prints every query result as it happens:
//
//	dyngen -mode workload -d 2 -n 10000 -fqry 500 | dyncluster -d 2 -eps 200 -ops
//
// With -events, cluster-evolution events (merges, splits, core/noise
// transitions) observed through Engine.Subscribe are tallied and summarized
// on stderr when the run ends; -events-verbose streams each one.
//
// The concurrent serving layer is exercisable from here: -workers N sets the
// engine's staging/snapshot parallelism, -readers N spawns N goroutines
// hammering Snapshot/ClusterOf/Members concurrently with ingestion, and
// -batch N sets the batch-mode ingestion chunk. Every run ends with a
// throughput/latency report (ops/sec, p50/p99 per call) on stderr; with
// readers, their read throughput is reported too:
//
//	dyngen -mode dataset -d 2 -n 100000 | dyncluster -d 2 -eps 200 -readers 8 -workers 4
//
// Durability: -wal DIR logs every committed batch to a write-ahead log
// before it becomes visible (-sync always|<interval> picks per-commit fsync
// vs group commit), -recover reopens an existing log (reporting recovery
// time and replay volume) and keeps serving, and -replica tails the log with
// an in-process read replica, reporting its lag at exit:
//
//	dyngen -mode dataset -d 2 -n 50000 | dyncluster -d 2 -eps 200 -wal /tmp/w -sync 2ms -replica
//	dyncluster -recover -wal /tmp/w -in more_points.csv
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dyndbscan"
)

func main() {
	var (
		d         = flag.Int("d", 2, "dimensionality")
		eps       = flag.Float64("eps", 100, "DBSCAN eps")
		minPts    = flag.Int("minpts", 10, "DBSCAN MinPts")
		rho       = flag.Float64("rho", 0.001, "approximation parameter (0 = exact)")
		algo      = flag.String("algo", "full", "full | semi | inc")
		ops       = flag.Bool("ops", false, "input is a dyngen workload instead of raw points")
		in        = flag.String("in", "", "input file (default stdin)")
		events    = flag.Bool("events", false, "summarize cluster-evolution events on stderr")
		eventsVrb = flag.Bool("events-verbose", false, "print every cluster-evolution event on stderr")
		workers   = flag.Int("workers", 0, "staging/snapshot workers (0 = one per CPU)")
		readers   = flag.Int("readers", 0, "concurrent snapshot readers hammering the engine during ingestion")
		batch     = flag.Int("batch", 4096, "ingestion batch size in batch mode")
		shards    = flag.Int("shards", 1, "spatial shards; >1 commits batches concurrently across grid stripes")
		stripe    = flag.Int("stripe", 0, "shard stripe width in grid cells (0 = adaptive, derived from the first batch)")
		rebalance = flag.Bool("rebalance", false, "enable automatic load-aware stripe rebalancing (needs -shards > 1)")
		hotspot   = flag.Bool("hotspot", false, "enable the contention-adaptive commit path: hot stripes stage inserts in split phase and a reconciler folds them in (needs -shards > 1)")
		skew      = flag.Float64("skew", 0, "fraction [0,1] of input points squeezed into hotspot stripes that alias onto one shard — generates skewed traffic for rebalancing experiments")
		walDir    = flag.String("wal", "", "write-ahead-log directory: every committed batch is logged before it is visible, surviving crashes (see -sync, -recover)")
		syncMode  = flag.String("sync", "2ms", "WAL durability: 'always' fsyncs per commit; a duration like 2ms group-commits on that interval (needs -wal)")
		recovery  = flag.Bool("recover", false, "recover from the existing log in -wal — the engine shape (algorithm, eps, shards, ...) comes from the log and the matching flags are ignored — then keep serving and appending")
		replica   = flag.Bool("replica", false, "tail the log with an in-process read replica and report its lag at exit (needs -wal)")
	)
	flag.Parse()

	var algorithm dyndbscan.Algorithm
	switch *algo {
	case "full":
		algorithm = dyndbscan.AlgoFullyDynamic
	case "semi":
		algorithm = dyndbscan.AlgoSemiDynamic
	case "inc":
		algorithm = dyndbscan.AlgoIncDBSCAN
	default:
		fatal(fmt.Errorf("unknown algorithm %q", *algo))
	}
	if *batch < 1 {
		fatal(fmt.Errorf("batch size %d must be ≥ 1", *batch))
	}
	opts := []dyndbscan.Option{
		dyndbscan.WithAlgorithm(algorithm),
		dyndbscan.WithDims(*d),
		dyndbscan.WithEps(*eps),
		dyndbscan.WithMinPts(*minPts),
		dyndbscan.WithRho(*rho),
		dyndbscan.WithWorkers(*workers),
		dyndbscan.WithShards(*shards),
	}
	if *stripe < 0 {
		fatal(fmt.Errorf("-stripe %d must be ≥ 0 (0 = adaptive)", *stripe))
	}
	if *stripe > 0 {
		opts = append(opts, dyndbscan.WithShardStripe(*stripe))
	}
	if *rebalance {
		if *shards <= 1 && !*recovery {
			fatal(fmt.Errorf("-rebalance needs -shards > 1"))
		}
		opts = append(opts, dyndbscan.WithRebalance(dyndbscan.DefaultRebalancePolicy()))
	}
	if *hotspot {
		if *shards <= 1 && !*recovery {
			fatal(fmt.Errorf("-hotspot needs -shards > 1"))
		}
		opts = append(opts, dyndbscan.WithHotspot(dyndbscan.DefaultHotspotPolicy()))
	}
	if *skew < 0 || *skew > 1 {
		fatal(fmt.Errorf("-skew %v out of [0,1]", *skew))
	}
	if (*recovery || *replica) && *walDir == "" {
		fatal(fmt.Errorf("-recover and -replica need -wal"))
	}
	var syncPol dyndbscan.SyncPolicy
	if *walDir != "" {
		if *syncMode == "always" {
			syncPol = dyndbscan.SyncAlways()
		} else {
			d, err := time.ParseDuration(*syncMode)
			if err != nil || d <= 0 {
				fatal(fmt.Errorf("-sync must be 'always' or a positive duration, got %q", *syncMode))
			}
			syncPol = dyndbscan.SyncEvery(d)
		}
	}

	var (
		eng *dyndbscan.Engine
		err error
	)
	if *recovery {
		// The log remembers the engine's shape; only runtime options ride
		// along. Recovery time and replay volume go to stderr.
		ropts := []dyndbscan.Option{
			dyndbscan.WithWALSync(syncPol),
			dyndbscan.WithWorkers(*workers),
		}
		if *rebalance {
			ropts = append(ropts, dyndbscan.WithRebalance(dyndbscan.DefaultRebalancePolicy()))
		}
		if *hotspot {
			ropts = append(ropts, dyndbscan.WithHotspot(dyndbscan.DefaultHotspotPolicy()))
		}
		eng, err = dyndbscan.Open(*walDir, ropts...)
		if err != nil {
			fatal(err)
		}
		st := eng.WALStats()
		fmt.Fprintf(os.Stderr, "dyncluster: recovered %d points in %v (checkpoint through seq %d, %d records replayed)\n",
			eng.Len(), st.RecoveryTime.Round(time.Microsecond), st.CheckpointSeq, st.Replayed)
		if st.ChainBaseSeq != 0 {
			fmt.Fprintf(os.Stderr, "dyncluster: checkpoint chain: base seq %d + %d delta(s), %d bytes\n",
				st.ChainBaseSeq, st.ChainDeltas, st.ChainBytes)
		}
		*shards = eng.Shards() // downstream reports follow the recovered shape
	} else {
		if *walDir != "" {
			opts = append(opts, dyndbscan.WithWAL(*walDir, syncPol))
		}
		eng, err = dyndbscan.New(opts...)
		if err != nil {
			fatal(err)
		}
	}
	// Release the dispatcher goroutines and event buffers of any
	// subscription before exit.
	defer eng.Close()
	if *shards > 1 {
		fmt.Fprintf(os.Stderr, "dyncluster: sharded mode: %d shards\n", eng.Shards())
		// Per-shard load report: stripes/points/decayed updates per shard,
		// plus the effective stripe width (clamped or adaptively derived).
		defer func() {
			fmt.Fprintf(os.Stderr, "dyncluster: stripe width: %d cells\n", eng.StripeCells())
			for _, sl := range eng.ShardLoads() {
				fmt.Fprintf(os.Stderr, "dyncluster: shard %d: %d stripes, %d points, %.0f recent updates\n",
					sl.Shard, sl.Stripes, sl.Points, sl.Updates)
			}
			if hst := eng.HotspotStats(); hst.Enabled {
				fmt.Fprintf(os.Stderr, "dyncluster: hotspot: %d stripe(s) in split phase, %d staged, %d reconciles (%d ops, mean %v), joins: %s\n",
					hst.SplitPhase, hst.StagedOps, hst.Reconciles, hst.ReconciledOps,
					hst.MeanReconcile.Round(time.Microsecond), joinSummary(hst.Joins))
			}
		}()
	}
	if *walDir != "" {
		// Runs before the deferred eng.Close, so DurableSeq shows the
		// group-commit tail still in flight; Close flushes and seals it.
		defer func() {
			st := eng.WALStats()
			fmt.Fprintf(os.Stderr, "dyncluster: wal: sync %s, %d records (%d durable), %d segment(s), checkpoint through seq %d\n",
				st.Policy, st.LastSeq, st.DurableSeq, st.Segments, st.CheckpointSeq)
		}()
	}
	if *replica {
		rep, err := dyndbscan.OpenReplica(*walDir)
		if err != nil {
			fatal(err)
		}
		// At exit (primary still open), wait briefly for the replica to
		// reach everything the primary appended — the group-commit tail
		// becomes visible on the sync cadence — then report how far it got.
		defer func() {
			t0 := time.Now()
			target := eng.WALStats().LastSeq
			for rep.AppliedSeq() < target && time.Since(t0) < 2*time.Second {
				time.Sleep(time.Millisecond)
			}
			if lerr := rep.Err(); lerr != nil {
				fmt.Fprintf(os.Stderr, "dyncluster: replica: %v\n", lerr)
			} else {
				fmt.Fprintf(os.Stderr, "dyncluster: replica: applied seq %d of %d after %v, serving %d points\n",
					rep.AppliedSeq(), target, time.Since(t0).Round(time.Millisecond), rep.Len())
			}
			rep.Close()
		}()
	}
	skewer := newSkewer(*skew, *shards, *stripe, *eps, *d)
	stopReaders := startReaders(eng, *readers)
	defer stopReaders()

	if *events || *eventsVrb {
		tally := map[dyndbscan.EventKind]int{}
		eng.Subscribe(func(ev dyndbscan.Event) {
			tally[ev.Kind]++
			if *eventsVrb {
				fmt.Fprintf(os.Stderr, "event: %v\n", ev)
			}
		})
		defer func() {
			eng.Sync() // event dispatch is async; flush before summarizing
			kinds := make([]dyndbscan.EventKind, 0, len(tally))
			for k := range tally {
				kinds = append(kinds, k)
			}
			sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
			var parts []string
			for _, k := range kinds {
				parts = append(parts, fmt.Sprintf("%d %v", tally[k], k))
			}
			if len(parts) == 0 {
				parts = append(parts, "none")
			}
			fmt.Fprintf(os.Stderr, "dyncluster: events: %s\n", strings.Join(parts, ", "))
		}()
	}

	input := os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		input = f
	}
	sc := bufio.NewScanner(input)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()

	if *ops {
		runOps(eng, sc, out, *d, skewer)
	} else {
		runBatch(eng, sc, out, *d, *batch, skewer)
	}
	if *rebalance {
		// The automatic cadence is commit-clocked; a short batch-mode run
		// may finish before a check fires, so close with one explicit pass
		// (the deferred load report then shows the final placement).
		n, err := eng.Rebalance()
		if n > 0 {
			fmt.Fprintf(os.Stderr, "dyncluster: rebalance: migrated %d stripe(s)\n", n)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "dyncluster: rebalance: %v\n", err)
		}
	}
}

// joinSummary renders the forced-reconcile tally ("close:2, delete:5, ...")
// in a stable order; "none" when no join fired.
func joinSummary(joins map[string]uint64) string {
	causes := make([]string, 0, len(joins))
	for c := range joins {
		causes = append(causes, c)
	}
	sort.Strings(causes)
	var parts []string
	for _, c := range causes {
		parts = append(parts, fmt.Sprintf("%s:%d", c, joins[c]))
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ", ")
}

// skewer rewrites a fraction of the input points into narrow hotspot bands
// along dimension 0 chosen so their stripes alias onto one shard under the
// round-robin assignment — the pathology -rebalance exists to fix. nil (the
// zero fraction) passes points through untouched.
type skewer struct {
	frac  float64
	bands []float64 // left edges of the hot bands
	width float64
	rng   *rand.Rand
}

func newSkewer(frac float64, shards, stripe int, eps float64, d int) *skewer {
	if frac <= 0 || shards <= 1 {
		return nil
	}
	w := stripe
	if w == 0 {
		w = 64 // the engine's provisional default; close enough for traffic shaping
	}
	su := float64(w) * eps / math.Sqrt(float64(d)) // stripe width in units
	// Stripes 0 and n both map to shard 0 under t mod n.
	return &skewer{
		frac:  frac,
		bands: []float64{0, float64(shards) * su},
		width: su,
		rng:   rand.New(rand.NewSource(1)),
	}
}

func (sk *skewer) apply(pt dyndbscan.Point) dyndbscan.Point {
	if sk == nil || sk.rng.Float64() >= sk.frac {
		return pt
	}
	base := sk.bands[sk.rng.Intn(len(sk.bands))]
	pt[0] = base + sk.rng.Float64()*sk.width
	return pt
}

// startReaders spawns n goroutines that hammer the engine's read surface
// (Snapshot, ClusterOf, Members, Version) while the main goroutine ingests,
// and returns a function that stops them and reports their throughput.
func startReaders(eng *dyndbscan.Engine, n int) (stop func()) {
	if n <= 0 {
		return func() {}
	}
	var (
		reads   atomic.Int64
		done    = make(chan struct{})
		wg      sync.WaitGroup
		stopped bool
		start   = time.Now()
	)
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-done:
					return
				default:
				}
				snap := eng.Snapshot()
				if ids := snap.Noise; len(ids) > 0 {
					snap.ClusterOf(ids[rng.Intn(len(ids))])
				}
				for cid := range snap.Clusters {
					snap.Members(cid)
					break
				}
				_ = eng.Version()
				reads.Add(1)
			}
		}(int64(r))
	}
	return func() {
		if stopped {
			return
		}
		stopped = true
		close(done)
		wg.Wait()
		elapsed := time.Since(start)
		fmt.Fprintf(os.Stderr, "dyncluster: %d readers: %d snapshot reads in %v (%.0f reads/s)\n",
			n, reads.Load(), elapsed.Round(time.Millisecond),
			float64(reads.Load())/elapsed.Seconds())
	}
}

// latencyReport accumulates per-call update latencies and prints the
// throughput/latency summary. Throughput is computed over the time spent in
// engine calls, not wall clock, so slow input pipes don't skew the numbers.
type latencyReport struct {
	samples []time.Duration
	total   time.Duration
	ops     int // logical operations (points, workload ops)
}

func newLatencyReport() *latencyReport { return &latencyReport{} }

// timed runs fn, recording its latency as one sample covering n logical ops.
func (lr *latencyReport) timed(n int, fn func()) {
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	lr.samples = append(lr.samples, d)
	lr.total += d
	lr.ops += n
}

func (lr *latencyReport) print(what string) {
	if len(lr.samples) == 0 || lr.total <= 0 {
		return
	}
	sorted := append([]time.Duration(nil), lr.samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	// Nearest-rank percentile: ceil(n*p/100) - 1.
	pct := func(p int) time.Duration {
		idx := (len(sorted)*p+99)/100 - 1
		return sorted[max(idx, 0)]
	}
	fmt.Fprintf(os.Stderr, "dyncluster: %d %s in %v (%.0f ops/s); per-call latency p50=%v p99=%v\n",
		lr.ops, what, lr.total.Round(time.Millisecond),
		float64(lr.ops)/lr.total.Seconds(), pct(50), pct(99))
}

func runBatch(eng *dyndbscan.Engine, sc *bufio.Scanner, out *bufio.Writer, d, batch int, sk *skewer) {
	var pts []dyndbscan.Point
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		pt, err := parsePoint(text, d)
		if err != nil {
			fatal(fmt.Errorf("line %d: %v", line, err))
		}
		pts = append(pts, sk.apply(pt))
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
	// Ingest in batches: each InsertBatch stages its points across the
	// engine's workers before the serialized commit.
	lr := newLatencyReport()
	ids := make([]dyndbscan.PointID, 0, len(pts))
	for lo := 0; lo < len(pts); lo += batch {
		hi := min(lo+batch, len(pts))
		lr.timed(hi-lo, func() {
			got, err := eng.InsertBatch(pts[lo:hi])
			if err != nil {
				fatal(err)
			}
			ids = append(ids, got...)
		})
	}
	lr.print("points ingested")
	res, err := eng.GroupBy(ids)
	if err != nil {
		fatal(err)
	}
	// Invert the grouping: point -> cluster indices.
	membership := make(map[dyndbscan.PointID][]int)
	for g, members := range res.Groups {
		for _, id := range members {
			membership[id] = append(membership[id], g)
		}
	}
	for _, id := range ids {
		gs := membership[id]
		if len(gs) == 0 {
			fmt.Fprintln(out, "noise")
			continue
		}
		strs := make([]string, len(gs))
		for i, g := range gs {
			strs[i] = strconv.Itoa(g)
		}
		fmt.Fprintln(out, strings.Join(strs, ","))
	}
	fmt.Fprintf(os.Stderr, "dyncluster: %d points, %d clusters, %d noise\n",
		len(ids), len(res.Groups), len(res.Noise))
}

func runOps(eng *dyndbscan.Engine, sc *bufio.Scanner, out *bufio.Writer, d int, sk *skewer) {
	var idBySeq []dyndbscan.PointID
	lr := newLatencyReport()
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		kind, rest, _ := strings.Cut(text, " ")
		switch kind {
		case "i":
			pt, err := parsePoint(rest, d)
			if err != nil {
				fatal(fmt.Errorf("line %d: %v", line, err))
			}
			pt = sk.apply(pt)
			lr.timed(1, func() {
				id, err := eng.Insert(pt)
				if err != nil {
					fatal(fmt.Errorf("line %d: %v", line, err))
				}
				idBySeq = append(idBySeq, id)
			})
		case "d":
			seq, err := strconv.Atoi(rest)
			if err != nil || seq < 0 || seq >= len(idBySeq) {
				fatal(fmt.Errorf("line %d: bad delete target %q", line, rest))
			}
			lr.timed(1, func() {
				if err := eng.Delete(idBySeq[seq]); err != nil {
					fatal(fmt.Errorf("line %d: %v", line, err))
				}
			})
		case "q":
			var q []dyndbscan.PointID
			for _, s := range strings.Split(rest, ",") {
				seq, err := strconv.Atoi(strings.TrimSpace(s))
				if err != nil || seq < 0 || seq >= len(idBySeq) {
					fatal(fmt.Errorf("line %d: bad query member %q", line, s))
				}
				q = append(q, idBySeq[seq])
			}
			var res dyndbscan.Result
			lr.timed(1, func() {
				var err error
				res, err = eng.GroupBy(q)
				if err != nil {
					fatal(fmt.Errorf("line %d: %v", line, err))
				}
			})
			fmt.Fprintf(out, "query line %d: %d groups, %d noise\n", line, len(res.Groups), len(res.Noise))
			for _, g := range res.Groups {
				fmt.Fprintf(out, "  %v\n", g)
			}
		default:
			fatal(fmt.Errorf("line %d: unknown op %q", line, kind))
		}
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
	lr.print("workload ops")
}

func parsePoint(s string, d int) (dyndbscan.Point, error) {
	parts := strings.Split(s, ",")
	if len(parts) < d {
		return nil, fmt.Errorf("point %q has %d coordinates, need %d", s, len(parts), d)
	}
	pt := make(dyndbscan.Point, d)
	for i := 0; i < d; i++ {
		v, err := strconv.ParseFloat(strings.TrimSpace(parts[i]), 64)
		if err != nil {
			return nil, fmt.Errorf("bad coordinate %q", parts[i])
		}
		pt[i] = v
	}
	return pt, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "dyncluster: %v\n", err)
	os.Exit(1)
}
