package dyndbscan

import (
	"math/rand"
	"testing"

	"dyndbscan/internal/grid"
)

// oracleShards is the brute-force routing oracle: the shards that must hold
// a copy of a cell in column c0 are the owner of c0's stripe plus the owner
// of every stripe whose column interval [t·W, t·W+W-1] intersects the band
// [c0-band, c0+band] — enumerated exhaustively, owner first, in first-seen
// order of increasing stripe distance like shardsOf's walk.
func oracleShards(ss *shardSet, c0 int64) []int32 {
	t := floorDiv(c0, ss.stripeCells)
	out := []int32{ss.shardOfStripe(t)}
	add := func(u int64) {
		// Does stripe u own any column within the band around c0?
		lo, hi := u*ss.stripeCells, u*ss.stripeCells+ss.stripeCells-1
		if hi < c0-ss.bandCells || lo > c0+ss.bandCells {
			return
		}
		s := ss.shardOfStripe(u)
		for _, have := range out {
			if have == s {
				return
			}
		}
		out = append(out, s)
	}
	// Generous enumeration window: the band can span at most
	// 2*band/W + 3 stripes around t.
	span := 2*ss.bandCells/ss.stripeCells + 3
	for d := int64(1); d <= span; d++ {
		add(t + d)
		add(t - d)
	}
	return out
}

// maskOf is the copy mask of a shard list.
func maskOf(shards []int32) uint64 {
	var m uint64
	for _, s := range shards {
		m |= shardBit(s)
	}
	return m
}

// TestRoutingOracle property-tests the routing arithmetic — ownerOf,
// shardsOf, replicated, including negative coordinates through
// floorDiv/floorMod — against the brute-force oracle, over randomized
// stripe→shard assignment tables (the round-robin default plus migration
// overrides), stripe widths, and band widths.
func TestRoutingOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		shards := 2 + rng.Intn(7)
		stripe := int64(1 + rng.Intn(6))
		if rng.Intn(4) == 0 {
			stripe = 64
		}
		band := int64(1 + rng.Intn(7))
		ss := &shardSet{
			stripeCells: stripe,
			bandCells:   band,
			shards:      make([]*shard, shards),
			assign:      make(map[int64]int32),
		}
		// Random migration overrides over a window of stripes, including
		// no-op overrides (stripe assigned its round-robin default) and
		// adjacent stripes collapsing onto one shard.
		for u := int64(-30); u <= 30; u++ {
			if rng.Intn(3) == 0 {
				ss.assign[u] = int32(rng.Intn(shards))
			}
		}
		for c := int64(-220); c <= 220; c++ {
			var coord grid.Coord
			coord[0] = int32(c)
			wantOwner := ss.shardOfStripe(floorDiv(c, stripe))
			if got := ss.ownerOf(coord); got != wantOwner {
				t.Fatalf("trial %d (n=%d W=%d B=%d) c0=%d: ownerOf=%d, oracle %d",
					trial, shards, stripe, band, c, got, wantOwner)
			}
			want := oracleShards(ss, c)
			got := ss.shardsOf(coord)
			if got != maskOf(want) {
				t.Fatalf("trial %d (n=%d W=%d B=%d) c0=%d: shardsOf=%b, oracle %v",
					trial, shards, stripe, band, c, got, want)
			}
			if gotR, wantR := ss.replicated(coord), len(want) > 1; gotR != wantR {
				t.Fatalf("trial %d (n=%d W=%d B=%d) c0=%d: replicated=%v, shardsOf=%v",
					trial, shards, stripe, band, c, gotR, want)
			}
		}
	}
}

// TestReplicatedMatchesShardsOf pins the replicated() predicate to the
// brute-force oracle's shard list on the round-robin default assignment (no
// overrides), across stripe/band/shard-count combinations.
func TestReplicatedMatchesShardsOf(t *testing.T) {
	for _, shards := range []int{2, 3, 4, 8} {
		for _, stripe := range []int64{1, 2, 3, 4, 64} {
			for _, band := range []int64{1, 2, 3, 7} {
				ss := &shardSet{stripeCells: stripe, bandCells: band, shards: make([]*shard, shards)}
				for c := int64(-500); c <= 500; c++ {
					var coord grid.Coord
					coord[0] = int32(c)
					want := len(oracleShards(ss, c)) > 1
					if got := ss.replicated(coord); got != want {
						t.Fatalf("shards=%d stripe=%d band=%d c0=%d: replicated=%v, oracle %v",
							shards, stripe, band, c, got, want)
					}
				}
			}
		}
	}
}

// TestRouteAuditCatchesStagedOverlap plants staged-side faults the route
// audit must report: a handle listed in both route tables, and a hot stripe's
// buffered entry that the staged route table does not list under that stripe.
func TestRouteAuditCatchesStagedOverlap(t *testing.T) {
	for _, fault := range []string{"routed and staged", "buffered but not staged"} {
		t.Run(fault, func(t *testing.T) {
			e, err := New(WithDims(2), WithEps(10), WithMinPts(3), WithShards(2),
				WithShardStripe(3), WithHotspot(HotspotPolicy{}))
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			defer e.Close()
			ids, err := e.InsertBatch([]Point{{0, 0}, {1, 1}, {2, 2}})
			if err != nil {
				t.Fatalf("InsertBatch: %v", err)
			}
			ss := e.sh
			ss.worldMu.Lock()
			defer ss.worldMu.Unlock()
			if err := ss.auditRoutesLocked(); err != nil {
				t.Fatalf("audit of a clean engine: %v", err)
			}
			ss.routesMu.Lock()
			switch fault {
			case "routed and staged":
				ss.stagedRoutes[ids[0]] = 0
			case "buffered but not staged":
				ss.hs.hot[0] = &hotStripe{ents: []stagedIns{{gid: ids[len(ids)-1] + 1}}}
			}
			ss.routesMu.Unlock()
			if err := ss.auditRoutesLocked(); err == nil {
				t.Fatalf("route audit passed with a handle %s", fault)
			}
		})
	}
}
