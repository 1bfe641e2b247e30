// Tests for the hardened Engine commit paths: update failure exits must not
// leak backend events into later commits, Snapshot.GroupBy and
// Engine.GroupBy must answer identically on edge-case queries, and
// Close/Sync must compose without deadlock or lost wakeups.
package dyndbscan_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"dyndbscan"
)

// TestFailedUpdateDropsLeakedEvents drives the validation-failure exits of
// the batch update paths with a subscriber attached, on a single-backend and
// a sharded Engine. No failure may advance the version, and none may leave
// events behind: the next successful insert must publish exactly what the
// same insert publishes on an engine that never saw the failures.
func TestFailedUpdateDropsLeakedEvents(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			newSubscribed := func() (*dyndbscan.Engine, func() []dyndbscan.Event) {
				e, err := dyndbscan.New(dyndbscan.WithEps(1), dyndbscan.WithMinPts(1),
					dyndbscan.WithRho(0), dyndbscan.WithShards(shards))
				if err != nil {
					t.Fatal(err)
				}
				var mu sync.Mutex
				var got []dyndbscan.Event
				cancel := e.Subscribe(func(ev dyndbscan.Event) {
					mu.Lock()
					got = append(got, ev)
					mu.Unlock()
				})
				t.Cleanup(func() { cancel(); e.Close() })
				take := func() []dyndbscan.Event {
					e.Sync()
					mu.Lock()
					defer mu.Unlock()
					out := got
					got = nil
					return out
				}
				return e, take
			}

			ref, refTake := newSubscribed()
			if _, err := ref.Insert(dyndbscan.Point{1, 2}); err != nil {
				t.Fatal(err)
			}
			refTake()
			refID, err := ref.Insert(dyndbscan.Point{5, 6})
			if err != nil {
				t.Fatal(err)
			}
			want := refTake()
			if len(want) == 0 {
				t.Fatal("reference insert published no events; the comparison below would be vacuous")
			}

			e, take := newSubscribed()
			id, err := e.Insert(dyndbscan.Point{1, 2})
			if err != nil {
				t.Fatal(err)
			}
			take()
			v := e.Version()
			if err := e.DeleteBatch([]dyndbscan.PointID{id, id + 100}); !errors.Is(err, dyndbscan.ErrUnknownPoint) {
				t.Fatalf("DeleteBatch unknown: %v", err)
			}
			if err := e.DeleteBatch([]dyndbscan.PointID{id, id}); !errors.Is(err, dyndbscan.ErrDuplicateID) {
				t.Fatalf("DeleteBatch dup: %v", err)
			}
			if _, err := e.Apply([]dyndbscan.Op{
				dyndbscan.InsertOp(dyndbscan.Point{3, 4}),
				dyndbscan.DeleteOp(id + 100),
			}); !errors.Is(err, dyndbscan.ErrUnknownPoint) {
				t.Fatalf("Apply unknown delete: %v", err)
			}
			if got := e.Version(); got != v {
				t.Fatalf("failed updates advanced Version from %d to %d", v, got)
			}

			id2, err := e.Insert(dyndbscan.Point{5, 6})
			if err != nil {
				t.Fatal(err)
			}
			if id2 != refID {
				t.Fatalf("insert after the failures minted id %d, reference minted %d", id2, refID)
			}
			if got := take(); !reflect.DeepEqual(got, want) {
				t.Fatalf("insert after the failures published %v, want only its own events %v", got, want)
			}
		})
	}
}

// TestGroupByParity verifies Snapshot.GroupBy and Engine.GroupBy (live-lock
// path) agree on duplicate handles, unknown handles, and their mixes — same
// error, same set-dedup, same canonical Result — on every built-in
// algorithm.
func TestGroupByParity(t *testing.T) {
	algos := []dyndbscan.Algorithm{
		dyndbscan.AlgoFullyDynamic, dyndbscan.AlgoSemiDynamic,
		dyndbscan.AlgoIncDBSCAN,
	}
	for _, algo := range algos {
		t.Run(algo.String(), func(t *testing.T) {
			e, err := dyndbscan.New(
				dyndbscan.WithAlgorithm(algo),
				dyndbscan.WithEps(5), dyndbscan.WithMinPts(3), dyndbscan.WithRho(0),
			)
			if err != nil {
				t.Fatal(err)
			}
			// Two small clusters plus isolated noise.
			var pts []dyndbscan.Point
			for i := 0; i < 6; i++ {
				pts = append(pts, dyndbscan.Point{float64(i % 3), float64(i / 3)})
			}
			for i := 0; i < 6; i++ {
				pts = append(pts, dyndbscan.Point{100 + float64(i%3), float64(i / 3)})
			}
			pts = append(pts, dyndbscan.Point{50, 50}, dyndbscan.Point{-50, 30})
			ids, err := e.InsertBatch(pts)
			if err != nil {
				t.Fatal(err)
			}
			cluster1, cluster2 := ids[0], ids[6]
			noise1, noise2 := ids[12], ids[13]
			unknown := ids[len(ids)-1] + 1000

			cases := []struct {
				name string
				q    []dyndbscan.PointID
				err  error
			}{
				{"empty", nil, nil},
				{"plain", []dyndbscan.PointID{cluster1, cluster2, noise1}, nil},
				{"dup cluster member", []dyndbscan.PointID{cluster1, cluster1, cluster2}, nil},
				{"dup noise", []dyndbscan.PointID{noise1, noise1, noise2}, nil},
				{"all dup", []dyndbscan.PointID{cluster1, cluster1, cluster1}, nil},
				{"unknown only", []dyndbscan.PointID{unknown}, dyndbscan.ErrUnknownPoint},
				{"unknown after valid", []dyndbscan.PointID{cluster1, unknown}, dyndbscan.ErrUnknownPoint},
				{"dup then unknown", []dyndbscan.PointID{noise1, noise1, unknown}, dyndbscan.ErrUnknownPoint},
			}
			for _, tc := range cases {
				t.Run(tc.name, func(t *testing.T) {
					// Live path: a fresh update invalidates the cached
					// snapshot, so Engine.GroupBy must consult the live
					// structure.
					if _, err := e.Insert(dyndbscan.Point{500 + rand.Float64(), 500}); err != nil {
						t.Fatal(err)
					}
					liveRes, liveErr := e.GroupBy(tc.q)
					// Cached path: force the snapshot, then query both the
					// engine (now snapshot-served) and the snapshot itself.
					snap := e.Snapshot()
					cachedRes, cachedErr := e.GroupBy(tc.q)
					snapRes, snapErr := snap.GroupBy(tc.q)

					for name, got := range map[string]error{"live": liveErr, "cached": cachedErr, "snapshot": snapErr} {
						if tc.err == nil && got != nil {
							t.Fatalf("%s path: unexpected error %v", name, got)
						}
						if tc.err != nil && !errors.Is(got, tc.err) {
							t.Fatalf("%s path: error %v, want %v", name, got, tc.err)
						}
					}
					if tc.err != nil {
						return
					}
					if !reflect.DeepEqual(liveRes, snapRes) {
						t.Fatalf("live vs snapshot Result:\nlive: %+v\nsnap: %+v", liveRes, snapRes)
					}
					if !reflect.DeepEqual(cachedRes, snapRes) {
						t.Fatalf("cached vs snapshot Result:\ncached: %+v\nsnap:   %+v", cachedRes, snapRes)
					}
				})
			}
		})
	}
}

// waitDone fails the test if ch does not close within the deadline —
// the deadlock detector for the Close/Sync interaction tests.
func waitDone(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("deadlock: %s did not finish", what)
	}
}

// TestCloseWhileSyncParked closes the engine while Sync is parked on a
// subscriber's delivery barrier (the callback is wedged): Sync must return
// rather than wait forever for events that will never be delivered.
func TestCloseWhileSyncParked(t *testing.T) {
	e, err := dyndbscan.New(dyndbscan.WithEps(5), dyndbscan.WithMinPts(1))
	if err != nil {
		t.Fatal(err)
	}
	block := make(chan struct{})
	entered := make(chan struct{}, 1)
	e.Subscribe(func(dyndbscan.Event) {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-block
	}, dyndbscan.SubscribeBuffer(1))

	// MinPts 1: every insert promotes and emits, wedging the callback on the
	// first event with more queued behind it (and eventually backpressuring
	// the writer itself — hence the goroutine).
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for i := 0; i < 4; i++ {
			if _, err := e.Insert(dyndbscan.Point{float64(i) * 100, 0}); err != nil {
				t.Errorf("insert %d: %v", i, err)
				return
			}
		}
	}()
	<-entered

	syncDone := make(chan struct{})
	go func() {
		defer close(syncDone)
		e.Sync()
	}()
	// Give Sync a moment to park on the barrier, then tear everything down.
	time.Sleep(50 * time.Millisecond)
	e.Close()
	waitDone(t, syncDone, "Sync during Close")
	waitDone(t, writerDone, "backpressured writer during Close")
	close(block)
}

// TestCloseWhilePublisherBackpressured closes the engine while an updater is
// parked in a BlockSubscriber enqueue (the lossless backpressure path): the
// publisher must be released, the update must complete, and a subsequent
// Sync must return immediately.
func TestCloseWhilePublisherBackpressured(t *testing.T) {
	e, err := dyndbscan.New(dyndbscan.WithEps(5), dyndbscan.WithMinPts(1))
	if err != nil {
		t.Fatal(err)
	}
	block := make(chan struct{})
	entered := make(chan struct{}, 1)
	e.Subscribe(func(dyndbscan.Event) {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-block
	}, dyndbscan.SubscribeBuffer(1), dyndbscan.SubscribeOverflow(dyndbscan.BlockSubscriber))

	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		// Enough single-point commits to wedge: callback holds one event,
		// the buffer holds one more, the next publisher parks in Put.
		for i := 0; i < 8; i++ {
			if _, err := e.Insert(dyndbscan.Point{float64(i) * 100, 0}); err != nil {
				t.Errorf("insert %d: %v", i, err)
				return
			}
		}
	}()
	<-entered
	time.Sleep(50 * time.Millisecond) // let the publisher park on the full queue
	e.Close()
	waitDone(t, writerDone, "backpressured publisher during Close")
	close(block)
	e.Sync() // must return immediately: no live subscriptions remain
	if e.Len() != 8 {
		t.Fatalf("Len = %d, want 8 (updates must all have committed)", e.Len())
	}
}
