package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"dyndbscan/internal/geom"
)

// detOp is one op of a seeded update stream: an insert of pt, or, when
// del ≥ 0, a delete of the point inserted at stream position del.
type detOp struct {
	pt  geom.Point
	del int
}

// starStream builds, per round, a star: a dense hub with several arms of
// chained points, then deletes the hub so that the cluster falls into one
// fragment per arm. Random inserts and deletes of blob points run between
// the stars, so the grid index rebuilds many times and cells come and go.
func starStream(seed int64, rounds int, deletes bool) []detOp {
	rng := rand.New(rand.NewSource(seed))
	var ops []detOp
	var live []int // insert positions still live
	insert := func(p geom.Point) int {
		ops = append(ops, detOp{pt: p, del: -1})
		live = append(live, len(ops)-1)
		return len(ops) - 1
	}
	remove := func(pos int) {
		ops = append(ops, detOp{del: pos})
		for i, l := range live {
			if l == pos {
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				break
			}
		}
	}
	for r := 0; r < rounds; r++ {
		cx, cy := float64(r%5)*60, float64(r/5)*60
		var hub []int
		for i := 0; i < 8; i++ {
			hub = append(hub, insert(geom.Point{cx + rng.Float64()*0.4, cy + rng.Float64()*0.4}))
		}
		arms := 3 + rng.Intn(3)
		for a := 0; a < arms; a++ {
			ang := 2 * math.Pi * (float64(a) + 0.3*rng.Float64()) / float64(arms)
			for k := 1; k <= 12; k++ {
				d := 1.2 * float64(k)
				for j := 0; j < 3; j++ {
					insert(geom.Point{cx + d*math.Cos(ang) + 0.3*rng.Float64(), cy + d*math.Sin(ang) + 0.3*rng.Float64()})
				}
			}
		}
		for i := 0; i < 40; i++ {
			insert(geom.Point{rng.Float64() * 300, rng.Float64() * 300})
			if deletes && len(live) > 0 && rng.Intn(3) == 0 {
				remove(live[rng.Intn(len(live))])
			}
		}
		if deletes {
			for _, h := range hub {
				stillLive := false
				for _, l := range live {
					stillLive = stillLive || l == h
				}
				if stillLive {
					remove(h)
				}
			}
		}
	}
	return ops
}

// churnStream is a sliding window over seeded blob data: each step inserts
// the next point and, once the window is full, deletes a random live one.
func churnStream(seed int64, n, window int, deletes bool) []detOp {
	rng := rand.New(rand.NewSource(seed))
	pts := genBlobs(rng, 2, 12, n/14, n/7, 120, 6)
	var ops []detOp
	var live []int
	for _, p := range pts {
		ops = append(ops, detOp{pt: p, del: -1})
		live = append(live, len(ops)-1)
		if deletes && len(live) > window {
			k := rng.Intn(len(live))
			ops = append(ops, detOp{del: live[k]})
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	return ops
}

type eventRecorder interface {
	Insert(pt geom.Point) (PointID, error)
	Delete(id PointID) error
	SetEventFunc(fn func(Event))
}

// runStream applies ops to a fresh clusterer and returns its event stream.
func runStream(t *testing.T, cl eventRecorder, ops []detOp) []Event {
	var evs []Event
	cl.SetEventFunc(func(ev Event) { evs = append(evs, ev) })
	ids := make([]PointID, len(ops))
	for i, op := range ops {
		if op.del >= 0 {
			if err := cl.Delete(ids[op.del]); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
			continue
		}
		id, err := cl.Insert(op.pt)
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		ids[i] = id
	}
	return evs
}

// TestSameStreamSameEvents runs one seeded stream twice, on two fresh
// clusterers in one process, and requires identical event streams — the
// same cluster ids formed, merged and split in the same order — for all
// three algorithms. Map iteration order differs between the two runs (Go
// randomizes it per map), so any event order or fresh id that depends on
// it shows up as a difference. The stream's hub deletions split clusters
// into three or more fragments at once.
func TestSameStreamSameEvents(t *testing.T) {
	cfg := Config{Dims: 2, Eps: 1.5, MinPts: 4, Rho: 0.001}
	mk := map[string]func() (eventRecorder, error){
		"FullyDynamic": func() (eventRecorder, error) { return NewFullyDynamic(cfg) },
		"IncDBSCAN":    func() (eventRecorder, error) { return NewIncDBSCAN(cfg) },
		"SemiDynamic":  func() (eventRecorder, error) { return NewSemiDynamic(cfg) },
	}
	for _, name := range []string{"FullyDynamic", "IncDBSCAN", "SemiDynamic"} {
		t.Run(name, func(t *testing.T) {
			deletes := name != "SemiDynamic"
			ops := starStream(7, 15, deletes)
			base := len(ops)
			for _, op := range churnStream(11, 12000, 3000, deletes) {
				if op.del >= 0 {
					op.del += base
				}
				ops = append(ops, op)
			}
			var runs [2][]Event
			for i := range runs {
				cl, err := mk[name]()
				if err != nil {
					t.Fatal(err)
				}
				runs[i] = runStream(t, cl, ops)
			}
			if len(runs[0]) != len(runs[1]) {
				t.Fatalf("event streams have %d and %d events", len(runs[0]), len(runs[1]))
			}
			for i := range runs[0] {
				if !reflect.DeepEqual(runs[0][i], runs[1][i]) {
					t.Fatalf("event %d differs: %+v vs %+v", i, runs[0][i], runs[1][i])
				}
			}
			splits, multi := 0, 0
			for _, ev := range runs[0] {
				if ev.Kind == EventClusterSplit {
					splits++
					if len(ev.Fragments) >= 3 {
						multi++
					}
				}
			}
			switch name {
			case "SemiDynamic":
			case "IncDBSCAN":
				if multi == 0 {
					t.Fatalf("stream gave %d splits, none into three or more fragments", splits)
				}
			default:
				// FullyDynamic reports one two-way split per grid-graph
				// edge cut, so a hub deletion shows as several splits.
				if splits < 2*15 {
					t.Fatalf("stream gave only %d splits", splits)
				}
			}
			t.Logf("%d events, %d splits, %d into three or more fragments", len(runs[0]), splits, multi)
		})
	}
}
