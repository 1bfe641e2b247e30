package core

import (
	"math/rand"
	"testing"

	"dyndbscan/internal/geom"
	"dyndbscan/internal/grid"
)

// cellCensus is one cell's observable state: its resident and core counts.
type cellCensus struct{ pts, cores int }

// census reads every occupied cell of b.
func census(b *base) map[grid.Coord]cellCensus {
	out := make(map[grid.Coord]cellCensus, b.idx.Len())
	b.idx.ForEach(func(coord grid.Coord, c *cell) bool {
		out[coord] = cellCensus{len(c.pts), int(c.coreCount)}
		return true
	})
	return out
}

// TestChangeRecord checks the change record against a census diff after every
// update of a random insert/delete run, on every algorithm: the record names
// exactly the cells whose census changed (created and destroyed cells
// included), marks Core exactly the cells whose core count crossed zero, and
// a second take is empty.
func TestChangeRecord(t *testing.T) {
	cfg := Config{Dims: 2, Eps: 3, MinPts: 4, Rho: 0.2}
	type algo struct {
		name    string
		c       clusterer
		b       *base
		deletes bool
	}
	fd, _ := NewFullyDynamic(cfg)
	sd, _ := NewSemiDynamic(cfg)
	ic, _ := NewIncDBSCAN(cfg)
	fdExact, _ := NewFullyDynamic(Config{Dims: 2, Eps: 3, MinPts: 4})
	for _, a := range []algo{
		{"FullyDynamic", fd, fd.base, true},
		{"FullyDynamicRho0", fdExact, fdExact.base, true},
		{"SemiDynamic", sd, sd.base, false},
		{"IncDBSCAN", ic, ic.base, true},
	} {
		t.Run(a.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			var live []PointID
			var chg []CellChange
			before := census(a.b)
			for step := 0; step < 3000; step++ {
				if a.deletes && len(live) > 0 && rng.Intn(5) < 2 {
					k := rng.Intn(len(live))
					if err := a.c.Delete(live[k]); err != nil {
						t.Fatal(err)
					}
					live[k] = live[len(live)-1]
					live = live[:len(live)-1]
				} else {
					// A 40×40 box: dense enough for cores, sparse enough
					// that cells empty out and are destroyed.
					id, err := a.c.Insert(geom.Point{rng.Float64() * 40, rng.Float64() * 40})
					if err != nil {
						t.Fatal(err)
					}
					live = append(live, id)
				}
				after := census(a.b)
				chg = a.b.TakeChanges(chg[:0])
				rec := make(map[grid.Coord]bool, len(chg))
				for _, ch := range chg {
					if _, dup := rec[ch.Coord]; dup {
						t.Fatalf("step %d: cell %v recorded twice", step, ch.Coord.Render(2))
					}
					rec[ch.Coord] = ch.Core
				}
				changed := make(map[grid.Coord]struct{})
				for coord, was := range before {
					if after[coord] != was {
						changed[coord] = struct{}{}
					}
				}
				for coord := range after {
					if _, had := before[coord]; !had {
						changed[coord] = struct{}{}
					}
				}
				for coord := range changed {
					core, ok := rec[coord]
					if !ok {
						t.Fatalf("step %d: cell %v changed %+v → %+v but is not in the record",
							step, coord.Render(2), before[coord], after[coord])
					}
					crossed := (before[coord].cores > 0) != (after[coord].cores > 0)
					if core != crossed {
						t.Fatalf("step %d: cell %v cores %d → %d, Core mark %v",
							step, coord.Render(2), before[coord].cores, after[coord].cores, core)
					}
				}
				for coord := range rec {
					if _, ok := changed[coord]; !ok {
						t.Fatalf("step %d: cell %v recorded but unchanged", step, coord.Render(2))
					}
				}
				if again := a.b.TakeChanges(nil); len(again) != 0 {
					t.Fatalf("step %d: second take returned %d entries", step, len(again))
				}
				before = after
			}
		})
	}
}
