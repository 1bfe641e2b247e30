package dyndbscan

import (
	"math/rand"
	"slices"
	"testing"
)

// checkRouteTable compares the table against its map model: length, page
// count (exactly the distinct pages the live handles occupy — a page with no
// live handle must have been freed), and ascending iteration with every
// route intact.
func checkRouteTable(t *testing.T, step int, tab *routeTable, model map[PointID]route) {
	t.Helper()
	if tab.len() != len(model) {
		t.Fatalf("step %d: len = %d, model %d", step, tab.len(), len(model))
	}
	pages := make(map[int64]bool)
	want := make([]PointID, 0, len(model))
	for id := range model {
		pages[int64(id)>>routePageBits] = true
		want = append(want, id)
	}
	if len(tab.dir) != len(pages) {
		t.Fatalf("step %d: %d pages in use, live handles occupy %d", step, len(tab.dir), len(pages))
	}
	slices.Sort(want)
	i := 0
	for id, r := range tab.all() {
		if i >= len(want) || id != want[i] {
			t.Fatalf("step %d: iteration yields %d at position %d, want %v", step, id, i, want[i:min(i+1, len(want))])
		}
		if r != model[id] {
			t.Fatalf("step %d: iteration yields route %+v for %d, model %+v", step, r, id, model[id])
		}
		i++
	}
	if i != len(want) {
		t.Fatalf("step %d: iteration yields %d handles, model %d", step, i, len(want))
	}
	if ids := tab.ids(); !slices.Equal(ids, want) {
		t.Fatalf("step %d: ids() = %v, want %v", step, ids, want)
	}
}

// TestRouteTableModel property-tests the route table against a map model
// under random minted inserts, deletes, route rewrites and forced handles —
// sparse ones far past the mint counter included, whose gap must cost
// nothing.
func TestRouteTableModel(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var tab routeTable
		model := make(map[PointID]route)
		var next PointID
		randRoute := func() route {
			owner := int32(rng.Intn(maxShards))
			return route{
				col:   int32(rng.Intn(2000) - 1000),
				owner: owner,
				mask:  shardBit(owner) | rng.Uint64()&rng.Uint64(),
			}
		}
		live := func() (PointID, bool) {
			// A random live handle; map order is random enough for a model.
			for id := range model {
				return id, true
			}
			return 0, false
		}
		for step := 0; step < 4000; step++ {
			switch op := rng.Intn(10); {
			case op < 4: // minted insert
				r := randRoute()
				tab.set(next, r)
				model[next] = r
				next++
			case op < 7: // delete a live handle
				if id, ok := live(); ok {
					if !tab.del(id) {
						t.Fatalf("step %d: del(%d) of a live handle reported false", step, id)
					}
					delete(model, id)
				}
			case op < 8: // rewrite a live route in place
				if id, ok := live(); ok {
					r := randRoute()
					tab.set(id, r)
					model[id] = r
				}
			case op < 9: // forced handle: near the counter or far past it
				id := next + PointID(rng.Intn(3*routePageSlots))
				if rng.Intn(4) == 0 {
					id = PointID(1)<<(40+rng.Intn(22)) + PointID(rng.Intn(routePageSlots))
				}
				if _, dup := model[id]; dup {
					continue
				}
				r := randRoute()
				tab.set(id, r)
				model[id] = r
				if id >= next && id < next+1<<20 {
					next = id + 1
				}
			default: // probe: a dead handle reads as dead
				id := PointID(rng.Int63n(int64(next) + 1))
				r, ok := tab.get(id)
				mr, mok := model[id]
				if ok != mok || r != mr {
					t.Fatalf("step %d: get(%d) = %+v,%v, model %+v,%v", step, id, r, ok, mr, mok)
				}
				if !mok && tab.del(id) {
					t.Fatalf("step %d: del(%d) of a dead handle reported true", step, id)
				}
			}
			if step%97 == 0 {
				checkRouteTable(t, step, &tab, model)
			}
		}
		checkRouteTable(t, -1, &tab, model)
		for id := range model {
			tab.del(id)
		}
		if tab.len() != 0 || len(tab.dir) != 0 {
			t.Fatalf("seed %d: emptied table holds %d handles in %d pages", seed, tab.len(), len(tab.dir))
		}
	}
}

// TestRouteTableSlidingWindow: a window of 30k live handles sliding over ten
// times its width keeps the page count at the window's span, because each
// page is freed when its last handle dies.
func TestRouteTableSlidingWindow(t *testing.T) {
	const window = 30000
	const bound = window/routePageSlots + 2
	var tab routeTable
	for id := PointID(0); id < 10*window; id++ {
		tab.set(id, route{col: int32(id % 7), owner: 1, mask: 0b11})
		if id >= window {
			if !tab.del(id - window) {
				t.Fatalf("del(%d) of a live handle reported false", id-window)
			}
		}
		if len(tab.dir) > bound {
			t.Fatalf("after handle %d: %d pages in use, bound %d", id, len(tab.dir), bound)
		}
	}
	if tab.len() != window {
		t.Fatalf("len = %d, want %d", tab.len(), window)
	}
	first, ok := PointID(-1), false
	for id := range tab.all() {
		first, ok = id, true
		break
	}
	if !ok || first != 9*window {
		t.Fatalf("oldest live handle = %d, want %d", first, 9*window)
	}
}
