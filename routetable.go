package dyndbscan

import (
	"cmp"
	"iter"
	"math/bits"
	"slices"
)

// maxShards is the largest shard count the sharded engine supports: a route
// records its copy set as a uint64 mask (see route).
const maxShards = 64

// Route table pages: a page holds the routes of routePageSlots consecutive
// handles.
const (
	routePageBits  = 9
	routePageSlots = 1 << routePageBits
)

// routePage is one page of the route table. Slot i holds the route of handle
// no<<routePageBits + i; a slot whose mask is zero is dead.
type routePage struct {
	live  int
	slots [routePageSlots]route
}

// routeDirEntry names one in-use page by its page number.
type routeDirEntry struct {
	no int64
	p  *routePage
}

// routeTable maps live handles to their routes. Handles are minted in
// ascending order, so live handles cluster into few pages of consecutive
// handles: the table is a directory of those pages, ascending by page
// number, and a page is freed as soon as its last handle dies — a sliding
// window frees its prefix. The directory holds only in-use pages, so a
// sparse pre-assigned handle (replay, restore) costs one page, never the
// gap before it. Walking the pages in order yields the live handles in
// ascending order, which is what snapshot builds and checkpoints consume.
//
// The table is not synchronized; shardSet guards it with routesMu (see
// shardSet.routes).
type routeTable struct {
	dir []routeDirEntry
	n   int
}

// find returns the directory index of page no, or the index at which it
// would be inserted. While no page before the last has been freed, the
// directory is dense and the index is arithmetic.
func (t *routeTable) find(no int64) (int, bool) {
	if len(t.dir) > 0 {
		if i := no - t.dir[0].no; i >= 0 && i < int64(len(t.dir)) && t.dir[i].no == no {
			return int(i), true
		}
	}
	return slices.BinarySearchFunc(t.dir, no, func(e routeDirEntry, no int64) int { return cmp.Compare(e.no, no) })
}

// get returns the route of a live handle.
func (t *routeTable) get(id PointID) (route, bool) {
	i, ok := t.find(int64(id) >> routePageBits)
	if !ok {
		return route{}, false
	}
	r := t.dir[i].p.slots[id&(routePageSlots-1)]
	return r, r.mask != 0
}

// has reports whether the handle is live.
func (t *routeTable) has(id PointID) bool {
	_, ok := t.get(id)
	return ok
}

// set stores the route of a handle, which becomes live if it was not. The
// route must name at least one copy (a non-zero mask). Overwriting a live
// handle's route never changes the directory, so it is safe inside all.
func (t *routeTable) set(id PointID, r route) {
	no := int64(id) >> routePageBits
	i, ok := t.find(no)
	if !ok {
		t.dir = slices.Insert(t.dir, i, routeDirEntry{no: no, p: new(routePage)})
	}
	p := t.dir[i].p
	slot := &p.slots[id&(routePageSlots-1)]
	if slot.mask == 0 {
		p.live++
		t.n++
	}
	*slot = r
}

// del removes a live handle and reports whether it was live. The handle's
// page is freed when its last live handle goes.
func (t *routeTable) del(id PointID) bool {
	i, ok := t.find(int64(id) >> routePageBits)
	if !ok {
		return false
	}
	p := t.dir[i].p
	slot := &p.slots[id&(routePageSlots-1)]
	if slot.mask == 0 {
		return false
	}
	*slot = route{}
	t.n--
	if p.live--; p.live == 0 {
		t.dir = slices.Delete(t.dir, i, i+1)
	}
	return true
}

// len returns the number of live handles.
func (t *routeTable) len() int { return t.n }

// all yields every live handle and its route in ascending handle order. The
// loop body may overwrite live routes with set, but must not add or delete
// handles.
func (t *routeTable) all() iter.Seq2[PointID, route] {
	return func(yield func(PointID, route) bool) {
		for _, d := range t.dir {
			base := PointID(d.no << routePageBits)
			for j := range d.p.slots {
				if r := d.p.slots[j]; r.mask != 0 {
					if !yield(base+PointID(j), r) {
						return
					}
				}
			}
		}
	}
}

// ids returns the live handles in ascending order.
func (t *routeTable) ids() []PointID {
	out := make([]PointID, 0, t.n)
	for id := range t.all() {
		out = append(out, id)
	}
	return out
}

// shardBit is the copy-mask bit of shard s.
func shardBit(s int32) uint64 { return 1 << uint(s) }

// shardsIn yields the shards of a copy mask in ascending order.
func shardsIn(mask uint64) iter.Seq[int32] {
	return func(yield func(int32) bool) {
		for m := mask; m != 0; m &= m - 1 {
			if !yield(int32(bits.TrailingZeros64(m))) {
				return
			}
		}
	}
}
