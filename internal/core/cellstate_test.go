package core

import (
	"math/rand"
	"testing"
	"unsafe"
)

// TestPointRecSize pins the per-point record at 80 bytes: the core-list node
// it embeds (56) and four words of cell state fill its size class exactly,
// so a field added to it costs 16 bytes per point.
func TestPointRecSize(t *testing.T) {
	if got := unsafe.Sizeof(pointRec{}); got != 80 {
		t.Fatalf("pointRec is %d bytes, want 80", got)
	}
}

// TestCellSize pins the per-cell record to the 160-byte size class.
func TestCellSize(t *testing.T) {
	if got := unsafe.Sizeof(cell{}); got > 160 {
		t.Fatalf("cell is %d bytes, want at most 160", got)
	}
}

// TestStatsWithoutAllocating checks Stats against the point table for every
// algorithm, after deletions where supported, and that it allocates nothing.
func TestStatsWithoutAllocating(t *testing.T) {
	cfg := Config{Dims: 2, Eps: 3, MinPts: 4, Rho: 0.2}
	semi, _ := NewSemiDynamic(cfg)
	full, _ := NewFullyDynamic(cfg)
	inc, _ := NewIncDBSCAN(cfg)
	for _, tc := range []struct {
		name string
		cl   clusterer
		b    *base
	}{{"semi", semi, semi.base}, {"full", full, full.base}, {"inc", inc, inc.base}} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(8))
			var ids []PointID
			for _, p := range genBlobs(rng, 2, 3, 40, 10, 30, 4) {
				id, err := tc.cl.Insert(p)
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
			}
			for _, id := range ids[:len(ids)/3] {
				if err := tc.cl.Delete(id); err != nil && err != ErrDeletesUnsupported {
					t.Fatal(err)
				}
			}
			want := Stats{Points: len(tc.b.points)}
			cells := map[*cell]bool{}
			for _, rec := range tc.b.points {
				cells[rec.cell] = true
				if rec.isCore() {
					want.Cores++
				}
			}
			want.Cells = len(cells)
			for c := range cells {
				if c.coreCount > 0 {
					want.CoreCells++
				}
			}
			if got := tc.b.stats(); got != want || want.Cores == 0 {
				t.Fatalf("Stats = %+v, want %+v", got, want)
			}
			if n := testing.AllocsPerRun(20, func() { tc.b.stats() }); n != 0 {
				t.Fatalf("Stats allocates %v times per call", n)
			}
		})
	}
}

// TestIncDBSCANCellsStayBare: IncDBSCAN answers from range scans, so its
// cells never allocate the paper's per-cell structures.
func TestIncDBSCANCellsStayBare(t *testing.T) {
	ic, _ := NewIncDBSCAN(Config{Dims: 2, Eps: 3, MinPts: 4})
	rng := rand.New(rand.NewSource(4))
	for _, p := range genBlobs(rng, 2, 2, 40, 5, 30, 4) {
		if _, err := ic.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	if ic.Stats().CoreCells == 0 {
		t.Fatal("fixture has no core cell")
	}
	for _, rec := range ic.points {
		c := rec.cell
		if c.coreList != nil || c.count != nil || c.instances != nil || c.edges != nil {
			t.Fatalf("cell %v carries core structures", c.coord.Render(2))
		}
	}
}
