package core

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"dyndbscan/internal/abcp"
	"dyndbscan/internal/geom"
)

// These tests inject faults into otherwise healthy clusterers and assert the
// auditors actually detect them — guarding against the validators rotting
// into always-green rubber stamps.

func healthyFullyDynamic(t *testing.T) *FullyDynamic {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	f, err := NewFullyDynamic(Config{Dims: 2, Eps: 3, MinPts: 4, Rho: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range genBlobs(rng, 2, 2, 40, 5, 30, 4) {
		if _, err := f.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Audit(); err != nil {
		t.Fatalf("fixture not healthy: %v", err)
	}
	return f
}

// demoteBehindBack gives a core record a non-core position, the one stored
// fact that makes a record core, and leaves every structure as it was.
func demoteBehindBack(f *FullyDynamic) {
	for _, rec := range f.points {
		if rec.isCore() {
			rec.ncIdx = 0
			return
		}
	}
}

func TestAuditDetectsCoreFlagCorruption(t *testing.T) {
	f := healthyFullyDynamic(t)
	demoteBehindBack(f)
	if err := f.Audit(); err == nil {
		t.Fatal("audit missed a corrupted core flag")
	}
}

func TestAuditDetectsForgedCoreFlag(t *testing.T) {
	f := healthyFullyDynamic(t)
	// Promote an isolated noise point behind the structure's back.
	var loner *pointRec
	for _, rec := range f.points {
		if !rec.isCore() {
			loner = rec
			break
		}
	}
	if loner == nil {
		t.Skip("fixture has no non-core point")
	}
	loner.ncIdx = -1
	if err := f.Audit(); err == nil {
		t.Fatal("audit missed a forged core flag")
	}
}

func TestAuditDetectsMissingEdge(t *testing.T) {
	f := healthyFullyDynamic(t)
	// Remove a CC edge while the witness still exists.
	removed := false
	for _, rec := range f.points {
		c := rec.cell
		if c.coreCount == 0 {
			continue
		}
		for other, inst := range c.instances {
			if inst.HasWitness() && f.cc.HasEdge(c.vertexID, other.vertexID) {
				f.cc.DeleteEdge(c.vertexID, other.vertexID)
				removed = true
				break
			}
		}
		if removed {
			break
		}
	}
	if !removed {
		t.Skip("fixture has no witnessed edge")
	}
	if err := f.Audit(); err == nil {
		t.Fatal("audit missed a missing CC edge")
	}
}

func TestAuditDetectsCounterDrift(t *testing.T) {
	f := healthyFullyDynamic(t)
	for _, rec := range f.points {
		if rec.cell.coreCount > 0 {
			rec.cell.coreCount++
			break
		}
	}
	if err := f.Audit(); err == nil {
		t.Fatal("audit missed core counter drift")
	}
}

func TestSemiAuditDetectsVincntDrift(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s, err := NewSemiDynamic(Config{Dims: 2, Eps: 3, MinPts: 4, Rho: 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range genBlobs(rng, 2, 2, 40, 5, 30, 4) {
		if _, err := s.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Audit(); err != nil {
		t.Fatalf("fixture not healthy: %v", err)
	}
	for _, rec := range s.points {
		if !rec.isCore() {
			rec.vincnt++
			break
		}
	}
	if err := s.Audit(); err == nil {
		t.Fatal("audit missed vincnt drift")
	}
}

func TestDynconValidateDetectsFlagCorruption(t *testing.T) {
	f := healthyFullyDynamic(t)
	// Corrupt a loop-node aggregate inside the connectivity structure by
	// inserting an edge record inconsistency: delete from the edge map only.
	// (Reach into dyncon via its own Validate test instead — here we check
	// the audit chain end-to-end by breaking vertex bookkeeping.)
	var victim *cell
	for _, rec := range f.points {
		if rec.cell.coreCount > 0 {
			victim = rec.cell
			break
		}
	}
	if victim == nil {
		t.Skip("no core cell")
	}
	victim.vertexID = victim.vertexID + 100000 // dangling vertex reference
	if err := f.Audit(); err == nil {
		t.Fatal("audit missed dangling vertex id")
	}
}

// TestAuditCatchesWrongCellAssignment moves a point record between cells.
func TestAuditCatchesWrongCellAssignment(t *testing.T) {
	f := healthyFullyDynamic(t)
	var a, b *cell
	for _, rec := range f.points {
		if a == nil {
			a = rec.cell
		} else if rec.cell != a {
			b = rec.cell
			break
		}
	}
	if b == nil {
		t.Skip("single-cell fixture")
	}
	// Swap one record's cell pointer without moving the point.
	for _, rec := range f.points {
		if rec.cell == a {
			rec.cell = b
			break
		}
	}
	if err := f.Audit(); err == nil {
		t.Fatal("audit missed wrong cell assignment")
	}
}

// TestAuditErrorMessages ensures audit failures carry actionable text.
func TestAuditErrorMessages(t *testing.T) {
	f := healthyFullyDynamic(t)
	demoteBehindBack(f)
	err := f.Audit()
	if err == nil || !strings.Contains(err.Error(), "audit:") {
		t.Fatalf("audit error unhelpful: %v", err)
	}
}

// TestAuditOnEmpty: auditing empty structures must succeed.
func TestAuditOnEmpty(t *testing.T) {
	f, _ := NewFullyDynamic(Config{Dims: 2, Eps: 1, MinPts: 2})
	if err := f.Audit(); err != nil {
		t.Fatal(err)
	}
	s, _ := NewSemiDynamic(Config{Dims: 2, Eps: 1, MinPts: 2})
	if err := s.Audit(); err != nil {
		t.Fatal(err)
	}
	id, _ := f.Insert(geom.Point{0, 0})
	_ = f.Delete(id)
	if err := f.Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestAuditDetectsStrayCoreStructures(t *testing.T) {
	f := healthyFullyDynamic(t)
	var bare *cell
	for _, rec := range f.points {
		if rec.cell.coreCount == 0 {
			bare = rec.cell
			break
		}
	}
	if bare == nil {
		t.Skip("fixture has no non-core cell")
	}
	bare.coreList = abcp.NewList(2, f.cfg.Eps, f.rUp)
	if err := f.Audit(); err == nil || !strings.Contains(err.Error(), "list=true") {
		t.Fatalf("audit missed a core list on a non-core cell: %v", err)
	}
}

// TestAuditDetectsMislinkedNodes: both audits must notice a core record
// whose node is linked into an ε-close core cell's list instead of its own,
// and a non-core record whose node is linked into its cell's list. In the
// first case two core cells trade one node each, so that the list lengths
// still match the core counts and only the membership rule can catch it.
func TestAuditDetectsMislinkedNodes(t *testing.T) {
	cfg := Config{Dims: 2, Eps: 3, MinPts: 4, Rho: 0.2}
	for _, tc := range []struct {
		name    string
		corrupt func(b *base) bool
		want    string
	}{
		{"core node in a neighbour's list", func(b *base) bool {
			for _, rec := range b.points {
				for _, ln := range rec.cell.neighbors {
					if rec.isCore() && ln.eps && ln.c.coreCount > 0 {
						mine, theirs := rec.cell.coreList, ln.c.coreList
						na, nb := mine.Head(), theirs.Head()
						mine.Remove(na)
						theirs.Remove(nb)
						mine.Append(nb)
						theirs.Append(na)
						return true
					}
				}
			}
			return false
		}, "not linked into its cell's core list"},
		{"non-core node in its cell's list", func(b *base) bool {
			for _, rec := range b.points {
				if !rec.isCore() && rec.cell.coreCount > 0 {
					rec.cell.coreList.Append(&rec.Node)
					return true
				}
			}
			return false
		}, "non-core point"},
	} {
		full, _ := NewFullyDynamic(cfg)
		semi, _ := NewSemiDynamic(cfg)
		for _, cl := range []struct {
			name string
			c    interface {
				clusterer
				Audit() error
			}
			b *base
		}{{"FullyDynamic", full, full.base}, {"SemiDynamic", semi, semi.base}} {
			// Blobs, then a tight cluster with a core point at x = 102.2 and
			// a border point at x = 103.8 in the same cell (side ε/√2).
			pts := genBlobs(rand.New(rand.NewSource(5)), 2, 2, 40, 5, 30, 4)
			for _, x := range []float64{100, 100.01, 100.02, 100.03, 102.2, 103.8} {
				pts = append(pts, geom.Point{x, 100.5})
			}
			for _, p := range pts {
				if _, err := cl.c.Insert(p); err != nil {
					t.Fatal(err)
				}
			}
			if err := cl.c.Audit(); err != nil {
				t.Fatalf("%s: %s: fixture not healthy: %v", tc.name, cl.name, err)
			}
			if !tc.corrupt(cl.b) {
				t.Fatalf("%s: %s: fixture has no record to corrupt", tc.name, cl.name)
			}
			if err := cl.c.Audit(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: %s audit missed it: %v", tc.name, cl.name, err)
			}
		}
	}
}

// TestAuditDetectsCoreListCorruption: both audits must notice a chunk box
// that misses one of its nodes and a chunk whose recorded size is wrong.
func TestAuditDetectsCoreListCorruption(t *testing.T) {
	cfg := Config{Dims: 2, Eps: 3, MinPts: 4, Rho: 0.2}
	for _, tc := range []struct {
		name    string
		corrupt func(n *abcp.Node)
		want    string
	}{
		{"box misses a node", func(n *abcp.Node) { chunkField(n, "box").Index(0).SetFloat(n.Pt[0] + 1) }, "outside its chunk's box"},
		{"wrong chunk size", func(n *abcp.Node) { size := chunkField(n, "n"); size.SetInt(size.Int() + 1) }, "core list"},
	} {
		full, _ := NewFullyDynamic(cfg)
		semi, _ := NewSemiDynamic(cfg)
		for _, cl := range []interface {
			clusterer
			Audit() error
		}{full, semi} {
			rng := rand.New(rand.NewSource(5))
			for _, p := range genBlobs(rng, 2, 2, 40, 5, 30, 4) {
				if _, err := cl.Insert(p); err != nil {
					t.Fatal(err)
				}
			}
			if err := cl.Audit(); err != nil {
				t.Fatalf("%s: fixture not healthy: %v", tc.name, err)
			}
		}
		for _, b := range []*base{full.base, semi.base} {
			var list *abcp.List
			for _, rec := range b.points {
				if rec.isCore() {
					list = rec.cell.coreList
					break
				}
			}
			if list == nil {
				t.Fatalf("%s: fixture has no core cell", tc.name)
			}
			tc.corrupt(list.Head())
		}
		if err := full.Audit(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: FullyDynamic audit missed it: %v", tc.name, err)
		}
		if err := semi.Audit(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: SemiDynamic audit missed it: %v", tc.name, err)
		}
	}
}

// chunkField returns a settable view of an unexported field of the chunk
// holding n, so a test can plant the damage a bookkeeping bug in the core
// list would leave; the list's exported surface cannot produce it.
func chunkField(n *abcp.Node, name string) reflect.Value {
	f := reflect.ValueOf(n).Elem().FieldByName("chunk").Elem().FieldByName(name)
	return reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
}

// TestAuditDetectsIdleLinkCorruption: the audit must notice an instance
// without a witness whose links are not marked idle, a witnessed instance
// marked idle, and an idle mark on one twin only.
func TestAuditDetectsIdleLinkCorruption(t *testing.T) {
	// Three tight core clusters on a line, 2.5 apart: a–m and m–b are within
	// ε, so their instances hold witnesses; a and b lie in ε-close cells
	// (box distance one cell side) but 5 > (1+ρ)ε apart, so their instance
	// has none.
	fixture := func(t *testing.T) (f *FullyDynamic, a, m, b *cell) {
		t.Helper()
		f, err := NewFullyDynamic(Config{Dims: 2, Eps: 3, MinPts: 4, Rho: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		var cells [3]*cell
		for i, x := range []float64{0.5, 3, 5.5} {
			for j := 0; j < 4; j++ {
				id, err := f.Insert(geom.Point{x + 0.01*float64(j), 1})
				if err != nil {
					t.Fatal(err)
				}
				cells[i] = f.points[id].cell
			}
		}
		if err := f.Audit(); err != nil {
			t.Fatalf("fixture not healthy: %v", err)
		}
		a, m, b = cells[0], cells[1], cells[2]
		if a.instances[b] == nil || a.instances[b].HasWitness() || !a.instances[m].HasWitness() {
			t.Fatal("fixture lacks a witness-less and a witnessed instance")
		}
		return f, a, m, b
	}
	t.Run("missing", func(t *testing.T) {
		f, a, _, b := fixture(t)
		a.setIdle(a.linkTo(b), false)
		if err := f.Audit(); err == nil || !strings.Contains(err.Error(), "no witness but its link is not idle") {
			t.Fatalf("audit missed a witness-less instance left unmarked: %v", err)
		}
	})
	t.Run("stale", func(t *testing.T) {
		f, a, m, _ := fixture(t)
		a.setIdle(a.linkTo(m), true)
		if err := f.Audit(); err == nil || !strings.Contains(err.Error(), "marks a witnessed instance idle") {
			t.Fatalf("audit missed a witnessed instance marked idle: %v", err)
		}
	})
	t.Run("one-sided", func(t *testing.T) {
		f, a, _, b := fixture(t)
		b.neighbors[b.linkTo(a)].idle = false
		if err := f.Audit(); err == nil || !strings.Contains(err.Error(), "one-sided") {
			t.Fatalf("audit missed an idle mark on one twin only: %v", err)
		}
	})
}
