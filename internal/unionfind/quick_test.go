package unionfind

import (
	"slices"
	"testing"
	"testing/quick"
)

// TestQuickEquivalenceRelation: for any sequence of unions, Same must be an
// equivalence relation consistent with the transitive closure of the pairs.
func TestQuickEquivalenceRelation(t *testing.T) {
	f := func(pairs []uint16, probes []uint16) bool {
		const n = 64
		u := New(n)
		closure := make([][]bool, n)
		for i := range closure {
			closure[i] = make([]bool, n)
			closure[i][i] = true
		}
		for i := 0; i+1 < len(pairs); i += 2 {
			a, b := int(pairs[i]%n), int(pairs[i+1]%n)
			u.Union(a, b)
			// Naive closure update.
			for x := 0; x < n; x++ {
				if !closure[x][a] {
					continue
				}
				for y := 0; y < n; y++ {
					if closure[y][b] {
						for z := 0; z < n; z++ {
							if closure[x][z] || closure[y][z] {
								closure[x][z], closure[z][x] = true, true
								closure[y][z], closure[z][y] = true, true
							}
						}
					}
				}
			}
			// Keep closure symmetric-transitive by propagating once more.
			for x := 0; x < n; x++ {
				if closure[a][x] {
					closure[b][x], closure[x][b] = true, true
				}
				if closure[b][x] {
					closure[a][x], closure[x][a] = true, true
				}
			}
		}
		// Recompute the closure from scratch (simple Floyd-Warshall pass) to
		// avoid the incremental update being the thing under test.
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				if !closure[i][k] {
					continue
				}
				for j := 0; j < n; j++ {
					if closure[k][j] {
						closure[i][j] = true
					}
				}
			}
		}
		for i := 0; i+1 < len(probes); i += 2 {
			x, y := int(probes[i]%n), int(probes[i+1]%n)
			if u.Same(x, y) != closure[x][y] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSetsCount: the number of sets always equals n minus the number
// of successful unions.
func TestQuickSetsCount(t *testing.T) {
	f := func(pairs []uint16) bool {
		const n = 128
		u := New(n)
		merges := 0
		for i := 0; i+1 < len(pairs); i += 2 {
			if u.Union(int(pairs[i]%n), int(pairs[i+1]%n)) {
				merges++
			}
		}
		return u.Sets() == n-merges
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRootReadOnly: after any sequence of unions, Root names the same
// representative as Find for every element, writes nothing to the forest,
// and walks at most log2(n) parent links (union by rank alone bounds the
// height).
func TestQuickRootReadOnly(t *testing.T) {
	f := func(pairs []uint16) bool {
		const n, maxDepth = 64, 6 // log2(n)
		u := New(n)
		for i := 0; i+1 < len(pairs); i += 2 {
			u.Union(int(pairs[i]%n), int(pairs[i+1]%n))
		}
		before := slices.Clone(u.parent)
		roots := make([]int, n)
		for x := range n {
			roots[x] = u.Root(x)
			depth := 0
			for y := x; int(u.parent[y]) != y; y = int(u.parent[y]) {
				depth++
			}
			if depth > maxDepth {
				return false
			}
		}
		if !slices.Equal(before, u.parent) {
			return false
		}
		for x := range n {
			if roots[x] != u.Find(x) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
