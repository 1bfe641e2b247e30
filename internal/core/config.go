// Package core implements the paper's contribution: dynamic density-based
// clustering with C-group-by queries (Gan & Tao, SIGMOD 2017). It contains
// the grid-graph framework of Section 4 and its three dynamic instantiations:
//
//   - SemiDynamic — the insertion-only ρ-approximate DBSCAN algorithm of
//     Section 5 (Theorem 1); with ρ = 0 in 2D it is the paper's 2d-Semi-Exact.
//   - FullyDynamic — the ρ-double-approximate DBSCAN algorithm of Section 7
//     (Theorem 4); with ρ = 0 in 2D it is the paper's 2d-Full-Exact.
//   - IncDBSCAN — the incremental exact DBSCAN of Ester et al. [8], the
//     state-of-the-art baseline the paper compares against (Section 3).
//
// A brute-force static oracle (StaticDBSCAN) defines ground truth for tests.
package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"dyndbscan/internal/geom"
)

// PointID is the stable handle of an inserted point.
type PointID = int64

// Config carries the clustering parameters shared by every DBSCAN variant in
// the paper: ε, MinPts, the approximation parameter ρ (0 = exact semantics),
// and the dimensionality.
type Config struct {
	// Dims is the dimensionality d, in [1, geom.MaxDims].
	Dims int
	// Eps is the radius ε of DBSCAN's density ball; must be positive.
	Eps float64
	// MinPts is the density threshold; must be ≥ 1.
	MinPts int
	// Rho is the approximation parameter ρ ≥ 0. The paper recommends 0.001
	// for practical data; ρ = 0 degenerates to exact DBSCAN semantics.
	Rho float64
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Dims < 1 || c.Dims > geom.MaxDims {
		return fmt.Errorf("core: Dims=%d out of range [1,%d]", c.Dims, geom.MaxDims)
	}
	if !(c.Eps > 0) || math.IsInf(c.Eps, 0) {
		return fmt.Errorf("core: Eps=%v must be positive and finite", c.Eps)
	}
	if c.MinPts < 1 {
		return fmt.Errorf("core: MinPts=%d must be ≥ 1", c.MinPts)
	}
	if c.Rho < 0 || math.IsNaN(c.Rho) || math.IsInf(c.Rho, 0) {
		return fmt.Errorf("core: Rho=%v must be ≥ 0 and finite", c.Rho)
	}
	return nil
}

// Errors returned by the clusterers.
var (
	// ErrDeletesUnsupported is returned by Delete on semi-dynamic
	// (insertion-only) clusterers; Theorem 2 shows why deletions cannot be
	// supported efficiently under plain ρ-approximate semantics.
	ErrDeletesUnsupported = errors.New("core: semi-dynamic clusterer does not support deletions")
	// ErrUnknownPoint is returned when an operation references a PointID
	// that was never inserted or has been deleted.
	ErrUnknownPoint = errors.New("core: unknown point id")
	// ErrLivePoint is returned when an insertion names a PointID that is
	// already live.
	ErrLivePoint = errors.New("core: point id already live")
	// ErrBadPoint is returned when a point has the wrong dimensionality or
	// non-finite coordinates.
	ErrBadPoint = errors.New("core: point has wrong dimension or non-finite coordinates")
)

// Result is the answer of a C-group-by query: the points of Q grouped by the
// clusters of the current clustering C(P). A non-core point may belong to
// several clusters and therefore appear in several groups; points of Q in no
// cluster are noise.
type Result struct {
	Groups [][]PointID
	Noise  []PointID
}

// Normalize sorts members within groups, groups lexicographically, and
// noise — making results canonical and comparable across query paths (live
// structure vs snapshot) and in tests.
func (r *Result) Normalize() {
	for _, g := range r.Groups {
		sort.Slice(g, func(i, j int) bool { return g[i] < g[j] })
	}
	// Lexicographic group order: a border point in several clusters makes
	// the smallest member alone an ambiguous key.
	sort.Slice(r.Groups, func(i, j int) bool {
		gi, gj := r.Groups[i], r.Groups[j]
		for k := 0; k < len(gi) && k < len(gj); k++ {
			if gi[k] != gj[k] {
				return gi[k] < gj[k]
			}
		}
		return len(gi) < len(gj)
	})
	sort.Slice(r.Noise, func(i, j int) bool { return r.Noise[i] < r.Noise[j] })
}

// SameGroup reports whether points a and b appear together in some group of
// the result (the "are stocks X, Y in the same cluster?" primitive from the
// paper's introduction).
func (r *Result) SameGroup(a, b PointID) bool {
	for _, g := range r.Groups {
		var hasA, hasB bool
		for _, id := range g {
			hasA = hasA || id == a
			hasB = hasB || id == b
		}
		if hasA && hasB {
			return true
		}
	}
	return false
}

// checkPoint validates an input point against the configuration.
func checkPoint(pt geom.Point, dims int) error {
	if len(pt) < dims {
		return ErrBadPoint
	}
	for i := 0; i < dims; i++ {
		if math.IsNaN(pt[i]) || math.IsInf(pt[i], 0) {
			return ErrBadPoint
		}
	}
	return nil
}
