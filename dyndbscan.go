// Package dyndbscan maintains density-based (DBSCAN) clusters over a
// dynamic set of points, implementing "Dynamic Density Based Clustering"
// (Gan & Tao, SIGMOD 2017) behind a service-ready Engine API.
//
// # Overview
//
// Classical DBSCAN defines clusters by transitivity of proximity: a point is
// a core point when at least MinPts points lie within distance Eps of it,
// core points within Eps of each other share a cluster, and non-core points
// join the clusters of the core points near them. Maintaining such clusters
// under updates is hard because one insertion can merge many clusters and
// one deletion can split a cluster apart.
//
// The paper's approach — reproduced here in full — maintains a grid graph
// over "core cells" of a grid with cell side Eps/√d and reduces cluster
// maintenance to dynamic graph connectivity, giving near-constant amortized
// update cost and C-group-by queries in time proportional to the query size.
//
// # Quick start
//
// Engine is the entry point; construct one with New and
// functional options:
//
//	e, err := dyndbscan.New(
//		dyndbscan.WithEps(10),
//		dyndbscan.WithMinPts(5),
//	)
//	if err != nil { ... }
//	ids, _ := e.InsertBatch([]dyndbscan.Point{{1, 2}, {2, 3}})
//	res, _ := e.GroupBy(ids)
//	if res.SameGroup(ids[0], ids[1]) { ... }
//
// Beyond single-point Insert/Delete and the paper's C-group-by query, the
// Engine offers:
//
//   - InsertBatch / DeleteBatch / Apply — amortize locking and validation
//     across a batch of updates (the natural unit for a service ingesting
//     streams); Apply commits a mixed insert/delete batch as one epoch.
//     Batch pre-processing (validation, grid assignment) runs in parallel
//     across WithWorkers goroutines before the serialized commit.
//   - Stable cluster identities — ClusterOf, Members, and versioned
//     Snapshots name clusters by ClusterID values that survive every update
//     that does not merge or split the cluster.
//   - Subscribe — an asynchronous change-event stream (ClusterFormed /
//     ClusterMerged / ClusterSplit / ClusterDissolved / PointBecameCore /
//     PointBecameNoise) emitted as updates reshape the clustering, with
//     per-subscriber buffering and overflow policies; Sync is the delivery
//     barrier.
//   - Thread safety, with a lock-free read path: once a
//     snapshot exists for the current version, Snapshot / ClusterOf /
//     Members / Version / GroupBy / GroupAll touch no lock at all.
//
// # Choosing an algorithm
//
// WithAlgorithm selects among three algorithms:
//
//   - AlgoFullyDynamic (default): fully dynamic ρ-double-approximate DBSCAN
//     with O~(1) amortized insertion and deletion (Theorem 4). With Rho = 0
//     in 2D it maintains exact DBSCAN clusters.
//   - AlgoSemiDynamic: insertion-only ρ-approximate DBSCAN with O~(1)
//     amortized insertion (Theorem 1); deletions are rejected.
//   - AlgoIncDBSCAN: the incremental exact DBSCAN of Ester et al. (1998),
//     the baseline the paper compares against; deletions can trigger
//     cluster-wide searches.
//
// The approximation parameter Rho trades a sliver of precision near the
// Eps boundary for dramatically better update complexity; the paper
// recommends Rho = 0.001 (the default), at which the result is virtually
// always identical to exact DBSCAN (formally: identical whenever the exact
// clustering is stable under perturbing Eps by a factor 1+Rho).
//
// These three are the only backends an Engine runs; there is no hook for a
// caller-supplied clusterer.
package dyndbscan

import (
	"dyndbscan/internal/core"
	"dyndbscan/internal/geom"
)

// Point is a point in R^d. It must carry at least Config.Dims coordinates;
// extra coordinates are ignored.
type Point = geom.Point

// PointID is the stable handle returned by Insert and consumed by Delete and
// GroupBy.
type PointID = core.PointID

// Config carries the DBSCAN parameters, as Engine.Config reports them; New
// takes them through WithDims, WithEps, WithMinPts, and WithRho.
//
// Dims is the dimensionality d (1..8; the paper evaluates 2, 3, 5, 7).
// Eps is the density radius ε. MinPts is the density threshold. Rho is the
// approximation parameter ρ ≥ 0; 0 requests exact semantics.
type Config = core.Config

// Result is the answer to a C-group-by query: the queried points grouped by
// cluster, plus the queried points that belong to no cluster (noise). A
// non-core point on the border of several clusters appears in several
// groups.
type Result = core.Result

// Errors returned by the Engine's update and query paths.
var (
	ErrDeletesUnsupported = core.ErrDeletesUnsupported
	ErrUnknownPoint       = core.ErrUnknownPoint
	ErrBadPoint           = core.ErrBadPoint
)

// Static clustering oracle.

// StaticClustering is the output of the offline exact DBSCAN oracle.
type StaticClustering = core.StaticClustering

// StaticDBSCAN computes the exact DBSCAN clustering of pts offline. It is
// quadratic in dense neighborhoods and intended for validation and small
// data, not production workloads — that is what the dynamic clusterers are
// for.
func StaticDBSCAN(pts []Point, dims int, eps float64, minPts int) *StaticClustering {
	return core.StaticDBSCAN(pts, dims, eps, minPts)
}
