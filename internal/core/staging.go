package core

import (
	"dyndbscan/internal/geom"
	"dyndbscan/internal/grid"
)

// StagedPoint is a point that has completed the pre-commit phase of an
// insertion: validated, cloned to its configured dimensionality, and assigned
// the coordinate of the grid cell it will land in. Staging captures exactly
// the per-point work that does not read or write the clusterer's state, so a
// facade can fan it out across worker goroutines and feed the results to
// InsertStaged inside the serialized commit phase.
type StagedPoint struct {
	pt    geom.Point
	coord grid.Coord
}

// Point returns the staged (cloned, dims-length) coordinates.
func (sp StagedPoint) Point() geom.Point { return sp.pt }

// Coord returns the grid cell the staged point will land in — the routing
// key of the sharded serving layer.
func (sp StagedPoint) Coord() grid.Coord { return sp.coord }

// Stager performs the state-independent part of an insertion: validation,
// coordinate cloning, and grid cell assignment. A Stager is an immutable
// value, safe for concurrent use from any number of goroutines.
//
// The Stager must be built from the same Config as the clusterer that will
// consume its StagedPoints: the grid geometry is derived from Dims and Eps,
// and a mismatched coordinate would corrupt the grid index.
type Stager struct {
	dims int
	geo  grid.Params
}

// NewStager returns the stager for cfg. cfg must be valid (see
// Config.Validate); the constructors of the clusterers already enforce this.
func NewStager(cfg Config) Stager {
	return Stager{dims: cfg.Dims, geo: grid.NewParams(cfg.Dims, cfg.Eps)}
}

// Stage validates pt and returns it staged for insertion. The input slice is
// not retained.
func (st Stager) Stage(pt geom.Point) (StagedPoint, error) {
	if err := checkPoint(pt, st.dims); err != nil {
		return StagedPoint{}, err
	}
	p := pt[:st.dims].Clone()
	return StagedPoint{pt: p, coord: st.geo.CellOf(p)}, nil
}

// InsertStaged on the three clusterers consumes a StagedPoint produced by a
// matching Stager under the caller's handle id, skipping the validation and
// cell-coordinate work that Stage already performed. A zero StagedPoint is
// rejected with ErrBadPoint and a live id with ErrLivePoint; otherwise the
// mint counter of Insert is lifted past id, so minted and given handles
// never collide.

// InsertStaged adds a pre-staged point under handle id; see Stager.
func (s *SemiDynamic) InsertStaged(sp StagedPoint, id PointID) error {
	return s.insertStaged(sp, id, s.insertRec)
}

// InsertStaged adds a pre-staged point under handle id; see Stager.
func (f *FullyDynamic) InsertStaged(sp StagedPoint, id PointID) error {
	return f.insertStaged(sp, id, f.insertRec)
}

// InsertStaged adds a pre-staged point under handle id; see Stager.
func (ic *IncDBSCAN) InsertStaged(sp StagedPoint, id PointID) error {
	return ic.insertStaged(sp, id, ic.insertRec)
}

// insertStaged is InsertStaged over an algorithm's commit phase insertRec.
func (b *base) insertStaged(sp StagedPoint, id PointID, insertRec func(*pointRec) PointID) error {
	if sp.pt == nil {
		return ErrBadPoint
	}
	if _, live := b.points[id]; live {
		return ErrLivePoint
	}
	insertRec(b.placePoint(sp.pt, sp.coord, id))
	return nil
}

// NextPointID reports the handle the next minting Insert would return: one
// past every handle minted or given so far.
func (b *base) NextPointID() PointID { return b.nextID }
