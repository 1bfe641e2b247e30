package dyndbscan

import "sort"

// Snapshot is an immutable, internally consistent view of one clustering
// epoch. It is safe to read from any goroutine and stays valid (describing
// its epoch) after further updates; call Engine.Snapshot again for a fresh
// one. Do not mutate the exported fields.
type Snapshot struct {
	// Version is the Engine epoch the snapshot was taken at.
	Version uint64
	// Clusters maps each live cluster's stable id to its member points in
	// ascending PointID order. Border points sitting on several clusters
	// appear under each of them.
	Clusters map[ClusterID][]PointID
	// Noise lists the live points belonging to no cluster, ascending.
	Noise []PointID

	byPoint map[PointID][]ClusterID
}

// NumClusters returns the number of clusters in the snapshot.
func (s *Snapshot) NumClusters() int { return len(s.Clusters) }

// ClusterIDs returns the stable ids of every cluster in the snapshot,
// ascending — the set an event subscriber reconstructs by folding the
// formed/merged/split/dissolved stream, which is exactly how the equivalence
// harness reconciles the two.
func (s *Snapshot) ClusterIDs() []ClusterID {
	out := make([]ClusterID, 0, len(s.Clusters))
	for cid := range s.Clusters {
		out = append(out, cid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Members returns the sorted member points of the cluster, nil when the id
// names no cluster of this snapshot. The slice is shared: do not mutate.
func (s *Snapshot) Members(id ClusterID) []PointID { return s.Clusters[id] }

// ClusterOf returns the cluster ids the point belonged to at the snapshot's
// epoch (empty for noise) and whether the point was live then. The slice is
// shared and read-only: it is the snapshot's own entry, so mutating it
// corrupts the answer for every reader of this epoch.
func (s *Snapshot) ClusterOf(id PointID) ([]ClusterID, bool) {
	cids, ok := s.byPoint[id]
	return cids, ok
}

// addPoint records one live point's memberships during construction; ids
// must be added in ascending order so member lists come out sorted.
func (s *Snapshot) addPoint(id PointID, cids []ClusterID) {
	s.byPoint[id] = cids
	if len(cids) == 0 {
		s.Noise = append(s.Noise, id)
		return
	}
	for _, cid := range cids {
		s.Clusters[cid] = append(s.Clusters[cid], id)
	}
}

// GroupBy answers the C-group-by query against the snapshot's epoch: the
// queried points grouped by the clusters they belonged to then, in the same
// canonical form the live query produces. Unlike Engine.GroupBy it takes no
// lock and never observes later updates. Querying a point that was not live
// at the snapshot's epoch returns ErrUnknownPoint.
func (s *Snapshot) GroupBy(q []PointID) (Result, error) {
	return groupResult(q, func(i int) ([]ClusterID, bool) { return s.ClusterOf(q[i]) })
}

// groupResult answers a C-group-by query through clusterOf, which reports the
// memberships of q[i]: the queried points grouped by cluster, in canonical
// form. A point that is not live fails the query with ErrUnknownPoint; a
// repeated handle contributes once. Shared by Snapshot.GroupBy and the live
// query path.
func groupResult(q []PointID, clusterOf func(i int) ([]ClusterID, bool)) (Result, error) {
	var res Result
	groups := make(map[ClusterID][]PointID)
	seen := make(map[PointID]struct{}, len(q))
	for i, id := range q {
		cids, ok := clusterOf(i)
		if !ok {
			return Result{}, ErrUnknownPoint
		}
		// Q is a set: repeated handles contribute once.
		if _, dup := seen[id]; dup {
			continue
		}
		seen[id] = struct{}{}
		if len(cids) == 0 {
			res.Noise = append(res.Noise, id)
			continue
		}
		for _, cid := range cids {
			groups[cid] = append(groups[cid], id)
		}
	}
	for _, members := range groups {
		res.Groups = append(res.Groups, members)
	}
	res.Normalize()
	return res, nil
}

// GroupAll returns the snapshot's full clustering as a Result (the
// degenerate C-group-by query with Q = P at the snapshot's epoch). The
// returned slices are fresh copies: callers may keep and mutate them.
func (s *Snapshot) GroupAll() Result {
	var res Result
	if len(s.Clusters) > 0 {
		res.Groups = make([][]PointID, 0, len(s.Clusters))
		for _, members := range s.Clusters {
			res.Groups = append(res.Groups, append([]PointID(nil), members...))
		}
	}
	if len(s.Noise) > 0 {
		res.Noise = append([]PointID(nil), s.Noise...)
	}
	res.Normalize()
	return res
}

// SameCluster reports whether two points shared at least one cluster at the
// snapshot's epoch.
func (s *Snapshot) SameCluster(a, b PointID) bool {
	ca, oka := s.byPoint[a]
	cb, okb := s.byPoint[b]
	if !oka || !okb {
		return false
	}
	for _, x := range ca {
		for _, y := range cb {
			if x == y {
				return true
			}
		}
	}
	return false
}
