package core

import "fmt"

// Restore accessors: the durability layer re-creates a backend by inserting
// every stored point at its stored handle (InsertStaged), pins the handle
// counter to its pre-shutdown value, and then has the backend adopt the
// cluster ids its clients saw, so post-restart mints continue the original
// sequences. The handle counter only ever grows; setting it backwards is a
// caller bug and is ignored to keep handle uniqueness unconditional.

// NextPointID reports the handle the next insert would mint.
func (b *base) NextPointID() PointID { return b.nextID }

// SetNextPointID pins the next handle to mint. Values at or below the
// current counter are ignored — handles must never repeat.
func (b *base) SetNextPointID(n PointID) {
	if n > b.nextID {
		b.nextID = n
	}
}

// NextClusterID reports the cluster identity the next cluster birth would
// mint.
func (b *base) NextClusterID() ClusterID { return b.nextCluster }

// AdoptClusterIDs relabels every live cluster through m (current id → id to
// adopt) and sets the cluster-id mint counter to exactly next — the step
// that lets a backend rebuilt from a checkpoint carry the identities its
// clients saw before the restart, so later merges, splits and events speak
// those ids directly. m must name every live cluster, and next must exceed
// every adopted id; on a missing entry nothing is relabeled.
func (f *FullyDynamic) AdoptClusterIDs(m map[ClusterID]ClusterID, next ClusterID) error {
	for _, c := range f.cellOfVertex {
		if _, ok := m[c.cluster]; !ok {
			return fmt.Errorf("core: adopt cluster ids: live cluster %d unmapped", c.cluster)
		}
	}
	for _, c := range f.cellOfVertex {
		c.cluster = m[c.cluster]
	}
	f.nextCluster = next
	return nil
}

// AdoptClusterIDs relabels the live clusters; see FullyDynamic.AdoptClusterIDs.
func (s *SemiDynamic) AdoptClusterIDs(m map[ClusterID]ClusterID, next ClusterID) error {
	return adoptRootClusters(s.base, s.rootCluster, m, next)
}

// AdoptClusterIDs relabels the live clusters; see FullyDynamic.AdoptClusterIDs.
func (ic *IncDBSCAN) AdoptClusterIDs(m map[ClusterID]ClusterID, next ClusterID) error {
	return adoptRootClusters(ic.base, ic.rootCluster, m, next)
}

// adoptRootClusters relabels a union-find root → cluster id table in place.
func adoptRootClusters(b *base, roots map[int]ClusterID, m map[ClusterID]ClusterID, next ClusterID) error {
	for _, id := range roots {
		if _, ok := m[id]; !ok {
			return fmt.Errorf("core: adopt cluster ids: live cluster %d unmapped", id)
		}
	}
	for r, id := range roots {
		roots[r] = m[id]
	}
	b.nextCluster = next
	return nil
}
