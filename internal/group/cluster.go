package group

import "fmt"

// Cluster is an explicit two-level partition of a group: every logical
// node belongs to exactly one cluster, modelling machines whose ranks are
// grouped onto nodes with a fast intra-node fabric and a slower inter-node
// network. Hierarchical collectives (HiCCL-style composition on top of the
// paper's building blocks) run one phase inside each cluster and one phase
// among cluster leaders.
//
// A Cluster is defined over a group's logical indices 0..P-1, not over
// transport ranks; the member list continues to provide the
// logical-to-physical mapping underneath it.
type Cluster struct {
	of      []int   // of[i] = cluster id of logical node i, in 0..K-1
	members [][]int // members[k] = logical indices of cluster k, ascending
	leaders []int   // leaders[k] = members[k][0]
}

// NewCluster builds a partition from a rank→cluster assignment. Cluster
// ids need not be contiguous or start at zero: they are normalized to
// 0..K-1 in order of the smallest logical index belonging to each, so that
// every member constructs the identical partition from the identical map.
func NewCluster(of []int) (Cluster, error) {
	if len(of) == 0 {
		return Cluster{}, fmt.Errorf("group: empty cluster assignment")
	}
	// Normalize ids in order of first appearance (ascending index).
	remap := make(map[int]int)
	norm := make([]int, len(of))
	for i, id := range of {
		k, ok := remap[id]
		if !ok {
			k = len(remap)
			remap[id] = k
		}
		norm[i] = k
	}
	c := Cluster{
		of:      norm,
		members: make([][]int, len(remap)),
		leaders: make([]int, len(remap)),
	}
	for i, k := range norm {
		c.members[k] = append(c.members[k], i)
	}
	for k, m := range c.members {
		c.leaders[k] = m[0]
	}
	return c, nil
}

// P returns the number of logical nodes the partition covers.
func (c Cluster) P() int { return len(c.of) }

// K returns the number of clusters.
func (c Cluster) K() int { return len(c.members) }

// Of returns the cluster id of logical node i.
func (c Cluster) Of(i int) int { return c.of[i] }

// Assignment returns a copy of the normalized rank→cluster map.
func (c Cluster) Assignment() []int { return append([]int(nil), c.of...) }

// Members returns the ascending logical indices of cluster k. The slice is
// shared; callers must not modify it.
func (c Cluster) Members(k int) []int { return c.members[k] }

// Leader returns the smallest logical index in cluster k — the member that
// represents the cluster in the leader-level phase.
func (c Cluster) Leader(k int) int { return c.leaders[k] }

// Leaders returns the leaders of all clusters, in cluster order. The slice
// is shared; callers must not modify it.
func (c Cluster) Leaders() []int { return c.leaders }

// Sizes returns the number of members of each cluster, in cluster order.
func (c Cluster) Sizes() []int {
	s := make([]int, len(c.members))
	for k, m := range c.members {
		s[k] = len(m)
	}
	return s
}

// MaxSize returns the largest cluster's member count.
func (c Cluster) MaxSize() int {
	max := 0
	for _, m := range c.members {
		if len(m) > max {
			max = len(m)
		}
	}
	return max
}

// Contiguous reports whether every cluster is a run of consecutive logical
// indices. Contiguous partitions let hierarchical collect and
// reduce-scatter operate in place on index-contiguous blocks; arbitrary
// partitions go through a pack/unpack detour.
func (c Cluster) Contiguous() bool {
	for _, m := range c.members {
		for j := 1; j < len(m); j++ {
			if m[j] != m[j-1]+1 {
				return false
			}
		}
	}
	return true
}

// Validate checks the partition against a group of p logical nodes.
func (c Cluster) Validate(p int) error {
	if len(c.of) != p {
		return fmt.Errorf("group: cluster assignment covers %d nodes, group has %d", len(c.of), p)
	}
	for k, m := range c.members {
		if len(m) == 0 {
			return fmt.Errorf("group: cluster %d is empty", k)
		}
	}
	return nil
}
