package icc

// PlanCacheMax is the plan cache's bound, for the test that overflows it.
const PlanCacheMax = planCacheMax

// HashCounts is the hash ragged layouts are keyed by, for the test that
// needs two count vectors that collide.
func HashCounts(counts []int) uint64 { return hashCounts(0, counts) }
