package core

// Partition arithmetic. The paper assumes xᵢ holds ≈ n/p items (§3); the
// library supports both library-chosen near-equal partitions and
// user-supplied per-node counts ("known lengths" collect, Table 3). All
// splitting happens on element boundaries so combine operations always see
// whole elements.

// splitPart returns the half-open element range of part i when [lo, hi) is
// divided into d near-equal parts: the first (hi-lo) mod d parts get one
// extra element.
func splitPart(lo, hi, d, i int) (int, int) {
	n := hi - lo
	base := n / d
	rem := n % d
	start := lo + i*base + min(i, rem)
	end := start + base
	if i < rem {
		end++
	}
	return start, end
}

// equalCounts returns the near-equal per-node element counts for n elements
// over p nodes, matching splitPart's convention.
func equalCounts(n, p int) []int {
	counts := make([]int, p)
	base, rem := n/p, n%p
	for i := range counts {
		counts[i] = base
		if i < rem {
			counts[i]++
		}
	}
	return counts
}

// prefixOffsets returns the p+1 element offsets of a counts partition:
// off[i] = Σ counts[:i].
func prefixOffsets(counts []int) []int {
	off := make([]int, len(counts)+1)
	for i, c := range counts {
		off[i+1] = off[i] + c
	}
	return off
}
