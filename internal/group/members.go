package group

import "fmt"

// A group is represented throughout the library as an ordered member list:
// members[i] is the transport rank of the group's logical node i. This is
// the mechanism of §9 — "the group array provides the logical-to-physical
// mapping" — and it is what lets a ring collect run within a mesh column by
// passing the column's ranks as the member list.

// Identity returns the member list of the whole world: 0, 1, …, p-1.
func Identity(p int) []int {
	m := make([]int, p)
	for i := range m {
		m[i] = i
	}
	return m
}

// Arithmetic returns the member list base, base+stride, …, with count
// members. Rows, columns, and every group a hybrid stage forms are
// arithmetic sequences.
func Arithmetic(base, stride, count int) []int {
	m := make([]int, count)
	for i := range m {
		m[i] = base + i*stride
	}
	return m
}

// Row returns the member list of physical row r of the layout, which must
// be a 2-D mesh.
func Row(l Layout, r int) []int {
	cols := l.Extents[0]
	return Arithmetic(r*cols, 1, cols)
}

// Column returns the member list of physical column c of the layout, which
// must be a 2-D mesh.
func Column(l Layout, c int) []int {
	cols := l.Extents[0]
	rows := l.Extents[1]
	return Arithmetic(c, cols, rows)
}

// GrayRing returns the member list 0, 1^(1>>1), … ordering a power-of-two
// world along the binary-reflected Gray code. Consecutive members (and the
// wrap-around pair) differ in exactly one bit, so the ordering is a
// Hamiltonian cycle of the hypercube: a ring algorithm run over this member
// list uses only native cube edges and is conflict-free — the trick that
// lets pipelined and bucket algorithms reach their ideal rates on
// hypercubes (§11's iPSC-tuned library).
func GrayRing(p int) []int {
	m := make([]int, p)
	for i := range m {
		m[i] = i ^ (i >> 1)
	}
	return m
}

// Validate checks that members is a valid group over a world of worldSize
// ranks: non-empty, in range, and free of duplicates.
func Validate(members []int, worldSize int) error {
	if len(members) == 0 {
		return fmt.Errorf("group: empty member list")
	}
	seen := make([]bool, worldSize)
	for i, m := range members {
		if m < 0 || m >= worldSize {
			return fmt.Errorf("group: member %d is rank %d, world size %d", i, m, worldSize)
		}
		if seen[m] {
			return fmt.Errorf("group: rank %d appears more than once", m)
		}
		seen[m] = true
	}
	return nil
}

// Index returns the logical index of rank within members, or -1 if rank is
// not a member.
func Index(members []int, rank int) int {
	for i, m := range members {
		if m == rank {
			return i
		}
	}
	return -1
}

// IsArithmetic reports whether members form an arithmetic sequence and, if
// so, returns its base and stride. Single-member groups are arithmetic with
// stride 1.
func IsArithmetic(members []int) (base, stride int, ok bool) {
	if len(members) == 0 {
		return 0, 0, false
	}
	base = members[0]
	if len(members) == 1 {
		return base, 1, true
	}
	stride = members[1] - members[0]
	if stride <= 0 {
		return 0, 0, false
	}
	for i := 1; i < len(members); i++ {
		if members[i]-members[i-1] != stride {
			return 0, 0, false
		}
	}
	return base, stride, true
}

// DetectStructure classifies a member list against a physical layout,
// implementing §9's policy: "in cases where a group comprises a physical
// rectangular submesh, the same row- and column-based techniques are used
// as in the whole-mesh operations. When a group is unstructured … it is
// treated as though it were a linear array."
//
// The returned layout describes the group itself: a rows×cols sub-mesh
// layout if the members enumerate a rectangle of the physical mesh in
// row-major order, otherwise a linear layout of len(members) nodes.
// conflictFree reports whether consecutive members occupy physically
// adjacent or disjoint paths, i.e. whether the linear-array conflict model
// applies without penalty (true for rows, columns and contiguous ranges).
func DetectStructure(members []int, phys Layout) (l Layout, conflictFree bool) {
	n := len(members)
	base, stride, arith := IsArithmetic(members)
	if arith && len(phys.Extents) == 2 {
		cols := phys.Extents[0]
		switch stride {
		case 1:
			// A run within one physical row; runs spanning whole rows are
			// classified as sub-meshes below.
			if base/cols == (base+n-1)/cols {
				return Linear(n), true
			}
		case cols:
			// A run within one physical column.
			if base%cols == (base+(n-1)*cols)%cols {
				return Linear(n), true
			}
		}
	}
	if arith && len(phys.Extents) == 1 && stride == 1 {
		return Linear(n), true
	}
	if sub, ok := detectSubmesh(members, phys); ok {
		return sub, true
	}
	return Linear(n), arith && stride == 1
}

// detectSubmesh reports whether members enumerate an r×c rectangle of a 2-D
// physical mesh in row-major order, returning the rectangle's layout.
func detectSubmesh(members []int, phys Layout) (Layout, bool) {
	if len(phys.Extents) != 2 || len(members) == 0 {
		return Layout{}, false
	}
	cols := phys.Extents[0]
	r0, c0 := members[0]/cols, members[0]%cols
	// Width = length of the first stride-1 run, capped at the row boundary.
	w := 1
	for w < len(members) && members[w] == members[0]+w && c0+w < cols {
		w++
	}
	if len(members)%w != 0 {
		return Layout{}, false
	}
	h := len(members) / w
	if c0+w > cols || r0+h > phys.Extents[1] {
		return Layout{}, false
	}
	for i := 0; i < h; i++ {
		for j := 0; j < w; j++ {
			if members[i*w+j] != (r0+i)*cols+(c0+j) {
				return Layout{}, false
			}
		}
	}
	if h == 1 || w == 1 {
		return Linear(len(members)), true
	}
	return Mesh2D(h, w), true
}
