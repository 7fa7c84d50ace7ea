package simnet

// Topology: an R-row × C-column physical mesh with bidirectional links
// modelled as two independent directed channels per neighbour pair (§2:
// "bidirectional links between nodes"), plus one injection and one ejection
// channel per node (§7.1: node-to-network bandwidth is the scarce resource;
// mesh links carry LinkExcess times as much). Node (r, c) has id r·C + c.
//
// Routing is dimension-ordered XY wormhole routing: a message first travels
// along its source row to the destination column, then along that column.
// A wormhole message is modelled as occupying every link of its path
// simultaneously for the whole transfer — with cut-through routing the
// transfer rate is the minimum share available across the path and latency
// is distance-independent, which is exactly the paper's α + nβ model.

// netTopology abstracts the interconnect: the 2-D wormhole mesh of §2 or
// the hypercube of §11. Only the engine's flow model depends on it.
type netTopology interface {
	// nodes returns the node count.
	nodes() int
	// numLinks returns the number of directed channels.
	numLinks() int
	// isMeshLink reports whether a channel is an interconnect channel (as
	// opposed to injection/ejection), which determines its capacity.
	isMeshLink(id int) bool
	// path returns the directed channels a message occupies, including
	// the source injection and destination ejection channels.
	path(src, dst int) []int
}

type topology struct {
	rows, cols int
	n          int // rows*cols
	hPairs     int // rows*(cols-1) horizontal neighbour pairs
	vPairs     int // (rows-1)*cols vertical neighbour pairs
}

func newTopology(rows, cols int) topology {
	return topology{
		rows: rows, cols: cols, n: rows * cols,
		hPairs: rows * (cols - 1),
		vPairs: (rows - 1) * cols,
	}
}

func (t topology) nodes() int { return t.n }

// numLinks returns the total number of directed channels: injection and
// ejection per node plus east/west/south/north mesh channels.
func (t topology) numLinks() int { return 2*t.n + 2*t.hPairs + 2*t.vPairs }

func (t topology) inject(node int) int { return node }
func (t topology) eject(node int) int  { return t.n + node }

// Directed mesh channel ids. east carries (r,c)→(r,c+1); west the reverse;
// south carries (r,c)→(r+1,c); north the reverse.
func (t topology) east(r, c int) int  { return 2*t.n + r*(t.cols-1) + c }
func (t topology) west(r, c int) int  { return 2*t.n + t.hPairs + r*(t.cols-1) + c }
func (t topology) south(r, c int) int { return 2*t.n + 2*t.hPairs + r*t.cols + c }
func (t topology) north(r, c int) int { return 2*t.n + 2*t.hPairs + t.vPairs + r*t.cols + c }

// isMeshLink reports whether link id is a mesh channel (as opposed to an
// injection or ejection channel), which determines its capacity.
func (t topology) isMeshLink(id int) bool { return id >= 2*t.n }

// path returns the sequence of directed channels an XY-routed message from
// src to dst occupies, including the source's injection channel and the
// destination's ejection channel. A self-message occupies only the node's
// injection and ejection channels (it still pays α + nβ through the local
// interface, which matches how NX-style libraries behaved).
func (t topology) path(src, dst int) []int {
	r1, c1 := src/t.cols, src%t.cols
	r2, c2 := dst/t.cols, dst%t.cols
	p := make([]int, 0, 2+abs(c2-c1)+abs(r2-r1))
	p = append(p, t.inject(src))
	for c := c1; c < c2; c++ { // eastward along source row
		p = append(p, t.east(r1, c))
	}
	for c := c1; c > c2; c-- { // westward along source row
		p = append(p, t.west(r1, c-1))
	}
	for r := r1; r < r2; r++ { // southward along destination column
		p = append(p, t.south(r, c2))
	}
	for r := r1; r > r2; r-- { // northward along destination column
		p = append(p, t.north(r-1, c2))
	}
	p = append(p, t.eject(dst))
	return p
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// treeTopology replaces the wormhole mesh with an N-level switched tree:
// every rank has its own injection and ejection channel (the per-core
// memory interface), and nested blocks (racks containing nodes containing
// sockets), coarsest level first, each own one shared uplink and one
// shared downlink — the single NIC through which a block's ranks reach
// the network above it. A message between ranks whose paths first diverge
// at level l climbs out through the source's uplink at every level deeper
// than or equal to l and descends through the destination's downlinks —
// so inter-rack traffic contends for the rack NIC and for the node NIC,
// while sibling-node traffic contends only for the node NICs, the
// contention structure that rewards composing collectives level by level.
// Messages within one deepest block occupy only the per-rank injection
// and ejection channels (the switch cores are non-blocking, and rank ids
// carry no positional meaning).
type treeTopology struct {
	n      int
	of     [][]int // of[l][rank] = block id at level l, coarsest first
	k      []int   // blocks per level
	offset []int   // offset[l]: first link id of level l's uplinks
	links  int
}

func newTreeTopology(n int, of [][]int) treeTopology {
	t := treeTopology{n: n, of: of}
	t.k = make([]int, len(of))
	t.offset = make([]int, len(of))
	at := 2 * n // per-rank injection and ejection channels come first
	for l, lv := range of {
		k := 0
		for _, b := range lv {
			if b+1 > k {
				k = b + 1
			}
		}
		t.k[l] = k
		t.offset[l] = at
		at += 2 * k
	}
	t.links = at
	return t
}

func (t treeTopology) nodes() int            { return t.n }
func (t treeTopology) numLinks() int         { return t.links }
func (t treeTopology) isMeshLink(int) bool   { return false }
func (t treeTopology) uplink(l, b int) int   { return t.offset[l] + b }
func (t treeTopology) downlink(l, b int) int { return t.offset[l] + t.k[l] + b }

// divergeLevel returns the coarsest level at which src and dst lie in
// different blocks, or -1 when they share even the deepest block. By
// nesting, differing at level l implies differing at every deeper level.
func (t treeTopology) divergeLevel(src, dst int) int {
	for l, lv := range t.of {
		if lv[src] != lv[dst] {
			return l
		}
	}
	return -1
}

func (t treeTopology) path(src, dst int) []int {
	l := t.divergeLevel(src, dst)
	if l < 0 {
		return []int{src, t.n + dst}
	}
	p := make([]int, 0, 2+2*(len(t.of)-l))
	p = append(p, src, t.n+dst)
	for m := l; m < len(t.of); m++ {
		p = append(p, t.uplink(m, t.of[m][src]), t.downlink(m, t.of[m][dst]))
	}
	return p
}
