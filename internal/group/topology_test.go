package group

import (
	"reflect"
	"testing"
)

func TestNewTopologyNormalizesAndNests(t *testing.T) {
	// 8 indices, racks dealt round-robin with arbitrary labels, nodes
	// nested inside (index i: rack i%2, node i%4).
	racks := []int{7, 3, 7, 3, 7, 3, 7, 3}
	nodes := []int{40, 41, 42, 43, 40, 41, 42, 43}
	tp, err := NewTopology(racks, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if tp.Depth() != 2 || tp.P() != 8 {
		t.Fatalf("depth %d p %d", tp.Depth(), tp.P())
	}
	asg := tp.Assignments()
	if want := []int{0, 1, 0, 1, 0, 1, 0, 1}; !reflect.DeepEqual(asg[0], want) {
		t.Fatalf("level 0 %v, want %v", asg[0], want)
	}
	// Normalized deeper ids are globally unique and re-feedable.
	if _, err := NewTopology(asg...); err != nil {
		t.Fatalf("assignments not valid topology input: %v", err)
	}
	if tp.Contiguous() {
		t.Fatal("round-robin topology reported contiguous")
	}
	// Depth-first order: rack 0 = {0,2,4,6} grouped by node {0,4},{2,6};
	// rack 1 likewise.
	if want := []int{0, 4, 2, 6, 1, 5, 3, 7}; !reflect.DeepEqual(tp.RecOrder(), want) {
		t.Fatalf("rec order %v, want %v", tp.RecOrder(), want)
	}
	if ls := tp.LevelSizes(); !reflect.DeepEqual(ls, []int{4, 2}) {
		t.Fatalf("level sizes %v", ls)
	}
}

func TestNewTopologyRejectsBadNesting(t *testing.T) {
	// Node block 0 = {0, 1} spans racks 0 and 1.
	if _, err := NewTopology([]int{0, 1, 0, 1}, []int{0, 0, 1, 1}); err == nil {
		t.Fatal("non-nested levels accepted")
	}
	if _, err := NewTopology(); err == nil {
		t.Fatal("zero levels accepted")
	}
	if _, err := NewTopology([]int{0, 0}, []int{0}); err == nil {
		t.Fatal("mismatched level lengths accepted")
	}
	deep := make([][]int, MaxDepth+1)
	for l := range deep {
		deep[l] = []int{0}
	}
	if _, err := NewTopology(deep...); err == nil {
		t.Fatalf("depth %d accepted, max is %d", len(deep), MaxDepth)
	}
}

func TestTopologyBySizes(t *testing.T) {
	tp, err := TopologyBySizes(12, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !tp.Contiguous() {
		t.Fatal("block-major topology not contiguous")
	}
	ord := tp.RecOrder()
	for i, o := range ord {
		if i != o {
			t.Fatalf("contiguous rec order not identity: %v", ord)
		}
	}
	if sizes := tp.Sizes(); !reflect.DeepEqual(sizes, []int{6, 6}) {
		t.Fatalf("top sizes %v", sizes)
	}
	sub := tp.Sub(1)
	if sub.Depth() != 1 || sub.P() != 6 || sub.Top().K() != 2 {
		t.Fatalf("sub depth %d p %d k %d", sub.Depth(), sub.P(), sub.Top().K())
	}
	// A finer size that does not divide the coarser one must be rejected.
	if _, err := TopologyBySizes(12, 6, 4); err == nil {
		t.Fatal("non-dividing sizes accepted")
	}
}

func TestFromClusterMatchesClusterView(t *testing.T) {
	cl, err := NewCluster([]int{1, 0, 1, 0, 2})
	if err != nil {
		t.Fatal(err)
	}
	tp, err := NewTopology(cl.Assignment())
	if err != nil {
		t.Fatal(err)
	}
	if tp.Depth() != 1 {
		t.Fatalf("depth %d", tp.Depth())
	}
	if !reflect.DeepEqual(tp.Top().Assignment(), cl.Assignment()) {
		t.Fatalf("top %v != cluster %v", tp.Top().Assignment(), cl.Assignment())
	}
	if err := tp.Validate(5); err != nil {
		t.Fatal(err)
	}
	if err := tp.Validate(4); err == nil {
		t.Fatal("validate accepted wrong group size")
	}
}
