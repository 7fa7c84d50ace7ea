package group

import (
	"reflect"
	"testing"
)

func TestNewClusterNormalizes(t *testing.T) {
	// Arbitrary ids normalize in order of first appearance.
	c, err := NewCluster([]int{7, 7, 3, 9, 3, 7})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Assignment(); !reflect.DeepEqual(got, []int{0, 0, 1, 2, 1, 0}) {
		t.Fatalf("assignment %v", got)
	}
	if c.K() != 3 || c.P() != 6 {
		t.Fatalf("K=%d P=%d", c.K(), c.P())
	}
	if got := c.Leaders(); !reflect.DeepEqual(got, []int{0, 2, 3}) {
		t.Fatalf("leaders %v", got)
	}
	if got := c.Members(0); !reflect.DeepEqual(got, []int{0, 1, 5}) {
		t.Fatalf("members(0) %v", got)
	}
	if got := c.Sizes(); !reflect.DeepEqual(got, []int{3, 2, 1}) {
		t.Fatalf("sizes %v", got)
	}
	if c.MaxSize() != 3 {
		t.Fatalf("max size %d", c.MaxSize())
	}
	if c.Contiguous() {
		t.Fatal("interleaved partition reported contiguous")
	}
	if err := c.Validate(6); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(7); err == nil {
		t.Fatal("validate accepted wrong group size")
	}
}

func TestClusterBySize(t *testing.T) {
	tp, err := TopologyBySizes(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	c := tp.Top()
	if got := c.Sizes(); !reflect.DeepEqual(got, []int{4, 4, 2}) {
		t.Fatalf("sizes %v", got)
	}
	if !c.Contiguous() {
		t.Fatal("block partition not contiguous")
	}
}

func TestClusterErrors(t *testing.T) {
	if _, err := NewCluster(nil); err == nil {
		t.Fatal("empty assignment accepted")
	}
	if _, err := TopologyBySizes(4, 0); err == nil {
		t.Fatal("zero cluster size accepted")
	}
}
