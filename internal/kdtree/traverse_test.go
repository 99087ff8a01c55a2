package kdtree

import (
	"testing"

	"panda/internal/data"
	"panda/internal/geom"
)

func TestRootForBufferedEmptyTree(t *testing.T) {
	tr := Build(geom.NewPoints(0, 3), nil, Options{})
	if tr.RootForBuffered() != -1 {
		t.Fatal("empty tree must report root -1")
	}
}

func TestNodeInfoAndLeafPointsCoverTree(t *testing.T) {
	d := data.Uniform(2000, 3, 71)
	tr := Build(d.Points, nil, Options{})
	// Walk the whole tree through the public accessors and verify every
	// point appears in exactly one leaf.
	seen := make(map[int64]int)
	var walk func(ni int32)
	walk = func(ni int32) {
		dim, median, left, right, isLeaf := tr.NodeInfo(ni)
		if isLeaf {
			pts, ids := tr.LeafPoints(ni, nil)
			if pts.Len() != ids.Len() {
				t.Fatal("leaf points/ids length mismatch")
			}
			for i := range ids.Len() {
				seen[ids.At(i)]++
			}
			return
		}
		if dim < 0 || dim >= 3 {
			t.Fatalf("bad split dim %d", dim)
		}
		_ = median
		walk(left)
		walk(right)
	}
	walk(tr.RootForBuffered())
	if len(seen) != 2000 {
		t.Fatalf("accessors reached %d/2000 points", len(seen))
	}
	for id, cnt := range seen {
		if cnt != 1 {
			t.Fatalf("point %d in %d leaves", id, cnt)
		}
	}
}

func TestLeafPointsOnInternalNode(t *testing.T) {
	d := data.Uniform(2000, 3, 73)
	tr := Build(d.Points, nil, Options{})
	root := tr.RootForBuffered()
	if _, _, _, _, isLeaf := tr.NodeInfo(root); isLeaf {
		t.Skip("tree degenerated to a single leaf")
	}
	pts, ids := tr.LeafPoints(root, nil)
	if pts.Len() != 0 || ids.Len() != 0 {
		t.Fatal("LeafPoints on internal node must be empty")
	}
}
