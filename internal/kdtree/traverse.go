package kdtree

import "panda/internal/geom"

// Low-level structural accessors for external traversal schemes (the
// buffered-query baseline walks the tree with its own scheduling). They
// expose node identity without exposing mutability.

// RootForBuffered returns the root node index for external traversals of a
// non-empty tree.
func (t *Tree) RootForBuffered() int32 {
	if t.Len() == 0 {
		return -1
	}
	return t.root
}

// NodeInfo describes node ni: for internal nodes the split (dim, median)
// and children; isLeaf true for leaves.
func (t *Tree) NodeInfo(ni int32) (dim int, median float32, left, right int32, isLeaf bool) {
	n := &t.nodes[ni]
	if n.dim == leafDim {
		return 0, 0, 0, 0, true
	}
	return int(n.dim), n.median, n.left, n.right, false
}

// LeafPoints returns the packed points and ids of leaf ni (empty when ni is
// not a leaf). The returned values alias tree storage; callers must not
// modify them.
func (t *Tree) LeafPoints(ni int32) (geom.Points, IDTable) {
	n := &t.nodes[ni]
	if n.dim != leafDim {
		return geom.Points{Dims: t.Points.Dims}, IDTable{}
	}
	lo, hi := int(n.start), int(n.end)
	return t.Points.Slice(lo, hi), t.ids.Slice(lo, hi)
}
