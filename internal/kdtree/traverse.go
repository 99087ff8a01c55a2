package kdtree

import (
	"slices"

	"panda/internal/geom"
)

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

// PackedPoints returns a row-major copy of the tree's points in packed
// order: point i is the one IDs().At(i) names.
func (t *Tree) PackedPoints() geom.Points {
	out := geom.NewPoints(t.Len(), t.dims)
	for ni := range t.nodes {
		if n := &t.nodes[ni]; n.dim == leafDim {
			// A zero-length buf with exactly the leaf's capacity: LeafPoints
			// writes the leaf's rows in place.
			lo, hi := int(n.start)*t.dims, int(n.end)*t.dims
			t.LeafPoints(int32(ni), out.Coords[lo:lo:hi])
		}
	}
	return out
}

// LeafPoints returns leaf ni's points as a row-major copy in buf (grown
// when too small) and its ids; both are empty when ni is not a leaf. The
// ids alias tree storage; callers must not modify them.
func (t *Tree) LeafPoints(ni int32, buf []float32) (geom.Points, IDTable) {
	n := &t.nodes[ni]
	if n.dim != leafDim {
		return geom.Points{Dims: t.dims}, IDTable{}
	}
	rows, m := t.leafRows(n)
	buf = slices.Grow(buf[:0], len(rows))[:len(rows)]
	for j := 0; j < t.dims; j++ {
		for i, v := range rows[j*m : (j+1)*m] {
			buf[i*t.dims+j] = v
		}
	}
	return geom.Points{Coords: buf, Dims: t.dims}, t.ids.Slice(int(n.start), int(n.end))
}
