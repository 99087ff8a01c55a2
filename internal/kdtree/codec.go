// Snapshot codec hook: the flat, serializable view of a built Tree.
//
// A built tree is five flat arrays (leaf-major coords, id column, nodes,
// split bounds, bounding box) plus a handful of scalars, which is what makes
// zero-copy persistence possible: Raw exposes those arrays without copying,
// and FromRaw reassembles a Tree around caller-provided arrays — slices of
// an mmap'd snapshot in the warm-start path — after validating every
// structural invariant the query kernels rely on, so hostile or corrupted
// bytes fail with an error before any tree method can read out of bounds.
package kdtree

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"

	"panda/internal/geom"
)

func f32bits(v float32) uint32     { return math.Float32bits(v) }
func f32frombits(b uint32) float32 { return math.Float32frombits(b) }

// NodeBytes is the on-disk (and in-memory) size of one tree node: six
// 4-byte little-endian words — dim, median, left, right, start, end.
const NodeBytes = 24

// HostLittleEndian reports whether the running machine stores multi-byte
// words little-endian, which is what allows reinterpreting flat arrays as
// their little-endian wire encoding (and back) without a conversion pass.
// The snapshot codec keys its zero-copy paths off the same probe.
var HostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// Raw is the serializable flat state of a built Tree. The slices returned
// by Tree.Raw alias the live tree (no copies); the slices given to FromRaw
// are adopted by the new tree (the caller must keep their backing storage —
// e.g. an mmap'd file — alive and unmodified for the tree's lifetime).
type Raw struct {
	Dims int
	// Coords holds the n*Dims packed coordinates, leaf-major as in Tree
	// (each leaf Dims rows of its point count) unless RowMajor is set.
	Coords []float32
	// RowMajor marks Coords as row-major (point i at
	// [i*Dims:(i+1)*Dims]), the layout of snapshot formats before version
	// 3; FromRaw transposes such points into a fresh leaf-major array.
	RowMajor bool
	IDs      IDTable // packed position -> caller id, Len = n
	// NodesLE is the node array as little-endian NodeBytes-sized records:
	// dim int32 (leaf = -1), median float32, left, right, start, end int32.
	NodesLE     []byte
	SplitBounds []float32 // 4 floats per node (see Tree.splitBounds)
	BoxMin      []float32 // tight bounding box, len = Dims each
	BoxMax      []float32
	Root        int32
	Height      int32
	MaxBucket   int32
	Opts        Options // Recorder is not serializable and must be nil
}

// Raw returns the flat state of t without copying on little-endian hosts
// (the node array is reinterpreted in place; everything else is already a
// typed slice). On big-endian hosts the node array is encoded into a fresh
// buffer so the result is the wire form either way.
func (t *Tree) Raw() Raw {
	return Raw{
		Dims:        t.dims,
		Coords:      t.coords,
		IDs:         t.ids,
		NodesLE:     encodeNodes(t.nodes),
		SplitBounds: t.splitBounds,
		BoxMin:      t.Box.Min,
		BoxMax:      t.Box.Max,
		Root:        t.root,
		Height:      int32(t.height),
		MaxBucket:   int32(t.maxBucket),
		Opts:        t.opts,
	}
}

// encodeNodes returns nodes as little-endian records — a reinterpreting
// view on little-endian hosts, an encoded copy elsewhere.
func encodeNodes(nodes []node) []byte {
	if len(nodes) == 0 {
		return nil
	}
	if HostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&nodes[0])), len(nodes)*NodeBytes)
	}
	buf := make([]byte, len(nodes)*NodeBytes)
	for i, n := range nodes {
		b := buf[i*NodeBytes:]
		binary.LittleEndian.PutUint32(b[0:], uint32(n.dim))
		binary.LittleEndian.PutUint32(b[4:], f32bits(n.median))
		binary.LittleEndian.PutUint32(b[8:], uint32(n.left))
		binary.LittleEndian.PutUint32(b[12:], uint32(n.right))
		binary.LittleEndian.PutUint32(b[16:], uint32(n.start))
		binary.LittleEndian.PutUint32(b[20:], uint32(n.end))
	}
	return buf
}

// decodeNodes returns the node array behind raw little-endian records —
// zero-copy (reinterpreting raw in place) on aligned little-endian hosts,
// a decoded copy elsewhere. len(raw) must be a multiple of NodeBytes.
func decodeNodes(raw []byte) []node {
	count := len(raw) / NodeBytes
	if count == 0 {
		return nil
	}
	if HostLittleEndian && uintptr(unsafe.Pointer(&raw[0]))%unsafe.Alignof(node{}) == 0 {
		return unsafe.Slice((*node)(unsafe.Pointer(&raw[0])), count)
	}
	nodes := make([]node, count)
	for i := range nodes {
		b := raw[i*NodeBytes:]
		nodes[i] = node{
			dim:    int32(binary.LittleEndian.Uint32(b[0:])),
			median: f32frombits(binary.LittleEndian.Uint32(b[4:])),
			left:   int32(binary.LittleEndian.Uint32(b[8:])),
			right:  int32(binary.LittleEndian.Uint32(b[12:])),
			start:  int32(binary.LittleEndian.Uint32(b[16:])),
			end:    int32(binary.LittleEndian.Uint32(b[20:])),
		}
	}
	return nodes
}

// FromRaw reassembles a Tree from its flat state, adopting the given slices
// (zero-copy where the host allows it). Every structural invariant is
// checked before the tree is returned: array lengths against each other,
// one id form only, with a narrow table's base plus offsets inside int64,
// node child/leaf index ranges, acyclicity, exact leaf partition of the
// point range, finite coordinates inside a finite stored box, non-NaN
// medians and split bounds, and the stored height/max-bucket metadata
// against the values the validation walk recomputes. RowMajor points are
// transposed into a fresh leaf-major array; all others are adopted. An
// error means the input cannot have been produced by Build over finite
// points and no Tree is returned — no query method can ever see it.
func FromRaw(raw Raw) (*Tree, error) {
	d := raw.Dims
	if d <= 0 {
		return nil, fmt.Errorf("kdtree: snapshot dims %d", d)
	}
	if len(raw.Coords)%d != 0 {
		return nil, fmt.Errorf("kdtree: %d coords not a multiple of dims %d", len(raw.Coords), d)
	}
	n := len(raw.Coords) / d
	if err := raw.IDs.validate(n); err != nil {
		return nil, err
	}
	if len(raw.NodesLE)%NodeBytes != 0 {
		return nil, fmt.Errorf("kdtree: node section of %d bytes not a multiple of %d", len(raw.NodesLE), NodeBytes)
	}
	opts := raw.Opts
	opts.Recorder = nil
	opts = opts.withDefaults()

	t := &Tree{opts: opts, dims: d}
	if n == 0 {
		if len(raw.NodesLE) != 0 || len(raw.SplitBounds) != 0 {
			return nil, fmt.Errorf("kdtree: empty snapshot carries %d node bytes", len(raw.NodesLE))
		}
		t.Box = geom.BoundingBox(geom.NewPoints(0, d))
		return t, nil
	}

	t.nodes = decodeNodes(raw.NodesLE)
	nn := len(t.nodes)
	if nn == 0 {
		return nil, fmt.Errorf("kdtree: %d points but no nodes", n)
	}
	if len(raw.SplitBounds) != nn*4 {
		return nil, fmt.Errorf("kdtree: %d split bounds for %d nodes", len(raw.SplitBounds), nn)
	}
	if len(raw.BoxMin) != d || len(raw.BoxMax) != d {
		return nil, fmt.Errorf("kdtree: box of %d/%d extents for %d dims", len(raw.BoxMin), len(raw.BoxMax), d)
	}
	if raw.Root < 0 || int(raw.Root) >= nn {
		return nil, fmt.Errorf("kdtree: root %d out of range [0,%d)", raw.Root, nn)
	}

	for i := 0; i < d; i++ {
		lo, hi := raw.BoxMin[i], raw.BoxMax[i]
		if !geom.Finite(lo) || !geom.Finite(hi) || lo > hi {
			return nil, fmt.Errorf("kdtree: box [%v,%v] along dim %d not a finite interval", lo, hi, i)
		}
	}
	for _, v := range raw.SplitBounds {
		if v != v {
			return nil, fmt.Errorf("kdtree: NaN split bound")
		}
	}

	// Structural walk from the root. Build always places children at higher
	// indices than their parent (both the breadth-first and the spliced
	// thread-parallel stages append child slots after the parent's), so that
	// ordering is an invariant we can demand; together with the visited set
	// it bounds the walk at O(nodes) and proves acyclicity. Leaves must
	// partition [0, n) exactly.
	type walkFrame struct {
		ni    int32
		depth int32
	}
	visited := make([]bool, nn)
	covered := make([]bool, n)
	leafList := make([]int32, 0, (nn+1)/2) // a full binary tree
	stack := make([]walkFrame, 0, 64)
	stack = append(stack, walkFrame{raw.Root, 1})
	var (
		height    int32
		maxBucket int32
		bucketSum int64
		total     int
	)
	for len(stack) > 0 {
		fr := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if visited[fr.ni] {
			return nil, fmt.Errorf("kdtree: node %d reachable twice", fr.ni)
		}
		visited[fr.ni] = true
		if fr.depth > height {
			height = fr.depth
		}
		nd := t.nodes[fr.ni]
		if nd.dim == leafDim {
			if nd.start < 0 || nd.start > nd.end || int(nd.end) > n {
				return nil, fmt.Errorf("kdtree: leaf %d range [%d,%d) outside %d points", fr.ni, nd.start, nd.end, n)
			}
			for i := nd.start; i < nd.end; i++ {
				if covered[i] {
					return nil, fmt.Errorf("kdtree: point %d in two leaves", i)
				}
				covered[i] = true
			}
			b := nd.end - nd.start
			leafList = append(leafList, fr.ni)
			bucketSum += int64(b)
			total += int(b)
			if b > maxBucket {
				maxBucket = b
			}
			continue
		}
		if nd.dim < 0 || int(nd.dim) >= d {
			return nil, fmt.Errorf("kdtree: node %d split dim %d out of range", fr.ni, nd.dim)
		}
		if nd.median != nd.median {
			return nil, fmt.Errorf("kdtree: node %d has NaN median", fr.ni)
		}
		if nd.left <= fr.ni || int(nd.left) >= nn || nd.right <= fr.ni || int(nd.right) >= nn {
			return nil, fmt.Errorf("kdtree: node %d children (%d,%d) not strictly after it in [0,%d)", fr.ni, nd.left, nd.right, nn)
		}
		stack = append(stack, walkFrame{nd.left, fr.depth + 1}, walkFrame{nd.right, fr.depth + 1})
	}
	if total != n {
		return nil, fmt.Errorf("kdtree: leaves cover %d of %d points", total, n)
	}
	if raw.Height != height {
		return nil, fmt.Errorf("kdtree: stored height %d, walk found %d", raw.Height, height)
	}
	if raw.MaxBucket != maxBucket {
		return nil, fmt.Errorf("kdtree: stored max bucket %d, walk found %d", raw.MaxBucket, maxBucket)
	}

	t.coords = raw.Coords
	if raw.RowMajor {
		t.coords = packLeaves(raw.Coords, d, nil, t.nodes, leafList, nil)
	}
	// The stored box must be finite and contain every point. One pass
	// proves both box sanity and coordinate finiteness: a NaN or ±Inf
	// coordinate cannot satisfy min ≤ v ≤ max against finite bounds (and a
	// NaN would disable every pruning comparison in the kernels). A box
	// looser than the tight bounding hull is accepted — it only feeds the
	// Morton scheduling hint, never a pruning decision.
	mn, mx := raw.BoxMin, raw.BoxMax
	for _, ni := range leafList {
		rows, m := t.leafRows(&t.nodes[ni])
		for j := 0; j < d; j++ {
			for i, v := range rows[j*m : (j+1)*m] {
				if !(v >= mn[j] && v <= mx[j]) {
					return nil, fmt.Errorf("kdtree: coordinate %v at point %d dim %d outside the stored box (or non-finite)",
						v, int(t.nodes[ni].start)+i, j)
				}
			}
		}
	}
	t.ids = raw.IDs
	t.Box = geom.Box{Min: raw.BoxMin, Max: raw.BoxMax}
	t.root = raw.Root
	t.height = int(height)
	t.maxBucket = int(maxBucket)
	t.leaves = len(leafList)
	t.bucketSum = bucketSum
	t.splitBounds = raw.SplitBounds
	return t, nil
}
