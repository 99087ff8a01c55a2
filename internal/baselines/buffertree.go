package baselines

import (
	"sort"

	"panda/internal/geom"
	"panda/internal/kdtree"
	"panda/internal/knnheap"
)

// BufferTree reimplements the buffer kd-tree idea of Gieseke et al. ([18]
// in the paper, the GPU system §VI compares against): queries are not
// answered one at a time; instead they accumulate in per-leaf buffers as
// they reach the tree's bottom, and a leaf is processed (its whole buffer
// scanned against the leaf's points in one dense pass) only once enough
// queries have gathered. Each query may need several top-down passes —
// after a leaf visit, its traversal resumes at the next pending far
// subtree.
//
// The approach trades latency for leaf-scan regularity and is profitable
// when queries vastly outnumber points ([18] used ~500× more queries than
// points); the paper argues (and §VI reports ~3× in PANDA's favor) that
// scientific workloads sit in the opposite regime. RunBufferedKNN exists to
// reproduce that comparison.
type BufferTree struct {
	tree *kdtree.Tree
	// BufferThreshold is how many queries must gather at a leaf before it
	// is processed (0 = process on every flush round).
	BufferThreshold int
}

// NewBufferTree wraps an existing kd-tree with buffered query processing.
func NewBufferTree(tree *kdtree.Tree, threshold int) *BufferTree {
	return &BufferTree{tree: tree, BufferThreshold: threshold}
}

// bufQuery is one in-flight buffered query.
type bufQuery struct {
	idx  int // caller's query index
	q    []float32
	heap *knnheap.Heap
	// pending far subtrees to revisit, with their lower bounds.
	stack []bufFrame
}

type bufFrame struct {
	node int32
	d2   float32
}

// BufferStats reports the batched-execution counters.
type BufferStats struct {
	LeafFlushes   int64 // leaf-buffer scans performed
	QueriesQueued int64 // total query arrivals at leaf buffers
	Rounds        int64 // top-down routing rounds
}

// KNNAll answers k-NN for every query (row-major packed) using buffered
// leaf processing. Results match exact KNN (the buffering changes schedule,
// not pruning semantics).
func (b *BufferTree) KNNAll(queries geom.Points, k int) ([][]kdtree.Neighbor, BufferStats) {
	var stats BufferStats
	n := queries.Len()
	out := make([][]kdtree.Neighbor, n)
	if n == 0 || b.tree.Len() == 0 {
		return out, stats
	}

	root := b.tree.RootForBuffered()
	live := make([]*bufQuery, 0, n)
	for i := 0; i < n; i++ {
		bq := &bufQuery{idx: i, q: queries.At(i), heap: knnheap.New(k)}
		bq.stack = append(bq.stack, bufFrame{node: root, d2: 0})
		live = append(live, bq)
	}

	// Per-leaf buffers, keyed by node index.
	buffers := make(map[int32][]*bufQuery)
	for len(live) > 0 {
		stats.Rounds++
		// Route every live query down to its next leaf.
		for _, bq := range live {
			leaf := b.route(bq)
			if leaf >= 0 {
				buffers[leaf] = append(buffers[leaf], bq)
				stats.QueriesQueued++
			} else {
				// Traversal complete.
				out[bq.idx] = finish(bq)
			}
		}
		// Flush leaf buffers that met the threshold (always flush on the
		// final rounds so traversal drains).
		next := live[:0]
		keys := make([]int32, 0, len(buffers))
		for leaf := range buffers {
			keys = append(keys, leaf)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, leaf := range keys {
			queued := buffers[leaf]
			stats.LeafFlushes++
			b.scanLeafBuffered(leaf, queued)
			next = append(next, queued...)
			delete(buffers, leaf)
		}
		// Queries whose stacks drained finish; the rest continue.
		live2 := next[:0]
		for _, bq := range next {
			if len(bq.stack) == 0 {
				out[bq.idx] = finish(bq)
			} else {
				live2 = append(live2, bq)
			}
		}
		live = live2
	}
	return out, stats
}

func finish(bq *bufQuery) []kdtree.Neighbor {
	items := bq.heap.Sorted()
	nbrs := make([]kdtree.Neighbor, len(items))
	for i, it := range items {
		nbrs[i] = kdtree.Neighbor{ID: it.ID, Dist2: it.Dist2}
	}
	return nbrs
}

// route pops frames until one leads to a leaf (descending via closer-child
// ordering and pushing far children), returning the leaf's node index, or
// -1 when the stack drains.
func (b *BufferTree) route(bq *bufQuery) int32 {
	t := b.tree
	for len(bq.stack) > 0 {
		fr := bq.stack[len(bq.stack)-1]
		bq.stack = bq.stack[:len(bq.stack)-1]
		if fr.d2 >= bq.heap.MaxDist2() {
			continue
		}
		ni := fr.node
		d2 := fr.d2
		for {
			dim, median, left, right, isLeaf := t.NodeInfo(ni)
			if isLeaf {
				return ni
			}
			off := bq.q[dim] - median
			var closer, far int32
			if off < 0 {
				closer, far = left, right
			} else {
				closer, far = right, left
			}
			// Valid lower bound for the far side: its region is inside
			// the parent's (≥ d2) and beyond the split plane (≥ off²).
			farD2 := off * off
			if d2 > farD2 {
				farD2 = d2
			}
			if farD2 < bq.heap.MaxDist2() {
				bq.stack = append(bq.stack, bufFrame{node: far, d2: farD2})
			}
			ni = closer
		}
	}
	return -1
}

// scanLeafBuffered scores a whole buffer of queries against one leaf's
// packed points — the dense rectangular kernel that is the buffer tree's
// reason to exist.
func (b *BufferTree) scanLeafBuffered(leaf int32, queued []*bufQuery) {
	pts, ids := b.tree.LeafPoints(leaf, nil)
	if pts.Len() == 0 {
		return
	}
	dist := make([]float32, pts.Len())
	for _, bq := range queued {
		geom.Dist2Batch(bq.q, pts.Coords, dist)
		bound := bq.heap.MaxDist2()
		for i, d := range dist {
			if d < bound {
				if bq.heap.Push(d, ids.At(i)) {
					bound = bq.heap.MaxDist2()
				}
			}
		}
	}
}
