package kdtree

import (
	"math"
	"math/bits"

	"panda/internal/geom"
	"panda/internal/knnheap"
	"panda/internal/simtime"
)

// Inf2 is the "no radius bound" squared search radius (Algorithm 1's
// default r = ∞).
const Inf2 = float32(math.MaxFloat32)

// Searcher holds the reusable per-thread state for queries against one
// tree: the candidate heap, the leaf-scan scratch buffer, the explicit
// traversal stack, and the radius-search output. A Searcher is not safe for
// concurrent use; create one per goroutine (PANDA's batched query loop keeps
// one per worker thread). After the first query, a Searcher performs no
// steady-state allocations: every query reuses the same heap storage,
// stack, and scratch buffers.
//
// All three entry points run one walk, searchIter, and differ only in the
// pruning bound and the leaf step: Search pushes candidates into the heap
// under a bound that shrinks as the heap fills (Algorithm 1), while
// RadiusSearch and CountWithin keep the bound fixed at r2 and collect or
// count every point below it.
type Searcher struct {
	// Meter, when non-nil, accumulates work units (distance evals, node
	// visits, heap pushes) for the simulated-time model.
	Meter *simtime.Meter

	t       *Tree
	h       *knnheap.Heap
	scratch [geom.MaskBlock]float32 // the leaf kernel's distances
	stack   []frame
	r2cap   float32
	// b caches the current pruning radius r'^2: min(heap max, r2cap) for
	// Search, r2 for the radius walks. It only shrinks during a query, and
	// only leaf scans shrink it, so traversal reads this field instead of
	// re-deriving the bound at every node.
	b     float32
	q     []float32
	stats QueryStats
	// step is the leaf step the entry point chose; out and count are the
	// radius steps' results.
	step  leafStep
	out   []Neighbor
	count int
}

// leafStep selects what searchIter does at a leaf.
type leafStep uint8

const (
	knnStep     leafStep = iota // push candidates into the heap (Search)
	collectStep                 // append every point below r2 to out (RadiusSearch)
	countStep                   // count every point below r2 (CountWithin)
)

// frame is one deferred far child on the explicit traversal stack: visit
// node, whose region (tight bounding box) is at squared distance d2 from
// the query, provided d2 still beats the pruning bound when the frame is
// popped.
type frame struct {
	node int32
	d2   float32
}

// NewSearcher returns a query context for t. Construction is O(height):
// the leaf-scan scratch is one geom.MaskBlock of floats whatever the
// largest leaf, and the traversal stack is sized from the tree height (it
// grows on demand for degenerate trees).
func (t *Tree) NewSearcher() *Searcher {
	return &Searcher{
		t:     t,
		h:     knnheap.New(1),
		stack: make([]frame, 0, t.height+8),
	}
}

// KNN returns the k nearest neighbors of q, sorted by ascending distance
// (ties broken by id). Convenience wrapper that allocates a Searcher.
func (t *Tree) KNN(q []float32, k int) []Neighbor {
	res, _ := t.NewSearcher().Search(q, k, Inf2, nil)
	return res
}

// Search implements Algorithm 1: find up to k nearest neighbors of q within
// squared search radius r2 (use Inf2 for unbounded). The r2 bound is what a
// remote rank receives along with a forwarded query — "as we also received
// r′ with each query, local KNN search performs early pruning" (§III-B
// step 4). Results are appended to out (which may be nil) and returned with
// per-query work stats. When out has capacity for the results, Search
// performs zero allocations — the batched engine relies on this by handing
// each query a pre-sized slot of one flat arena as out.
func (s *Searcher) Search(q []float32, k int, r2 float32, out []Neighbor) ([]Neighbor, QueryStats) {
	if k <= 0 || s.t.Len() == 0 {
		return out, QueryStats{}
	}
	s.h.Reset(k)
	// A push needs d < r' ≤ r2, so every retained item is already inside
	// the radius: the heap is the answer.
	s.walk(q, r2, min(s.h.MaxDist2(), r2), knnStep)
	for _, it := range s.h.SortedInPlace() {
		out = append(out, Neighbor{ID: it.ID, Dist2: it.Dist2})
	}
	return out, s.stats
}

// walk is the prologue and epilogue the three entry points share: check
// q, run searchIter from the initial bound b with the given leaf step, and
// charge the Meter.
func (s *Searcher) walk(q []float32, r2cap, b float32, step leafStep) {
	if len(q) != s.t.dims {
		panic("kdtree: query dimensionality mismatch")
	}
	s.q, s.r2cap, s.b, s.step = q, r2cap, b, step
	s.stats, s.count = QueryStats{}, 0
	s.searchIter()
	if s.Meter != nil {
		s.Meter.Add(simtime.KNodeVisit, s.stats.NodesVisited)
		s.Meter.Add(simtime.KDist, s.stats.PointsScanned*int64(s.t.dims))
		s.Meter.Add(simtime.KHeap, s.stats.HeapPushes)
	}
}

// searchIter is Algorithm 1 over an explicit stack instead of recursion,
// and the only traversal of the tree: descend along closer children (chosen
// by split-plane side, the same structural order as the recursive kernel),
// defer each far child with a lower bound on its region's squared distance,
// and re-check every deferred subtree against the then-current pruning
// bound when popped. Fixed-radius search is the same walk with the bound
// held at r2: it never shrinks, so the pop-time re-check always passes.
//
// The bound is the incremental sliding-gap form: the carried d2 replaces
// its contribution along the split dimension with the distance from q to
// the child's actual point interval (read from splitBounds), not to the
// split plane. That sees the empty gap between the two children — a
// strictly tighter lower bound than the recursive kernel's plane offset,
// so this visits a subset of the nodes the recursion did (the closer child
// can be pruned too, when even its tight interval is beyond r') while
// pushing the identical candidate sequence — neighbor sets are
// bit-identical, because a subtree skipped by a valid lower bound holds
// only points the strict d < r' filter would reject.
func (s *Searcher) searchIter() {
	stack := s.stack[:0]
	t := s.t
	nodes := t.nodes
	q := s.q
	visited := int64(0)
	ni := s.t.root
	d2 := float32(0)
	for {
		// Descend toward the query's leaf, deferring viable far children
		// (Alg. 1 line 22: push C2 with its region distance d').
		for {
			n := &nodes[ni]
			visited++
			if n.dim == leafDim {
				if s.step == knnStep {
					s.scanLeaf(n)
				} else {
					s.radiusScanLeaf(n)
				}
				break
			}
			// Sliding-gap child bounds: replace this dimension's
			// contribution to d2 with the distance from q to each
			// child's actual point interval ([lo,lowMax] left,
			// [highMin,hi] right). Deeper boxes only shrink, so this
			// stays a valid lower bound on the distance to any point in
			// the child.
			v := q[n.dim]
			b4 := t.splitBounds[ni*4 : ni*4+4 : ni*4+4]
			lo, hi, lowMax, highMin := b4[0], b4[1], b4[2], b4[3]
			var old float32
			if v < lo {
				old = lo - v
			} else if v > hi {
				old = v - hi
			}
			var leftDd, rightDd float32
			if v < lo {
				leftDd = lo - v
			} else if v > lowMax {
				leftDd = v - lowMax
			}
			if v < highMin {
				rightDd = highMin - v
			} else if v > hi {
				rightDd = v - hi
			}
			base := d2 - old*old
			var closer, far int32
			var closerD2, farD2 float32
			if v < n.median {
				closer, far = n.left, n.right
				closerD2, farD2 = base+leftDd*leftDd, base+rightDd*rightDd
			} else {
				closer, far = n.right, n.left
				closerD2, farD2 = base+rightDd*rightDd, base+leftDd*leftDd
			}
			// Defer the far child only if it can still beat the current
			// bound. The bound never grows, so a frame failing this test
			// now would also fail the re-check at pop time — skipping the
			// push changes no visit, it just avoids dead stack traffic.
			// A deferred leaf is usually scanned right after the closer
			// subtree, so the rows its first half-scan reads are
			// prefetched now, overlapping their misses with that subtree.
			if farD2 < s.b {
				stack = append(stack, frame{node: far, d2: farD2})
				if fn := &nodes[far]; fn.dim == leafDim {
					if rows, m := t.leafRows(fn); m <= geom.MaskBlock {
						geom.Prefetch(rows[:(t.dims+1)/2*m])
					}
				}
			}
			if closerD2 >= s.b {
				break // even the closer child's tight region is beyond r'
			}
			ni = closer
			d2 = closerD2
		}
		// Unwind: pop deferred far children, re-checking each against the
		// current bound (it may have shrunk since the push).
		advanced := false
		for len(stack) > 0 {
			f := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if f.d2 < s.b {
				ni = f.node
				d2 = f.d2
				advanced = true
				break
			}
		}
		if !advanced {
			break
		}
	}
	s.stats.NodesVisited += visited
	s.stack = stack[:0] // keep any capacity growth for the next query
}

// leafMask is the leaf kernel of both leaf steps, at every dimensionality:
// it scores up to geom.MaskBlock points of one leaf-major leaf, reading
// each dimension's row of the block with 8-point loads where the CPU has
// AVX2. Tests swap in geom.Dist2MaskGo to check that the SIMD path changes
// no answer and no QueryStats count.
var leafMask = geom.Dist2Mask

// scanLeaf is the KNN leaf step: it exhaustively scores a packed bucket
// (§III-C: "This computation is very SIMD-friendly as the required points
// are localized in memory"). It scores up to geom.MaskBlock points at a
// time with the candidate-mask kernel under the bound at the block's start
// (the AVX2 kernel where the CPU has it), then walks only the candidates,
// in point order, re-checking each against the current, shrinking bound
// before it is pushed — the same pushes in the same order as a scalar
// filter over every point.
func (s *Searcher) scanLeaf(n *node) {
	rows, m := s.t.leafRows(n)
	lo := int(n.start)
	s.stats.PointsScanned += int64(m)
	ids := &s.t.ids
	b := s.b
	r2cap := s.r2cap
	pushes := int64(0)
	dist := &s.scratch
	for c := 0; c < m; c += geom.MaskBlock {
		for mask := leafMask(s.q, rows[c:], m, min(m-c, geom.MaskBlock), dist[:], b); mask != 0; mask &= mask - 1 {
			i := bits.TrailingZeros64(mask)
			if d := dist[i]; d < b {
				var ok bool
				if ok, b = s.h.PushBound(d, ids.At(lo+c+i), r2cap); ok {
					pushes++
				}
			}
		}
	}
	s.b = b
	s.stats.HeapPushes += pushes
}

// radiusScanLeaf is the radius leaf step: under the fixed bound the
// candidate mask is the exact answer set, counted and, for RadiusSearch,
// walked in point order.
func (s *Searcher) radiusScanLeaf(n *node) {
	rows, m := s.t.leafRows(n)
	lo := int(n.start)
	s.stats.PointsScanned += int64(m)
	dist := &s.scratch
	for c := 0; c < m; c += geom.MaskBlock {
		mask := leafMask(s.q, rows[c:], m, min(m-c, geom.MaskBlock), dist[:], s.b)
		s.count += bits.OnesCount64(mask)
		for ; s.step == collectStep && mask != 0; mask &= mask - 1 {
			i := bits.TrailingZeros64(mask)
			s.out = append(s.out, Neighbor{ID: s.t.ids.At(lo + c + i), Dist2: dist[i]})
		}
	}
}
