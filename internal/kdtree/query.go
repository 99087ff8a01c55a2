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

// Searcher holds the reusable per-thread state for KNN queries against one
// tree: the candidate heap, the per-dimension offset vector for incremental
// distance bounds, the leaf-scan scratch buffer, and the explicit traversal
// stack. A Searcher is not safe for concurrent use; create one per goroutine
// (PANDA's batched query loop keeps one per worker thread). After the first
// query, a Searcher performs no steady-state allocations: every query reuses
// the same heap storage, stack, and scratch buffers.
type Searcher struct {
	// Meter, when non-nil, accumulates work units (distance evals, node
	// visits, heap pushes) for the simulated-time model.
	Meter *simtime.Meter

	t       *Tree
	h       *knnheap.Heap
	scratch []float32
	stack   []frame
	r2cap   float32
	// b caches the current pruning radius r'^2 = min(heap max, r2cap);
	// it only shrinks during a query, and only leaf scans shrink it, so
	// traversal reads this field instead of re-deriving the bound at
	// every node.
	b     float32
	q     []float32
	stats QueryStats
}

// frame is one deferred far child on the explicit traversal stack: visit
// node, whose region (tight bounding box) is at squared distance d2 from
// the query, provided d2 still beats the pruning bound when the frame is
// popped.
type frame struct {
	node int32
	d2   float32
}

// NewSearcher returns a query context for t. Construction is O(height): the
// leaf-scan scratch is sized from the MaxBucket cached at Build, and the
// traversal stack from the tree height (it grows on demand for degenerate
// trees).
func (t *Tree) NewSearcher() *Searcher {
	maxBucket := t.maxBucket
	if maxBucket < t.opts.BucketSize {
		maxBucket = t.opts.BucketSize
	}
	return &Searcher{
		t:       t,
		h:       knnheap.New(1),
		scratch: make([]float32, maxBucket),
		stack:   make([]frame, 0, t.height+8),
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
	s.stats = QueryStats{}
	if k <= 0 || s.t.Len() == 0 {
		return out, s.stats
	}
	if len(q) != s.t.Points.Dims {
		panic("kdtree: query dimensionality mismatch")
	}
	s.h.Reset(k)
	s.q = q
	s.r2cap = r2
	s.updateBound()
	s.searchIter()

	items := s.h.SortedInPlace()
	for _, it := range items {
		// Enforce the radius bound exactly: the heap may briefly hold
		// candidates at distance == r2 boundary kept out by pruning
		// elsewhere; filter to the closed ball semantics of Alg. 1
		// (d[x] < r').
		if it.Dist2 < r2 || r2 == Inf2 {
			out = append(out, Neighbor{ID: it.ID, Dist2: it.Dist2})
		}
	}
	if s.Meter != nil {
		s.Meter.Add(simtime.KNodeVisit, s.stats.NodesVisited)
		s.Meter.Add(simtime.KDist, s.stats.PointsScanned*int64(s.t.Points.Dims))
		s.Meter.Add(simtime.KHeap, s.stats.HeapPushes)
	}
	return out, s.stats
}

// updateBound refreshes the cached pruning radius r'^2 after a heap change:
// the distance to the worst retained candidate, capped by the caller-
// provided search radius.
func (s *Searcher) updateBound() {
	b := s.h.MaxDist2()
	if s.r2cap < b {
		b = s.r2cap
	}
	s.b = b
}

// searchIter is Algorithm 1 over an explicit stack instead of recursion:
// descend along closer children (chosen by split-plane side, the same
// structural order as the recursive kernel), defer each far child with a
// lower bound on its region's squared distance, and re-check every deferred
// subtree against the then-current pruning bound when popped.
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
				s.scanLeaf(n)
				break
			}
			// Sliding-gap child bounds: replace this dimension's
			// contribution to d2 with the distance from q to each
			// child's actual point interval ([lo,lowMax] left,
			// [highMin,hi] right). Deeper boxes only shrink, so this
			// stays a valid lower bound on the distance to any point in
			// the child. NOTE: duplicated verbatim in radiusIter
			// (radius.go) because a helper call per node costs ~8% of
			// query time (cost 155 > Go's inline budget); keep the two
			// copies in sync — the differential and brute-force tests
			// in iterative_test.go and radius_test.go guard the math.
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
			if farD2 < s.b {
				stack = append(stack, frame{node: far, d2: farD2})
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

// leafMask is the leaf kernel of the ≥4-D scans. Tests swap in
// geom.Dist2MaskGo to check that the SIMD path changes no answer and no
// QueryStats count.
var leafMask = geom.Dist2Mask

// scanLeaf exhaustively scores a packed bucket (§III-C: "This computation is
// very SIMD-friendly as the required points are localized in memory"). Low
// dimensionalities fuse distance and selection into one register-resident
// pass. Higher dimensionalities score up to geom.MaskBlock points at a time
// with the candidate-mask kernel under the bound at the block's start (the
// AVX2 kernel where the CPU has it), then walk only the candidates, in point
// order, re-checking each against the current, shrinking bound before it is
// pushed — the same pushes in the same order as a scalar filter over every
// point.
func (s *Searcher) scanLeaf(n *node) {
	lo, hi := int(n.start), int(n.end)
	if lo == hi {
		return
	}
	cnt := hi - lo
	dims := s.t.Points.Dims
	s.stats.PointsScanned += int64(cnt)
	switch dims {
	case 2:
		s.scanLeaf2(lo, hi)
		return
	case 3:
		s.scanLeaf3(lo, hi)
		return
	}
	coords := s.t.Points.Coords
	ids := &s.t.ids
	b := s.b
	r2cap := s.r2cap
	pushes := int64(0)
	for c := lo; c < hi; c += geom.MaskBlock {
		e := min(c+geom.MaskBlock, hi)
		dist := s.scratch[:e-c]
		for m := leafMask(s.q, coords[c*dims:e*dims], dist, b); m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			if d := dist[i]; d < b {
				var ok bool
				if ok, b = s.h.PushBound(d, ids.At(c+i), r2cap); ok {
					pushes++
				}
			}
		}
	}
	s.b = b
	s.stats.HeapPushes += pushes
}

// scanLeaf2 and scanLeaf3 fuse Dist2Batch with the selection filter for the
// 2-D/3-D particle workloads: one pass, query coordinates in registers, no
// scratch-buffer round trip. Accumulation order matches the batch kernels
// (and hence scalar Dist2) exactly.
func (s *Searcher) scanLeaf2(lo, hi int) {
	q0, q1 := s.q[0], s.q[1]
	coords := s.t.Points.Coords
	ids := &s.t.ids
	h := s.h
	b := s.b
	r2cap := s.r2cap
	pushes := int64(0)
	for i, j := lo, lo*2; i < hi; i, j = i+1, j+2 {
		c := coords[j : j+2 : j+2]
		d0 := q0 - c[0]
		d1 := q1 - c[1]
		d := d0*d0 + d1*d1
		if d < b {
			var ok bool
			if ok, b = h.PushBound(d, ids.At(i), r2cap); ok {
				pushes++
			}
		}
	}
	s.b = b
	s.stats.HeapPushes += pushes
}

func (s *Searcher) scanLeaf3(lo, hi int) {
	q0, q1, q2 := s.q[0], s.q[1], s.q[2]
	coords := s.t.Points.Coords
	ids := &s.t.ids
	h := s.h
	b := s.b
	r2cap := s.r2cap
	pushes := int64(0)
	i, j := lo, lo*3
	// Two points per iteration for instruction-level parallelism; the
	// candidate checks stay strictly in point order, so heap evolution
	// (and hence tie retention) is identical to the rolled loop.
	for ; i+2 <= hi; i, j = i+2, j+6 {
		c := coords[j : j+6 : j+6]
		e0 := q0 - c[0]
		e1 := q1 - c[1]
		e2 := q2 - c[2]
		f0 := q0 - c[3]
		f1 := q1 - c[4]
		f2 := q2 - c[5]
		de := e0*e0 + e1*e1 + e2*e2
		df := f0*f0 + f1*f1 + f2*f2
		if de < b {
			var ok bool
			if ok, b = h.PushBound(de, ids.At(i), r2cap); ok {
				pushes++
			}
		}
		if df < b {
			var ok bool
			if ok, b = h.PushBound(df, ids.At(i+1), r2cap); ok {
				pushes++
			}
		}
	}
	for ; i < hi; i, j = i+1, j+3 {
		c := coords[j : j+3 : j+3]
		d0 := q0 - c[0]
		d1 := q1 - c[1]
		d2 := q2 - c[2]
		d := d0*d0 + d1*d1 + d2*d2
		if d < b {
			var ok bool
			if ok, b = h.PushBound(d, ids.At(i), r2cap); ok {
				pushes++
			}
		}
	}
	s.b = b
	s.stats.HeapPushes += pushes
}
