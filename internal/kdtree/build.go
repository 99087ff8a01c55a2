package kdtree

import (
	"math"
	"sort"
	"sync/atomic"

	"panda/internal/geom"
	"panda/internal/par"
	"panda/internal/sample"
	"panda/internal/simtime"
)

// Real-parallelism grain constants. Chunk boundaries are a pure function of
// the range length and these constants — never of the worker count — so
// every chunk-ordered reduction is bit-identical whatever pool executes it.
const (
	// parGrain is the minimum range size before a cooperative pass fans
	// out to the worker pool; below it sequential is always cheaper.
	parGrain = 8192
	// partChunk is the fixed chunk width of classify/scatter/histogram/
	// min-max passes inside a single split.
	partChunk = 4096
	// packChunk is the fixed row-chunk width of the id-packing pass.
	packChunk = 8192
	// leafChunk is the fixed leaf-chunk width of the point-packing pass
	// (about packChunk points at the default bucket size).
	leafChunk = 256
	// nodeChunk is the per-level node-chunk width of the bounding-box
	// passes (a leaf chunk scans up to nodeChunk buckets of points).
	nodeChunk = 64
	// seqBoxNodes is the node count below which computeNodeBoxes runs the
	// plain reverse-order sequential pass.
	seqBoxNodes = 2048
)

// Build constructs a kd-tree over pts. ids maps point index -> caller id and
// may be nil, in which case point indices are used. pts and ids are not
// modified; the tree holds a packed copy (the paper's SIMD-packing step) and
// its own id column (IDTable: 4 bytes per point unless the ids span 2^32 or
// more values).
//
// Construction is wall-clock parallel: every stage fans out to a pool of
// min(opts.Threads, GOMAXPROCS) real workers, and the produced tree —
// node array, packed point order, ids, split bounds, box — is byte-identical
// for every Threads value and worker count (the node array is canonicalized
// to DFS preorder, so the layout is a pure function of the tree shape).
// Simulated-time charging is untouched: meters record the same units to the
// same simulated threads as the sequential schedule.
func Build(pts geom.Points, ids []int64, opts Options) *Tree {
	opts = opts.withDefaults()
	n := pts.Len()
	t := &Tree{opts: opts}
	if ids != nil && len(ids) != n {
		panic("kdtree: len(ids) != number of points")
	}
	t.dims = pts.Dims
	if n == 0 {
		t.Box = geom.BoundingBox(pts)
		return t
	}

	b := &builder{
		coords: pts.Coords,
		dims:   pts.Dims,
		opts:   opts,
		pool:   par.NewPool(opts.Threads),
		idx:    make([]int32, n),
	}
	for i := range b.idx {
		b.idx[i] = int32(i)
	}

	root, height := b.run()
	t.nodes, t.root = canonicalize(b.nodes, root)
	t.height = height
	leaves := make([]int32, 0, (len(t.nodes)+1)/2) // a full binary tree
	for ni, nd := range t.nodes {
		if nd.dim == leafDim {
			leaves = append(leaves, int32(ni))
			b := int(nd.end - nd.start)
			t.bucketSum += int64(b)
			if b > t.maxBucket {
				t.maxBucket = b
			}
		}
	}
	t.leaves = len(leaves)

	// SIMD packing: shuffle the dataset so each bucket is contiguous and
	// leaf-major. The index array is already in final leaf order, so
	// packing is a transposing gather, chunked over the pool by leaf.
	pack := b.charger(PhasePack)
	t.coords = packLeaves(pts.Coords, pts.Dims, b.idx, t.nodes, leaves, b.pool)
	t.ids = packIDs(ids, b.idx, b.pool)
	idBytes := int64(8) // the wide table moves an int64 per id, the narrow one a uint32
	if t.ids.Narrow() {
		idBytes = 4
	}
	pack.all(simtime.KPointMove, int64(n)*(int64(pts.Dims)*4+idBytes))

	t.Box = geom.BoundingBoxPar(pts, b.pool)
	t.computeNodeBoxes(b.pool)
	return t
}

// packLeaves returns the leaf-major packed copy of the row-major points
// src: each leaf [lo,hi) of nodes receives the points src[idx[p]] for p in
// [lo,hi) — src[p] when idx is nil — as dims rows of hi-lo floats at
// [lo*dims, hi*dims). idx, when given, is a permutation of all the points.
// Every leaf writes only its own range, so the pass chunks over the pool
// by leaf and its bytes do not depend on the worker count.
func packLeaves(src []float32, dims int, idx []int32, nodes []node, leaves []int32, pool *par.Pool) []float32 {
	coords := make([]float32, len(src))
	pool.ForChunks(len(leaves), leafChunk, func(_, lo, hi int) {
		for _, ni := range leaves[lo:hi] {
			n := &nodes[ni]
			m := int(n.end - n.start)
			dst := coords[int(n.start)*dims : int(n.end)*dims]
			for i := 0; i < m; i++ {
				p := int(n.start) + i
				if idx != nil {
					p = int(idx[p])
				}
				for j, v := range src[p*dims : p*dims+dims] {
					dst[j*m+i] = v
				}
			}
		}
	})
	return coords
}

// canonicalize renumbers the node array into DFS preorder (root, left
// subtree, right subtree). The historical allocation order depends on where
// the breadth-first stage stopped — a function of Threads — while the tree
// *shape* does not; preorder makes the array layout a pure function of the
// shape, so Tree.Raw() is byte-identical across thread counts. It also puts
// every left child right after its parent, the hot direction of the query
// descent. Children land strictly after their parent, the invariant the
// snapshot codec validates.
func canonicalize(nodes []node, root int32) ([]node, int32) {
	if len(nodes) == 0 {
		return nodes, root
	}
	renum := make([]int32, len(nodes))
	order := make([]int32, 0, len(nodes))
	stack := make([]int32, 0, 64)
	stack = append(stack, root)
	for len(stack) > 0 {
		ni := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		renum[ni] = int32(len(order))
		order = append(order, ni)
		nd := nodes[ni]
		if nd.dim != leafDim {
			stack = append(stack, nd.right, nd.left) // left pops first
		}
	}
	out := make([]node, len(order))
	for newIdx, old := range order {
		nd := nodes[old]
		if nd.dim != leafDim {
			nd.left = renum[nd.left]
			nd.right = renum[nd.right]
		}
		out[newIdx] = nd
	}
	return out, 0
}

// computeNodeBoxes derives each node's tight bounding box over its packed
// point range (leaves by a direct scan, internal nodes as the union of
// their children) and distills the query-side pruning data into
// splitBounds: per internal node, the point extents along its split
// dimension — own [lo, hi], left child's max, right child's min. The full
// boxes are scratch; only the 4-float split intervals are retained.
//
// The O(n·dims) leaf scans dominate, so the pass runs bottom-up by level:
// nodes are bucketed by depth, and each level's chunk of nodes fans out to
// the pool (every node writes only its own box slot; parents read children
// finished one level earlier). Small trees take a plain reverse-array pass —
// children sit strictly after their parent in the canonical preorder, so
// reverse index order is already bottom-up. Both schedules run the same
// per-node float ops and produce identical bytes.
func (t *Tree) computeNodeBoxes(pool *par.Pool) {
	d := t.dims
	nn := len(t.nodes)
	if nn == 0 || d == 0 {
		return
	}
	boxMin := make([]float32, nn*d)
	boxMax := make([]float32, nn*d)
	t.splitBounds = make([]float32, nn*4)

	if pool.Workers() <= 1 || nn < seqBoxNodes {
		for ni := nn - 1; ni >= 0; ni-- {
			t.nodeBox(boxMin, boxMax, int32(ni))
		}
		return
	}

	// Depth labeling: one forward pass (children strictly after parents).
	depth := make([]int32, nn)
	depth[t.root] = 1
	maxDepth := int32(1)
	for ni := 0; ni < nn; ni++ {
		nd := t.nodes[ni]
		if nd.dim != leafDim {
			dd := depth[ni] + 1
			depth[nd.left], depth[nd.right] = dd, dd
			if dd > maxDepth {
				maxDepth = dd
			}
		}
	}
	// Bucket nodes by depth (counting sort, stable by node index).
	starts := make([]int32, maxDepth+2)
	for _, dp := range depth {
		starts[dp+1]++
	}
	for i := 1; i < len(starts); i++ {
		starts[i] += starts[i-1]
	}
	byDepth := make([]int32, nn)
	cursor := append([]int32(nil), starts...)
	for ni := 0; ni < nn; ni++ {
		byDepth[cursor[depth[ni]]] = int32(ni)
		cursor[depth[ni]]++
	}
	// Deepest level first; barrier between levels (ForChunks returns only
	// when the level is done), so parents always see finished children.
	for lvl := maxDepth; lvl >= 1; lvl-- {
		nodesAt := byDepth[starts[lvl]:starts[lvl+1]]
		pool.ForChunks(len(nodesAt), nodeChunk, func(_, lo, hi int) {
			for _, ni := range nodesAt[lo:hi] {
				t.nodeBox(boxMin, boxMax, ni)
			}
		})
	}
}

// nodeBox fills node ni's box (leaf: the min and max of each of its rows;
// internal: union of its already-computed children) and, for internal
// nodes, its splitBounds entry.
func (t *Tree) nodeBox(boxMin, boxMax []float32, ni int32) {
	d := t.dims
	n := t.nodes[ni]
	mn := boxMin[int(ni)*d : int(ni)*d+d]
	mx := boxMax[int(ni)*d : int(ni)*d+d]
	if n.dim == leafDim {
		rows, m := t.leafRows(&n)
		if m == 0 {
			// Empty leaf: inverted box, infinitely far from any query.
			posInf := float32(math.Inf(1))
			for i := range mn {
				mn[i] = posInf
				mx[i] = -posInf
			}
			return
		}
		for j := range mn {
			row := rows[j*m : (j+1)*m]
			lo, hi := row[0], row[0]
			for _, v := range row[1:] {
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			mn[j], mx[j] = lo, hi
		}
		return
	}
	lmn := boxMin[int(n.left)*d : int(n.left)*d+d]
	lmx := boxMax[int(n.left)*d : int(n.left)*d+d]
	rmn := boxMin[int(n.right)*d : int(n.right)*d+d]
	rmx := boxMax[int(n.right)*d : int(n.right)*d+d]
	for i := 0; i < d; i++ {
		mn[i] = min(lmn[i], rmn[i])
		mx[i] = max(lmx[i], rmx[i])
	}
	dim := int(n.dim)
	sb := t.splitBounds[int(ni)*4 : int(ni)*4+4]
	sb[0] = mn[dim]  // own interval lower bound along split dim
	sb[1] = mx[dim]  // own interval upper bound
	sb[2] = lmx[dim] // left child's max: left interval is [lo, lowMax]
	sb[3] = rmn[dim] // right child's min: right interval is [highMin, hi]
}

// quickselectThreshold is the node size below which the exact-median
// quickselect replaces the sampled histogram during construction.
const quickselectThreshold = 8192

// builder holds construction state. The point coordinates are never moved;
// only idx is permuted (the paper's shared-memory optimization of moving
// indexes, not values).
type builder struct {
	coords []float32
	dims   int
	opts   Options
	pool   *par.Pool
	idx    []int32
	nodes  []node
	sc     buildScratch
}

// buildScratch is the cooperative-stage partition scratch: the class,
// destination and scatter arrays of the parallel Dutch-flag pass plus the
// equal-run ring. Only the single-threaded stage-1 orchestrator uses it
// (thread-parallel subtree tasks partition sequentially in place), so one
// instance sized to the root range serves the whole build.
type buildScratch struct {
	cls []uint8
	dst []int32
	out []int32
	eq  []int32
}

func (s *buildScratch) grow(n int) {
	if cap(s.cls) >= n {
		return
	}
	s.cls = make([]uint8, n)
	s.dst = make([]int32, n)
	s.out = make([]int32, n)
	s.eq = make([]int32, n)
}

// task is a pending subtree: build over idx[lo:hi) into node slot.
type task struct {
	lo, hi int32
	slot   int32 // index into builder.nodes to fill
	depth  int
}

// charger routes work units to the recorder (or drops them when no recorder
// is attached).
type charger struct {
	pm      *simtime.PhaseMeter
	threads int
}

func (b *builder) charger(phase string) charger {
	if b.opts.Recorder == nil {
		return charger{threads: b.opts.Threads}
	}
	return charger{pm: b.opts.Recorder.Phase(phase), threads: b.opts.Threads}
}

// all charges units for work all threads cooperate on: each simulated
// thread performs ~units/threads of it, so each meter gets that share.
func (c charger) all(k simtime.Kind, units int64) {
	if c.pm == nil {
		return
	}
	share := units / int64(c.threads)
	rem := units - share*int64(c.threads)
	for t := 0; t < c.threads; t++ {
		u := share
		if t == 0 {
			u += rem
		}
		c.pm.Thread(t).Add(k, u)
	}
}

// one charges units to a single simulated thread.
func (c charger) one(thread int, k simtime.Kind, units int64) {
	if c.pm == nil {
		return
	}
	c.pm.Thread(thread%c.threads).Add(k, units)
}

// chargeEv is one deferred simtime charge. Compute phases accumulate events
// and the publish step replays them in task order, because all() splits each
// call's units across the thread meters with the remainder on thread 0 —
// per-thread state depends on call boundaries, not just totals, and it must
// stay byte-identical to the sequential schedule.
type chargeEv struct {
	k simtime.Kind
	u int64
}

// splitRes is one task's computed split decision: the chosen dimension and
// value, the split position (relative to the task range), and the charge
// events to replay. ok=false means the points are indistinguishable and the
// task must become a (possibly oversized) leaf.
type splitRes struct {
	dim    int32
	median float32
	mid    int
	ok     bool
	events []chargeEv
}

// run executes the three construction stages and returns the root node
// index and tree height.
func (b *builder) run() (int32, int) {
	rootSlot := b.newNode()
	level := []task{{lo: 0, hi: int32(len(b.idx)), slot: rootSlot, depth: 1}}
	maxHeight := 1

	// Stage 1: data-parallel breadth-first levels. All threads cooperate
	// on each split until there are enough branches for thread-level
	// parallelism. Each level is two phases: compute (parallel — split
	// decisions and index permutation over disjoint ranges) and publish
	// (sequential, task order — node allocation and meter charges, so the
	// node array and recorder state match the sequential schedule exactly).
	switchAt := b.opts.Threads * threadSwitchFactor
	dp := b.charger(PhaseDataParallel)
	var res []splitRes
	for len(level) > 0 && len(level) < switchAt {
		if cap(res) < len(level) {
			res = make([]splitRes, len(level))
		}
		res = res[:len(level)]
		b.computeLevel(level, res)

		var next []task
		progressed := false
		for i, tk := range level {
			if tk.depth > maxHeight {
				maxHeight = tk.depth
			}
			if int(tk.hi-tk.lo) <= b.opts.BucketSize {
				b.setLeaf(tk)
				continue
			}
			r := res[i]
			for _, ev := range r.events {
				dp.all(ev.k, ev.u)
			}
			if !r.ok {
				b.setLeaf(tk)
				continue
			}
			progressed = true
			l := b.newNode()
			rr := b.newNode()
			b.nodes[tk.slot] = node{dim: r.dim, median: r.median, left: l, right: rr}
			next = append(next,
				task{lo: tk.lo, hi: tk.lo + int32(r.mid), slot: l, depth: tk.depth + 1},
				task{lo: tk.lo + int32(r.mid), hi: tk.hi, slot: rr, depth: tk.depth + 1})
		}
		level = next
		if !progressed {
			break
		}
	}

	// Stage 2: thread-parallel. Remaining tasks are balanced over the
	// simulated threads (longest-processing-time assignment, mirroring
	// the paper's load-balancing concern) and each builds its subtrees
	// depth-first.
	if len(level) > 0 {
		h := b.threadParallel(level)
		if h > maxHeight {
			maxHeight = h
		}
	}
	return rootSlot, maxHeight
}

// computeLevel computes the split decision (and performs the index
// permutation) for every oversized task of a level. With few branches, all
// workers cooperate inside each split in turn — the paper's data-parallel
// regime; once branches comfortably outnumber workers, whole tasks fan out
// with sequential interiors. The schedules are interchangeable because
// every inner pass is execution-strategy-free: fixed chunk boundaries,
// chunk-ordered reductions, disjoint writes.
func (b *builder) computeLevel(level []task, res []splitRes) {
	w := b.pool.Workers()
	if w > 1 && len(level) >= 2*w {
		b.pool.ForEach(len(level), func(i int) {
			tk := level[i]
			if int(tk.hi-tk.lo) <= b.opts.BucketSize {
				return
			}
			res[i] = b.computeSplit(nil, tk)
		})
		return
	}
	for i, tk := range level {
		if int(tk.hi-tk.lo) <= b.opts.BucketSize {
			continue
		}
		res[i] = b.computeSplit(b.pool, tk)
	}
}

// computeSplit runs split on task tk, logging its work units as the
// result's charge events for the task-ordered replay. p is the pool
// cooperating on this split's interior passes (nil for a sequential
// interior).
func (b *builder) computeSplit(p *par.Pool, tk task) (r splitRes) {
	dim, median, mid, ok := b.split(p, b.idx[tk.lo:tk.hi], func(k simtime.Kind, u int64) {
		r.events = append(r.events, chargeEv{k, u})
	})
	r.dim, r.median, r.mid, r.ok = int32(dim), median, mid, ok
	return r
}

// split is the one split routine of both build stages: it chooses the split
// dimension of idx, charges the dimension sample, and partitions idx at the
// configured split value; when the chosen dimension is constant it tries
// the remaining dimensions in order. charge receives every work unit. It
// returns the dimension, the split value and the split position relative to
// idx; ok=false means the points are indistinguishable (all-identical
// points become one leaf).
func (b *builder) split(p *par.Pool, idx []int32, charge func(simtime.Kind, int64)) (dim int, median float32, mid int, ok bool) {
	dim = sample.ChooseDimension(b.coords, b.dims, idx, b.opts.DimSampleCap, b.opts.SplitPolicy)
	sampled := b.opts.DimSampleCap
	if sampled <= 0 || sampled > len(idx) {
		sampled = len(idx)
	}
	charge(simtime.KSample, int64(sampled))
	if mid, median, ok = b.partitionAt(p, idx, dim, charge); ok {
		return dim, median, mid, true
	}
	for d := 0; d < b.dims; d++ {
		if d == dim {
			continue
		}
		if mid, median, ok = b.partitionAt(p, idx, d, charge); ok {
			return d, median, mid, true
		}
	}
	return 0, 0, 0, false
}

func (b *builder) newNode() int32 {
	b.nodes = append(b.nodes, node{})
	return int32(len(b.nodes) - 1)
}

func (b *builder) setLeaf(tk task) {
	b.nodes[tk.slot] = node{dim: leafDim, start: tk.lo, end: tk.hi}
}

// partitionAt selects the split value of idx along dim per the configured
// SplitValuePolicy, then three-way partitions idx around it. It returns the
// split position (relative to idx), the split value, and ok=false when no
// split is possible (constant values along dim).
func (b *builder) partitionAt(p *par.Pool, idx []int32, dim int, charge func(simtime.Kind, int64)) (mid int, median float32, ok bool) {
	switch b.opts.SplitValue {
	case SplitMeanSample:
		return b.partitionMeanSample(p, idx, dim, charge)
	case SplitMidRange:
		return b.partitionMidRange(p, idx, dim, charge)
	}
	n := len(idx)
	// Small nodes: exact quickselect beats the sampling machinery (fewer
	// passes, perfectly balanced). The sampled histogram exists for nodes
	// far larger than the sample size, where an exact median would cost a
	// full sort-scale pass.
	if n <= quickselectThreshold {
		return b.exactMedianSplit(p, idx, dim, charge)
	}
	s := sample.Sample(b.coords, b.dims, dim, idx, medianSamples)
	charge(simtime.KSample, int64(len(s)))
	iv := sample.NewIntervals(s)
	if len(iv.Points) <= 1 {
		// 0 or 1 distinct sampled values: check if the range is truly
		// constant; a constant range cannot be split on this dim.
		if b.constantDim(p, idx, dim) {
			return 0, 0, false
		}
		// Rare: sampling missed the variation. Fall back to exact
		// median selection.
		return b.exactMedianSplit(p, idx, dim, charge)
	}
	hist := iv.HistogramPar(b.coords, b.dims, dim, idx, p)
	charge(simtime.KHistScan, int64(n))
	median, _ = iv.ApproxMedian(hist)

	ltEnd, eqEnd := b.partition3(p, idx, dim, median)
	charge(simtime.KPartition, int64(n))
	mid = clamp(n/2, ltEnd, eqEnd)
	if mid == 0 || mid == n {
		// Degenerate approximate split (can happen when the sampled
		// histogram is badly skewed): use the exact median instead.
		return b.exactMedianSplit(p, idx, dim, charge)
	}
	return mid, median, true
}

// partitionMeanSample is the FLANN-style split: value = mean of the first
// 100 points along dim, points < mean left, the rest right (no rebalancing —
// the point of the baseline is to reproduce FLANN's tree shape).
func (b *builder) partitionMeanSample(p *par.Pool, idx []int32, dim int, charge func(simtime.Kind, int64)) (int, float32, bool) {
	n := len(idx)
	m := 100
	if m > n {
		m = n
	}
	var sum float64
	for _, i := range idx[:m] {
		sum += float64(b.coords[int(i)*b.dims+dim])
	}
	v := float32(sum / float64(m))
	charge(simtime.KSample, int64(m))
	ltEnd, eqEnd := b.partition3(p, idx, dim, v)
	charge(simtime.KPartition, int64(n))
	return unbalancedMid(ltEnd, eqEnd, n, v)
}

// partitionMidRange is the ANN-style split: value = midpoint of the actual
// [min,max] along dim. Both sides are non-empty whenever min < max, but
// nothing bounds the imbalance.
func (b *builder) partitionMidRange(p *par.Pool, idx []int32, dim int, charge func(simtime.Kind, int64)) (int, float32, bool) {
	n := len(idx)
	lo, hi := b.minMaxDim(p, idx, dim)
	charge(simtime.KSample, int64(n))
	if lo == hi {
		return 0, 0, false
	}
	v := lo + (hi-lo)/2
	ltEnd, eqEnd := b.partition3(p, idx, dim, v)
	charge(simtime.KPartition, int64(n))
	return unbalancedMid(ltEnd, eqEnd, n, v)
}

// minMaxDim returns the [min, max] of dim over idx. Chunk extents merge in
// chunk order; float32 min/max is order-free, so the result is identical to
// the sequential scan.
func (b *builder) minMaxDim(p *par.Pool, idx []int32, dim int) (float32, float32) {
	n := len(idx)
	if p.Workers() <= 1 || n < parGrain {
		lo := b.coords[int(idx[0])*b.dims+dim]
		hi := lo
		for _, i := range idx[1:] {
			c := b.coords[int(i)*b.dims+dim]
			if c < lo {
				lo = c
			}
			if c > hi {
				hi = c
			}
		}
		return lo, hi
	}
	nc := par.Chunks(n, partChunk)
	mins := make([]float32, nc)
	maxs := make([]float32, nc)
	coords, dims := b.coords, b.dims
	p.ForChunks(n, partChunk, func(c, lo, hi int) {
		mn := coords[int(idx[lo])*dims+dim]
		mx := mn
		for _, i := range idx[lo+1 : hi] {
			v := coords[int(i)*dims+dim]
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		mins[c], maxs[c] = mn, mx
	})
	mn, mx := mins[0], maxs[0]
	for c := 1; c < nc; c++ {
		if mins[c] < mn {
			mn = mins[c]
		}
		if maxs[c] > mx {
			mx = maxs[c]
		}
	}
	return mn, mx
}

// unbalancedMid picks the split position for the baseline policies: strictly
// -less points left, equals right (FLANN/ANN behavior), falling back to the
// other boundary only to guarantee progress.
func unbalancedMid(ltEnd, eqEnd, n int, v float32) (int, float32, bool) {
	mid := ltEnd
	if mid == 0 {
		mid = eqEnd
	}
	if mid == 0 || mid == n {
		return 0, 0, false
	}
	return mid, v, true
}

// constantDim reports whether dim is constant over idx. Chunks compare
// against the shared first value, so the verdict is order-free; a shared
// flag lets later chunks skip work once a difference is found (an
// opportunistic early exit that cannot change the result).
func (b *builder) constantDim(p *par.Pool, idx []int32, dim int) bool {
	first := b.coords[int(idx[0])*b.dims+dim]
	n := len(idx)
	if p.Workers() <= 1 || n < parGrain {
		for _, i := range idx[1:] {
			if b.coords[int(i)*b.dims+dim] != first {
				return false
			}
		}
		return true
	}
	var differs atomic.Bool
	coords, dims := b.coords, b.dims
	p.ForChunks(n, partChunk, func(_, lo, hi int) {
		if differs.Load() {
			return
		}
		for _, i := range idx[lo:hi] {
			if coords[int(i)*dims+dim] != first {
				differs.Store(true)
				return
			}
		}
	})
	return !differs.Load()
}

// exactMedianSplit partitions idx at the true median of dim (quickselect),
// used as the fallback when sampling fails to produce a balanced split.
// The quickselect runs sequentially: its exact permutation feeds the
// partition, and the in-place Hoare scan has no order-preserving parallel
// form — it is the common case only below quickselectThreshold, where
// sequential is the right call anyway. The partition pass after it is the
// parallel Dutch-flag reproduction.
func (b *builder) exactMedianSplit(p *par.Pool, idx []int32, dim int, charge func(simtime.Kind, int64)) (int, float32, bool) {
	n := len(idx)
	quickselect(b.coords, b.dims, dim, idx, n/2)
	median := b.coords[int(idx[n/2])*b.dims+dim]
	ltEnd, eqEnd := b.partition3(p, idx, dim, median)
	charge(simtime.KPartition, int64(3*n)) // select ≈2n + partition n
	mid := clamp(n/2, ltEnd, eqEnd)
	if mid == 0 || mid == n {
		return 0, 0, false
	}
	return mid, median, true
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Partition classes for the parallel Dutch-flag pass.
const (
	clsLT = uint8(0)
	clsEQ = uint8(1)
	clsGT = uint8(2)
)

// partition3 reorders idx so values < v come first, values == v next,
// values > v last, reproducing the sequential Dutch-national-flag pass
// byte for byte. Large cooperative ranges run it as three data-parallel
// passes around a cheap sequential solve:
//
//	classify (parallel)  — one class byte per element, disjoint writes;
//	solve    (sequential) — O(n) walk over the class bytes alone computing
//	                        every element's final position (no coordinate
//	                        loads; see solveDutchFlag);
//	scatter  (parallel)  — out[dst[i]] = idx[i], disjoint destinations,
//	                        then a chunked copy back.
//
// Small ranges (or a sequential pool) run the classic in-place pass.
func (b *builder) partition3(p *par.Pool, idx []int32, dim int, v float32) (ltEnd, eqEnd int) {
	n := len(idx)
	if p.Workers() <= 1 || n < parGrain {
		return threeWayPartition(b.coords, b.dims, dim, idx, v)
	}
	b.sc.grow(len(b.idx))
	cls := b.sc.cls[:n]
	coords, dims := b.coords, b.dims
	p.ForChunks(n, partChunk, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			c := coords[int(idx[i])*dims+dim]
			switch {
			case c < v:
				cls[i] = clsLT
			case c > v:
				cls[i] = clsGT
			default:
				cls[i] = clsEQ
			}
		}
	})
	dst := b.sc.dst[:n]
	ltEnd, eqEnd = solveDutchFlag(cls, dst, b.sc.eq[:n])
	out := b.sc.out[:n]
	p.ForChunks(n, partChunk, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			out[dst[i]] = idx[i]
		}
	})
	p.ForChunks(n, partChunk, func(_, lo, hi int) {
		copy(idx[lo:hi], out[lo:hi])
	})
	return ltEnd, eqEnd
}

// solveDutchFlag computes, from the class array alone, the exact final
// position every element reaches under threeWayPartition's sequential pass.
// dst[i] receives the final position of the element starting at index i;
// eqRing is scratch with len(eqRing) == len(cls). Returns the partition
// boundaries.
//
// Why this reproduces the in-place pass: the sequential algorithm examines
// each element exactly once — originals front to back, except that
// examining a > v element pulls the backmost unexamined original in next.
// Elements < v are placed left to right in examination order; > v elements
// right to left in examination order; == v elements form a queue that every
// < v examination rotates head-to-tail (the swap freeing a slot for the
// < v element moves the equal run's first element to the run's end). The
// walk below replays exactly that control flow over class bytes.
func solveDutchFlag(cls []uint8, dst []int32, eqRing []int32) (ltEnd, eqEnd int) {
	n := len(cls)
	mid, hi := 0, n
	ltN := 0
	head, size := 0, 0
	cur := 0
	for mid < hi {
		switch cls[cur] {
		case clsLT:
			dst[cur] = int32(ltN)
			ltN++
			if size > 0 {
				// Rotate the equal run: head moves to tail.
				moved := eqRing[head]
				head++
				if head == len(eqRing) {
					head = 0
				}
				tail := head + size - 1
				if tail >= len(eqRing) {
					tail -= len(eqRing)
				}
				eqRing[tail] = moved
			}
			mid++
			cur = mid
		case clsEQ:
			tail := head + size
			if tail >= len(eqRing) {
				tail -= len(eqRing)
			}
			eqRing[tail] = int32(cur)
			size++
			mid++
			cur = mid
		default: // clsGT
			hi--
			dst[cur] = int32(hi)
			cur = hi
		}
	}
	for j := 0; j < size; j++ {
		at := head + j
		if at >= len(eqRing) {
			at -= len(eqRing)
		}
		dst[eqRing[at]] = int32(ltN + j)
	}
	return ltN, ltN + size
}

// threeWayPartition reorders idx so values < v come first, values == v next,
// values > v last (Dutch national flag). Returns the boundaries (ltEnd,
// eqEnd) relative to idx. Placing duplicates in the middle lets the caller
// cut anywhere inside the equal run, which keeps splits balanced on heavily
// co-located data (the Daya Bay failure mode discussed in §V-A3). This is
// the sequential reference the parallel partition3 reproduces exactly.
func threeWayPartition(coords []float32, dims, dim int, idx []int32, v float32) (ltEnd, eqEnd int) {
	lo, mid, hi := 0, 0, len(idx)
	for mid < hi {
		c := coords[int(idx[mid])*dims+dim]
		switch {
		case c < v:
			idx[lo], idx[mid] = idx[mid], idx[lo]
			lo++
			mid++
		case c > v:
			hi--
			idx[mid], idx[hi] = idx[hi], idx[mid]
		default:
			mid++
		}
	}
	return lo, mid
}

// quickselect partially sorts idx so idx[n] holds the element with the n-th
// smallest coordinate along dim. Deterministic (median-of-three pivot).
func quickselect(coords []float32, dims, dim int, idx []int32, n int) {
	at := func(i int) float32 { return coords[int(idx[i])*dims+dim] }
	lo, hi := 0, len(idx)-1
	for lo < hi {
		// Median-of-three pivot.
		mid := int(uint(lo+hi) >> 1)
		if at(mid) < at(lo) {
			idx[mid], idx[lo] = idx[lo], idx[mid]
		}
		if at(hi) < at(lo) {
			idx[hi], idx[lo] = idx[lo], idx[hi]
		}
		if at(hi) < at(mid) {
			idx[hi], idx[mid] = idx[mid], idx[hi]
		}
		pivot := at(mid)
		i, j := lo, hi
		for i <= j {
			for at(i) < pivot {
				i++
			}
			for at(j) > pivot {
				j--
			}
			if i <= j {
				idx[i], idx[j] = idx[j], idx[i]
				i++
				j--
			}
		}
		if n <= j {
			hi = j
		} else if n >= i {
			lo = i
		} else {
			return
		}
	}
}

// threadParallel builds the remaining subtrees with per-thread ownership.
// Tasks are assigned by longest-processing-time to balance load; each
// simulated thread's tasks run sequentially in assignment order, with real
// parallelism over the worker pool. Node placement is deterministic: every
// subtree is built into a private node slice and spliced in task order
// afterwards; meter charges accumulate per task and are replayed in task
// order (one() is a plain add, so totals are order-free — replaying after
// the parallel section just keeps meter writes single-threaded).
func (b *builder) threadParallel(tasks []task) int {
	ch := b.charger(PhaseThreadParallel)
	threads := b.opts.Threads

	// LPT assignment by task size.
	order := make([]int, len(tasks))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, c int) bool {
		sa := tasks[order[a]].hi - tasks[order[a]].lo
		sc := tasks[order[c]].hi - tasks[order[c]].lo
		if sa != sc {
			return sa > sc
		}
		return order[a] < order[c]
	})
	load := make([]int64, threads)
	assign := make([]int, len(tasks)) // task -> simulated thread
	for _, ti := range order {
		best := 0
		for t := 1; t < threads; t++ {
			if load[t] < load[best] {
				best = t
			}
		}
		assign[ti] = best
		load[best] += int64(tasks[ti].hi - tasks[ti].lo)
	}

	results := make([][]node, len(tasks))
	heights := make([]int, len(tasks))
	units := make([][simtime.NumKinds]int64, len(tasks))

	b.pool.ForEach(len(tasks), func(ti int) {
		sb := &subtreeBuilder{b: b}
		root, h := sb.build(tasks[ti].lo, tasks[ti].hi, tasks[ti].depth)
		if root != 0 {
			panic("kdtree: subtree root must be local node 0")
		}
		results[ti] = sb.nodes
		heights[ti] = h
		units[ti] = sb.units
	})

	for ti := range tasks {
		for k, u := range units[ti] {
			if u != 0 {
				ch.one(assign[ti], simtime.Kind(k), u)
			}
		}
	}

	// Splice subtrees into the global node array in task order.
	maxH := 0
	for ti, tk := range tasks {
		sub := results[ti]
		base := int32(len(b.nodes))
		// The subtree's local node 0 replaces the reserved slot; other
		// nodes append with index fixup.
		fix := func(local int32) int32 {
			if local == 0 {
				return tk.slot
			}
			return base + local - 1
		}
		for li, n := range sub {
			if n.dim != leafDim {
				n.left = fix(n.left)
				n.right = fix(n.right)
			}
			if li == 0 {
				b.nodes[tk.slot] = n
			} else {
				b.nodes = append(b.nodes, n)
			}
		}
		if heights[ti] > maxH {
			maxH = heights[ti]
		}
	}
	return maxH
}

// subtreeBuilder builds one thread's subtree depth-first into a private
// node slice (local indices starting at 0 for the subtree root),
// accumulating its meter charges for replay. Its interior passes run
// sequentially — parallelism in stage 2 is across tasks.
type subtreeBuilder struct {
	b     *builder
	nodes []node
	units [simtime.NumKinds]int64
}

func (s *subtreeBuilder) build(lo, hi int32, depth int) (int32, int) {
	slot := int32(len(s.nodes))
	s.nodes = append(s.nodes, node{})
	if int(hi-lo) <= s.b.opts.BucketSize {
		s.nodes[slot] = node{dim: leafDim, start: lo, end: hi}
		return slot, depth
	}
	dim, median, mid, ok := s.b.split(nil, s.b.idx[lo:hi], func(k simtime.Kind, u int64) { s.units[k] += u })
	if !ok {
		s.nodes[slot] = node{dim: leafDim, start: lo, end: hi}
		return slot, depth
	}
	// Depth-first for cache locality (§III-A iii).
	l, hl := s.build(lo, lo+int32(mid), depth+1)
	r, hr := s.build(lo+int32(mid), hi, depth+1)
	s.nodes[slot] = node{dim: int32(dim), median: median, left: l, right: r}
	if hl < hr {
		hl = hr
	}
	return slot, hl
}
