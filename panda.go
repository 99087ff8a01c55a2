// Package panda is a from-scratch Go implementation of PANDA (Patwary et
// al., "PANDA: Extreme Scale Parallel K-Nearest Neighbor on Distributed
// Architectures", 2016): a distributed kd-tree based exact k-nearest-
// neighbor system that parallelizes both tree construction and querying.
//
// The package offers two layers:
//
//   - single-node trees (Build / Tree.KNN / Tree.KNNBatch): the paper's
//     local kd-tree with sampled-median splits, variance-based dimension
//     selection, and SIMD-packed 32-point leaf buckets;
//
//   - distributed trees (RunCluster / Node.Build / DistTree.Query): the
//     global partition tree + per-rank local trees of §III, with owner
//     routing, r'-pruned remote fan-out and top-k merging, over an
//     in-process simulated cluster or real TCP ranks (JoinTCP).
//
// A TCP serving layer (internal/server, cmd/panda-serve) exposes a built
// tree to external processes; Dial returns a Client whose single queries
// the server coalesces into batched engine calls via dynamic
// micro-batching.
//
// Distributed runs also produce a SimReport: per-phase timings under a
// calibrated analytic cost model that reproduces the paper's scaling
// behaviour on a single machine (see DESIGN.md).
package panda

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"panda/internal/geom"
	"panda/internal/kdtree"
	"panda/internal/sample"
)

// Neighbor is one KNN result: the neighbor's id (the index or caller id of
// the data point) and its squared Euclidean distance from the query.
type Neighbor = kdtree.Neighbor

// BuildOptions tunes kd-tree construction. The zero value gives the paper's
// defaults (variance split dimension, sampled-median split value, bucket
// size 32, single thread).
type BuildOptions struct {
	// BucketSize is the max leaf size (default 32, the paper's best).
	BucketSize int
	// Threads is the thread count used for construction and batch queries
	// (default 1). It is both the paper's simulated thread count (cost-model
	// charging, stage switchover) and the cap on real parallelism: Build
	// fans out to min(Threads, GOMAXPROCS) workers, and the produced tree
	// is byte-identical at every setting — only wall-clock time changes.
	Threads int
	// SplitDimension is "variance" (default) or "range".
	SplitDimension string
	// SplitValue is "sampled-median" (default), "mean-sample" (FLANN
	// policy) or "mid-range" (ANN policy).
	SplitValue string
}

func (o *BuildOptions) toInternal() (kdtree.Options, error) {
	var opts kdtree.Options
	if o == nil {
		return opts, nil
	}
	opts.BucketSize = o.BucketSize
	opts.Threads = o.Threads
	switch o.SplitDimension {
	case "", "variance":
		opts.SplitPolicy = sample.MaxVariance
	case "range":
		opts.SplitPolicy = sample.MaxRange
	default:
		return opts, fmt.Errorf("panda: unknown SplitDimension %q", o.SplitDimension)
	}
	switch o.SplitValue {
	case "", "sampled-median":
		opts.SplitValue = kdtree.SplitSampledMedian
	case "mean-sample":
		opts.SplitValue = kdtree.SplitMeanSample
	case "mid-range":
		opts.SplitValue = kdtree.SplitMidRange
	default:
		return opts, fmt.Errorf("panda: unknown SplitValue %q", o.SplitValue)
	}
	return opts, nil
}

// Tree is a single-node kd-tree over a point set.
type Tree struct {
	t       *kdtree.Tree
	threads int
	// pool recycles warmed-up searchers (heap, traversal stack, scratch)
	// across queries and batches so the steady-state query loop performs
	// zero allocations.
	pool sync.Pool
	// scratch recycles per-batch bookkeeping (counts, Morton permutation)
	// so repeated KNNBatchFlatInto calls allocate nothing once warm.
	scratch sync.Pool
	// closeSnap releases the snapshot mapping backing an OpenSnapshot tree
	// (nil for built trees); see Tree.Close.
	closeSnap func() error
	// fp caches the content fingerprint (immutable once built).
	fpOnce sync.Once
	fp     uint64
}

// Fingerprint returns the 64-bit content hash identifying this tree's
// dataset: dims, point count, packed coordinates, ids, and node array. A
// tree built in memory and the same tree reopened from a snapshot hash
// identically. The serving layer folds it into the dataset id reported in
// the protocol welcome. Computed once and cached.
func (t *Tree) Fingerprint() uint64 {
	t.fpOnce.Do(func() { t.fp = t.t.Raw().Fingerprint() })
	return t.fp
}

// batchScratch is the per-batch bookkeeping KNNBatchFlatInto reuses across
// calls: per-query result counts, the Morton-ordering work arrays, and the
// shared worker-run state.
type batchScratch struct {
	counts []int32
	perm   []int32
	keys   []uint32
	bins   []int32
	run    batchRun
}

// batchRun is the state one KNNBatchFlatInto call shares across its
// workers, who claim chunks of queries from cursor. It lives inside the
// pooled batchScratch (rather than as stack locals captured by a closure)
// so that the worker-spawn path, which makes captured state escape, costs
// the steady-state loop no allocations.
type batchRun struct {
	t                *Tree
	queries          []float32
	flat             []Neighbor
	counts           []int32
	perm             []int32
	k, kEff, dims, n int
	cursor           atomic.Int64
}

// runChunks drains the batch with one searcher: claim a chunk of queries,
// answer each into its arena slot, repeat until the cursor runs out.
func (r *batchRun) runChunks(s *kdtree.Searcher) {
	n, kEff, dims := r.n, r.kEff, r.dims
	for {
		lo := int(r.cursor.Add(1)-1) * batchChunk
		if lo >= n {
			return
		}
		hi := lo + batchChunk
		if hi > n {
			hi = n
		}
		for p := lo; p < hi; p++ {
			i := p
			if r.perm != nil {
				i = int(r.perm[p])
			}
			slot := r.flat[i*kEff : i*kEff : (i+1)*kEff]
			res, _ := s.Search(r.queries[i*dims:(i+1)*dims], r.k, kdtree.Inf2, slot)
			r.counts[i] = int32(len(res))
		}
	}
}

func (t *Tree) getScratch() *batchScratch {
	if s, ok := t.scratch.Get().(*batchScratch); ok {
		return s
	}
	return &batchScratch{}
}

// growInt32 returns s resized to n entries, reallocating only when capacity
// is short. Contents are unspecified; callers overwrite every entry.
func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// getSearcher returns a pooled searcher for t, creating one on first use.
func (t *Tree) getSearcher() *kdtree.Searcher {
	if s, ok := t.pool.Get().(*kdtree.Searcher); ok {
		return s
	}
	return t.t.NewSearcher()
}

func (t *Tree) putSearcher(s *kdtree.Searcher) { t.pool.Put(s) }

// TreeStats summarizes a built tree.
type TreeStats struct {
	Points     int
	Nodes      int
	Leaves     int
	Height     int
	MaxBucket  int
	MeanBucket float64
}

// Build constructs a kd-tree over n = len(coords)/dims points stored
// row-major in coords. ids, when non-nil, assigns each point the id
// reported in query results (default: point index). coords is copied.
// A NaN or ±Inf coordinate is an error: no finite box holds it, so neither
// the query kernels' pruning nor a snapshot of the tree could.
func Build(coords []float32, dims int, ids []int64, opts *BuildOptions) (*Tree, error) {
	if dims <= 0 || len(coords)%dims != 0 {
		return nil, fmt.Errorf("panda: %d coords is not a multiple of dims %d", len(coords), dims)
	}
	if !geom.AllFinite(coords) {
		return nil, fmt.Errorf("panda: non-finite (NaN or ±Inf) coordinate")
	}
	kopts, err := opts.toInternal()
	if err != nil {
		return nil, err
	}
	if ids != nil && len(ids)*dims != len(coords) {
		return nil, fmt.Errorf("panda: %d ids for %d points", len(ids), len(coords)/dims)
	}
	threads := kopts.Threads
	if threads <= 0 {
		threads = 1
	}
	t := kdtree.Build(geom.FromCoords(coords, dims), ids, kopts)
	return &Tree{t: t, threads: threads}, nil
}

// Stats returns structural statistics.
func (t *Tree) Stats() TreeStats {
	s := t.t.Stats()
	return TreeStats{
		Points: s.Points, Nodes: s.Nodes, Leaves: s.Leaves,
		Height: s.Height, MaxBucket: s.MaxBucket, MeanBucket: s.MeanBucket,
	}
}

// Len returns the number of indexed points.
func (t *Tree) Len() int { return t.t.Len() }

// Dims returns the point dimensionality.
func (t *Tree) Dims() int { return t.t.Dims() }

// KNN returns the k nearest neighbors of q sorted by ascending distance
// (exact; ties broken by id). Non-finite query coordinates (NaN/±Inf) make
// every pruning comparison false inside the kernel, so they are rejected up
// front: the result is nil, matching the error the checked entry points
// (KNNBatch, Client.KNN) return for the same input.
func (t *Tree) KNN(q []float32, k int) []Neighbor {
	if !geom.AllFinite(q) {
		return nil
	}
	s := t.getSearcher()
	res, _ := s.Search(q, k, kdtree.Inf2, nil)
	t.putSearcher(s)
	return res
}

// KNNBoundedInto appends the up-to-k nearest neighbors of q with squared
// distance strictly below r2 — the paper's r'-bounded remote candidate
// search (§III-B step 4), which the cluster serving layer answers on behalf
// of a query's owner rank. Pass kdtree.Inf2 semantics via math.MaxFloat32
// for an unbounded search. Non-finite inputs return out unchanged.
func (t *Tree) KNNBoundedInto(q []float32, k int, r2 float32, out []Neighbor) []Neighbor {
	if !geom.AllFinite(q) || !geom.Finite(r2) {
		return out
	}
	s := t.getSearcher()
	out, _ = s.Search(q, k, r2, out)
	t.putSearcher(s)
	return out
}

// batchChunk is the unit of dynamic work assignment in KNNBatch: workers
// claim runs of queries from a shared atomic cursor, so a few expensive
// queries (dense regions, high dimensions) cannot idle the other workers
// the way fixed striding could.
const batchChunk = 64

// KNNBatch answers many queries (len(queries)/Dims of them, row-major),
// parallelized over the tree's configured thread count. Result i holds the
// neighbors of query i; all result slices are views into one flat backing
// array (see KNNBatchFlat), so a batch costs O(1) allocations rather than
// O(queries).
func (t *Tree) KNNBatch(queries []float32, k int) ([][]Neighbor, error) {
	flat, offsets, err := t.KNNBatchFlat(queries, k)
	if err != nil {
		return nil, err
	}
	out := make([][]Neighbor, len(offsets)-1)
	for i := range out {
		out[i] = flat[offsets[i]:offsets[i+1]:offsets[i+1]]
	}
	return out, nil
}

// KNNBatchFlat is the arena form of KNNBatch: neighbors of query i occupy
// flat[offsets[i]:offsets[i+1]], ascending by (distance, id). One backing
// array serves the whole batch — each worker's searcher appends into its
// queries' pre-sized slots, so the steady-state loop performs zero
// allocations per query. Queries are processed in Morton (Z-curve) order of
// their leading coordinates so consecutive queries traverse largely the
// same tree paths (per-query results are position-independent; only the
// processing schedule changes). Use this form when feeding results into
// further batch stages (classification, regression, serialization) without
// materializing per-query slices.
func (t *Tree) KNNBatchFlat(queries []float32, k int) ([]Neighbor, []int32, error) {
	return t.KNNBatchFlatInto(queries, k, nil, nil)
}

// KNNBatchFlatInto is KNNBatchFlat with caller-owned result storage: flat
// and offsets (either may be nil) are reused when their capacity suffices
// and reallocated otherwise, and the returned slices must be used in their
// place. Per-batch bookkeeping is recycled through an internal pool, so a
// caller that feeds the returned slices back in — the serving layer's
// dispatch loop does — runs the whole batch path with zero steady-state
// allocations.
func (t *Tree) KNNBatchFlatInto(queries []float32, k int, flat []Neighbor, offsets []int32) ([]Neighbor, []int32, error) {
	dims := t.t.Dims()
	if dims == 0 || len(queries)%dims != 0 {
		return nil, nil, fmt.Errorf("panda: query buffer not a multiple of dims %d", dims)
	}
	if !geom.AllFinite(queries) {
		return nil, nil, fmt.Errorf("panda: non-finite query coordinate (NaN coordinates disable kd-tree pruning)")
	}
	n := len(queries) / dims
	offsets = growInt32(offsets, n+1)
	// Every query returns exactly min(k, points) neighbors under an
	// unbounded radius, so slot sizes are known up front.
	kEff := k
	if kEff > t.t.Len() {
		kEff = t.t.Len()
	}
	if n == 0 || kEff <= 0 {
		for i := range offsets {
			offsets[i] = 0
		}
		return flat[:0], offsets, nil
	}
	// Offsets are int32; reject batches whose result arena wouldn't fit
	// rather than silently wrapping during compaction.
	if int64(n)*int64(kEff) > math.MaxInt32 {
		return nil, nil, fmt.Errorf("panda: batch result arena %d×%d exceeds int32 offsets; split the batch", n, kEff)
	}
	if cap(flat) < n*kEff {
		flat = make([]Neighbor, n*kEff)
	} else {
		flat = flat[:n*kEff]
	}
	sc := t.getScratch()
	sc.counts = growInt32(sc.counts, n)
	counts := sc.counts
	perm := t.queryOrder(queries, n, dims, sc)

	r := &sc.run
	r.t, r.queries, r.flat, r.counts, r.perm = t, queries, flat, counts, perm
	r.k, r.kEff, r.dims, r.n = k, kEff, dims, n
	r.cursor.Store(0)

	workers := t.threads
	if g := runtime.GOMAXPROCS(0); workers > g {
		workers = g
	}
	if nc := (n + batchChunk - 1) / batchChunk; workers > nc {
		workers = nc
	}
	if workers <= 1 {
		s := t.getSearcher()
		r.runChunks(s)
		t.putSearcher(s)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s := t.getSearcher()
				r.runChunks(s)
				t.putSearcher(s)
			}()
		}
		wg.Wait()
	}
	// Drop the caller-owned references before the scratch returns to the
	// pool so a pooled scratch cannot pin a retired arena.
	r.queries, r.flat = nil, nil

	// Compact: with non-finite inputs rejected above, every query returns
	// exactly kEff neighbors and this pass is pure offset bookkeeping; the
	// copy path is kept as a guard for short counts.
	pos := int32(0)
	offsets[0] = 0
	for i := 0; i < n; i++ {
		cnt := counts[i]
		src := int32(i) * int32(kEff)
		if src != pos {
			copy(flat[pos:pos+cnt], flat[src:src+cnt])
		}
		pos += cnt
		offsets[i+1] = pos
	}
	t.scratch.Put(sc)
	return flat[:pos], offsets, nil
}

// queryOrderMin is the batch size below which Morton ordering isn't worth
// the counting-sort pass.
const queryOrderMin = 256

// queryOrder returns a processing permutation that visits queries along a
// Morton (Z-curve) over their first ≤3 coordinates, quantized to 5 bits per
// dimension against the tree's bounding box. Spatially adjacent queries
// traverse largely the same kd-tree nodes and leaf buckets, so scheduling
// them consecutively keeps those cache lines hot across queries — a pure
// scheduling change (results are written to each query's own slot). Returns
// nil (natural order) for small batches.
func (t *Tree) queryOrder(queries []float32, n, dims int, sc *batchScratch) []int32 {
	if n < queryOrderMin {
		return nil
	}
	m := dims
	if m > 3 {
		m = 3
	}
	box := t.t.Box
	if len(box.Min) < m {
		return nil
	}
	const cellBits = 5 // 32 cells per dimension, ≤ 15-bit keys
	scale := make([]float32, m)
	for d := 0; d < m; d++ {
		if ext := box.Max[d] - box.Min[d]; ext > 0 {
			scale[d] = (1 << cellBits) / ext
		}
	}
	// Per-dimension spread tables: bit b of a cell index lands at key
	// position b*m+d (Z-curve interleave), precomputed for the 32 cells.
	var spread [3][1 << cellBits]uint32
	for d := 0; d < m; d++ {
		for c := 0; c < 1<<cellBits; c++ {
			var v uint32
			for b := 0; b < cellBits; b++ {
				v |= (uint32(c) >> b & 1) << (b*m + d)
			}
			spread[d][c] = v
		}
	}
	if cap(sc.keys) < n {
		sc.keys = make([]uint32, n)
	}
	keys := sc.keys[:n]
	for i := 0; i < n; i++ {
		q := queries[i*dims : i*dims+m]
		var key uint32
		for d := 0; d < m; d++ {
			x := (q[d] - box.Min[d]) * scale[d]
			var c uint32
			if x > 0 { // false for NaN and below-range: cell 0
				c = uint32(x)
				if c > (1<<cellBits)-1 {
					c = (1 << cellBits) - 1
				}
			}
			key |= spread[d][c]
		}
		keys[i] = key
	}
	sc.perm = growInt32(sc.perm, n)
	perm := sc.perm
	for i := range perm {
		perm[i] = int32(i)
	}
	maxKey := 1 << (cellBits * m)
	if n < maxKey/4 {
		// Small batch: a comparison sort beats zeroing and prefix-summing
		// the full bin table. Stable, so equal-cell queries keep input
		// order like the counting sort below.
		sort.SliceStable(perm, func(a, b int) bool { return keys[perm[a]] < keys[perm[b]] })
		return perm
	}
	// Counting sort by key — O(n + cells), stable, so equal-cell queries
	// keep their input order.
	sc.bins = growInt32(sc.bins, maxKey+1)
	bins := sc.bins
	for i := range bins {
		bins[i] = 0
	}
	for _, k := range keys {
		bins[k+1]++
	}
	for b := 1; b <= maxKey; b++ {
		bins[b] += bins[b-1]
	}
	for i := 0; i < n; i++ {
		k := keys[i]
		perm[bins[k]] = int32(i)
		bins[k]++
	}
	return perm
}

// KNNInto appends the k nearest neighbors of q to out (which may be nil)
// and returns the extended slice. When out has spare capacity for k
// results, the query performs zero allocations — the serving layer's
// dispatch loop relies on this. Non-finite query coordinates return out
// unchanged (see KNN).
func (t *Tree) KNNInto(q []float32, k int, out []Neighbor) []Neighbor {
	if !geom.AllFinite(q) {
		return out
	}
	s := t.getSearcher()
	out, _ = s.Search(q, k, kdtree.Inf2, out)
	t.putSearcher(s)
	return out
}

// RadiusSearchInto appends every indexed point with squared distance < r2
// from q to out (which may be nil) and returns the extended slice, sorted
// by ascending distance. With spare capacity in out the query performs zero
// allocations. Non-finite inputs (coordinates or r2) return out unchanged
// (see KNN).
func (t *Tree) RadiusSearchInto(q []float32, r2 float32, out []Neighbor) []Neighbor {
	if !geom.AllFinite(q) || !geom.Finite(r2) {
		return out
	}
	s := t.getSearcher()
	out, _ = s.RadiusSearch(q, r2, out)
	t.putSearcher(s)
	return out
}

// RadiusSearch returns every indexed point with squared distance < r2 from
// q, sorted by ascending distance — the fixed-radius neighborhood primitive
// used by DBSCAN-style clustering (the BD-CATS workload the paper contrasts
// KNN with in §I). Non-finite inputs return nil (see KNN).
func (t *Tree) RadiusSearch(q []float32, r2 float32) []Neighbor {
	return t.RadiusSearchInto(q, r2, nil)
}

// CountWithin returns how many indexed points lie strictly within squared
// radius r2 of q, without materializing them. Non-finite inputs return 0.
func (t *Tree) CountWithin(q []float32, r2 float32) int {
	if !geom.AllFinite(q) || !geom.Finite(r2) {
		return 0
	}
	s := t.getSearcher()
	n, _ := s.CountWithin(q, r2)
	t.putSearcher(s)
	return n
}

// Regress predicts a continuous value for q by inverse-distance-weighted
// averaging of its k nearest neighbors' values (value maps a point id to
// its target). An exact-match neighbor (distance 0) returns its value
// directly. This is the k-NN regression mode the paper names as the next
// application of PANDA ("In future, we intend to use PANDA in regression").
// Returns 0 for an empty tree or k < 1.
func (t *Tree) Regress(q []float32, k int, value func(id int64) float64) float64 {
	nbrs := t.KNN(q, k)
	return WeightedAverage(nbrs, value)
}

// WeightedAverage combines neighbor values by inverse-distance weighting
// (1/d²; an exact match short-circuits to its own value).
func WeightedAverage(neighbors []Neighbor, value func(id int64) float64) float64 {
	if len(neighbors) == 0 {
		return 0
	}
	var num, den float64
	for _, nb := range neighbors {
		if nb.Dist2 == 0 {
			return value(nb.ID)
		}
		w := 1 / float64(nb.Dist2)
		num += w * value(nb.ID)
		den += w
	}
	return num / den
}

// MajorityVote classifies by k-NN majority vote: label returns the class of
// a data point id; ties go to the closest-neighbor class among the tied
// ones (neighbors must be distance-sorted, as returned by KNN). Returns 0
// for an empty neighbor list.
func MajorityVote(neighbors []Neighbor, label func(id int64) uint8) uint8 {
	if len(neighbors) == 0 {
		return 0
	}
	counts := make(map[uint8]int)
	best := label(neighbors[0].ID)
	bestCount := 0
	for _, nb := range neighbors {
		c := label(nb.ID)
		counts[c]++
		if counts[c] > bestCount {
			best, bestCount = c, counts[c]
		}
	}
	return best
}
