package core

import (
	"fmt"

	"panda/internal/cluster"
	"panda/internal/geom"
	"panda/internal/kdtree"
	"panda/internal/par"
	"panda/internal/sample"
	"panda/internal/simtime"
	"panda/internal/wire"
)

// Construction phase names (Figure 5(b)'s breakdown categories; the local
// kd-tree phases come from package kdtree).
const (
	PhaseGlobalTree   = "global kd-tree construction"
	PhaseRedistribute = "redistribute particles"
)

// globalSamples is the paper's per-rank sample count for global split
// selection (m = 256 for the global kd-tree, §III-A1).
const globalSamples = 256

// DistTree is one rank's view of the distributed kd-tree: the replicated
// global partition tree plus this rank's local tree over the points it owns
// after redistribution.
type DistTree struct {
	Global *GlobalTree
	Local  *kdtree.Tree

	comm *cluster.Comm
	dims int
	// rank and size are cached from the communicator at build (or supplied
	// directly by RestoreDistTree), so the serving read path never touches
	// comm — a snapshot-restored tree has none.
	rank, size int
}

// Comm returns the communicator the tree was built on (nil for a tree
// restored from a snapshot, which supports only the serving entry points).
func (dt *DistTree) Comm() *cluster.Comm { return dt.comm }

// RestoreDistTree assembles a DistTree from snapshot-restored parts: the
// replicated global tree and this rank's local shard. The result has no
// communicator — the SPMD collectives (QueryBatch) are unavailable; the
// serving entry points (Rank, Size, OwnerOf, RemoteRanks, Local) work
// exactly as on a built tree.
func RestoreDistTree(global *GlobalTree, local *kdtree.Tree, rank int) (*DistTree, error) {
	if global == nil || local == nil {
		return nil, fmt.Errorf("core: RestoreDistTree needs a global tree and a local shard")
	}
	if rank < 0 || rank >= global.Ranks() {
		return nil, fmt.Errorf("core: rank %d out of range for %d-rank global tree", rank, global.Ranks())
	}
	if local.Len() > 0 && local.Dims() != global.Dims {
		return nil, fmt.Errorf("core: local shard has %d dims, global tree %d", local.Dims(), global.Dims)
	}
	return &DistTree{Global: global, Local: local, dims: global.Dims, rank: rank, size: global.Ranks()}, nil
}

// Dims returns the point dimensionality.
func (dt *DistTree) Dims() int { return dt.dims }

// agreeOnShards checks, in one collective before any build round, that
// every rank's shard has the same dimensionality and only finite
// coordinates. Every rank sees every rank's answer, so all of them return
// the same error — naming the offending ranks — instead of a bad shard
// failing alone and leaving its peers blocked in the first round.
func agreeOnShards(c *cluster.Comm, pts geom.Points) error {
	finite := uint32(0)
	if geom.AllFinite(pts.Coords) {
		finite = 1
	}
	parts := c.AllGather(wire.AppendUint32(wire.AppendInt32(nil, int32(pts.Dims)), finite))
	var dims, nonFinite []int
	for r, part := range parts {
		d := wire.NewDecoder(part)
		rd, rf := int(d.Int32()), d.Uint32()
		mustDecode(&d, "shard check")
		dims = append(dims, rd)
		if rf == 0 {
			nonFinite = append(nonFinite, r)
		}
	}
	for _, d := range dims {
		if d != dims[0] {
			return fmt.Errorf("core: ranks disagree on dimensionality: %v (rank order)", dims)
		}
	}
	if len(nonFinite) > 0 {
		return fmt.Errorf("core: ranks %v hold NaN or infinite coordinates", nonFinite)
	}
	return nil
}

// BuildDistributed constructs the distributed kd-tree over each rank's
// point shard (SPMD: every rank calls it with its own points). ids are
// global point identifiers (nil derives rank-unique ids as
// rank<<40 | index). opts configures each rank's local kd-tree (Threads and
// Recorder are filled in from the Comm); the global tree always splits on
// the maximum-variance dimension (see bestDim). The returned tree owns
// redistributed copies; pts is not modified.
//
// The build follows §III-A: log2(P) rounds of (global split selection via
// sampled histograms → point redistribution), then the local kd-tree
// stages. All split decisions are replicated deterministically on every
// rank, so the global tree needs no extra broadcast.
func BuildDistributed(c *cluster.Comm, pts geom.Points, ids []int64, opts kdtree.Options) (*DistTree, error) {
	p, rank := c.Size(), c.Rank()
	dims := pts.Dims

	if err := agreeOnShards(c, pts); err != nil {
		return nil, err
	}

	if ids == nil {
		ids = make([]int64, pts.Len())
		for i := range ids {
			ids[i] = int64(rank)<<40 | int64(i)
		}
	} else if len(ids) != pts.Len() {
		return nil, fmt.Errorf("core: rank %d: %d ids for %d points", rank, len(ids), pts.Len())
	}

	coords := append([]float32(nil), pts.Coords...)
	myIDs := append([]int64(nil), ids...)

	levels := 0
	for 1<<levels < p {
		levels++
	}

	splits := make(map[[2]int]split)
	lo, hi := 0, p
	threads := c.Threads()
	// Real worker pool for this rank's data passes (moments, histogram,
	// partition): the per-rank thread count caps real parallelism exactly
	// as in the local build, and every pass below is chunk-deterministic,
	// so the distributed tree is identical for any worker count.
	pool := par.NewPool(threads)

	for level := 0; level < levels; level++ {
		c.Phase(PhaseGlobalTree)
		n := len(coords) / dims

		// Round 1: per-group split dimension from global moments.
		// Every rank publishes (group, count, Σx, Σx²); every rank then
		// derives every group's dimension choice deterministically.
		buf := wire.AppendInt32(nil, int32(lo))
		buf = wire.AppendInt32(buf, int32(hi))
		buf = wire.AppendInt64(buf, int64(n))
		sums, sums2 := moments(coords, dims, pool)
		for d := 0; d < dims; d++ {
			buf = wire.AppendFloat64(buf, sums[d])
			buf = wire.AppendFloat64(buf, sums2[d])
		}
		chargeAll(c, simtime.KDist, int64(n)*int64(dims))
		momentParts := c.AllGather(buf)

		type groupKey = [2]int
		groupMoments := make(map[groupKey]*groupStat)
		for _, part := range momentParts {
			r := wire.NewDecoder(part)
			key := groupKey{int(r.Int32()), int(r.Int32())}
			gs := groupMoments[key]
			if gs == nil {
				gs = &groupStat{sum: make([]float64, dims), sum2: make([]float64, dims)}
				groupMoments[key] = gs
			}
			gs.count += r.Int64()
			for d := 0; d < dims; d++ {
				gs.sum[d] += r.Float64()
				gs.sum2[d] += r.Float64()
			}
			mustDecode(&r, "moments")
		}
		groupDim := make(map[groupKey]int)
		for key, gs := range groupMoments {
			if key[1]-key[0] <= 1 {
				continue // singleton groups are done splitting
			}
			groupDim[key] = gs.bestDim()
		}

		// Round 2: sample m values along the group's dimension. The
		// cluster-wide gather is cheap (m floats per rank) and keeps the
		// SPMD schedule uniform across groups.
		myKey := groupKey{lo, hi}
		var mySamples []float32
		if dim, ok := groupDim[myKey]; ok {
			mySamples = sampleValues(coords, dims, dim, globalSamples)
			chargeAll(c, simtime.KSample, int64(len(mySamples)))
		}
		buf = wire.AppendInt32(nil, int32(lo))
		buf = wire.AppendInt32(buf, int32(hi))
		buf = wire.AppendFloat32s(buf, mySamples)
		sampleParts := c.AllGather(buf)
		var myGroupSamples []float32
		for _, part := range sampleParts {
			r := wire.NewDecoder(part)
			key := groupKey{int(r.Int32()), int(r.Int32())}
			s := r.Float32sInto(nil, 0)
			mustDecode(&r, "samples")
			if key == myKey {
				myGroupSamples = append(myGroupSamples, s...)
			}
		}

		// Round 3: non-uniform histogram over local points, reduced
		// *within the group* (recursive doubling — an MPI_Allreduce over
		// a group communicator, the latency/bandwidth shape the paper's
		// implementation has), then the target quantile.
		var mySplit split
		haveSplit := false
		if dim, ok := groupDim[myKey]; ok {
			iv := sample.NewIntervals(capBoundaries(myGroupSamples, maxGlobalIntervals))
			idx := identityIdx(n)
			hist := iv.HistogramPar(coords, dims, dim, idx, pool)
			chargeAll(c, simtime.KHistScan, int64(n))
			hist = c.GroupAllReduceInt64(lo, hi, hist)
			mid := lo + (hi-lo)/2
			frac := float64(mid-lo) / float64(hi-lo)
			v, _ := iv.ApproxQuantile(hist, frac)
			mySplit = split{dim: int32(dim), median: v}
			haveSplit = true
		} else {
			c.GroupAllReduceInt64(lo, hi, nil) // keep tag sequence aligned
		}

		// Publish this level's splits cluster-wide (16 bytes per rank) so
		// every rank can replicate the full global tree.
		buf = wire.AppendInt32(nil, int32(lo))
		buf = wire.AppendInt32(buf, int32(hi))
		if haveSplit {
			buf = wire.AppendInt32(buf, mySplit.dim)
			buf = wire.AppendFloat32(buf, mySplit.median)
		}
		splitParts := c.AllGather(buf)
		for _, part := range splitParts {
			r := wire.NewDecoder(part)
			key := groupKey{int(r.Int32()), int(r.Int32())}
			if r.Remaining() > 0 {
				splits[key] = split{dim: r.Int32(), median: r.Float32()}
			}
			mustDecode(&r, "splits")
		}

		// Redistribution: strict partition (coords < v left, ≥ v right —
		// ownership must match the half-open global domains), then a
		// pairwise exchange of the foreign part with the partner rank in
		// the other half (§III-A i: "nodes need to redistribute points so
		// that every node only has points belonging to one of the
		// subsets"). For equal halves this is a perfect pairing; unequal
		// halves map partners modulo the smaller side.
		c.Phase(PhaseRedistribute)
		if s, ok := splits[myKey]; ok {
			mid := lo + (hi-lo)/2
			keepL, idsL, sendR, idsR := partitionStrict(coords, myIDs, dims, int(s.dim), s.median, pool)
			chargeAll(c, simtime.KPartition, int64(n))

			var keep, send []float32
			var keepIDs, sendIDs []int64
			var partner int
			if rank < mid {
				keep, keepIDs, send, sendIDs = keepL, idsL, sendR, idsR
				partner = mid + (rank-lo)%(hi-mid)
			} else {
				keep, keepIDs, send, sendIDs = sendR, idsR, keepL, idsL
				partner = lo + (rank-mid)%(mid-lo)
			}
			out := wire.AppendFloat32s(nil, send)
			out = wire.AppendInt64s(out, sendIDs)
			wait := c.SendAsync(partner, tagRedistribute+level, out)
			coords = keep
			myIDs = keepIDs
			for _, src := range redistributionSources(rank, lo, mid, hi) {
				_, part := c.Recv(src, tagRedistribute+level)
				r := wire.NewDecoder(part)
				coords = r.Float32sInto(coords, 0)
				myIDs = r.Int64sInto(myIDs, 0)
				mustDecode(&r, "redistribution")
			}
			wait()
			chargeAll(c, simtime.KPointMove, int64(len(coords))*4+int64(len(myIDs))*8)
			if rank < mid {
				hi = mid
			} else {
				lo = mid
			}
		}
	}

	global, err := buildGlobalTree(p, dims, splits)
	if err != nil {
		return nil, err
	}
	if err := global.Validate(); err != nil {
		return nil, err
	}

	// Local kd-tree over the points this rank now owns (§III-A ii–iv).
	opts.Threads = threads
	opts.Recorder = c.Recorder()
	local := kdtree.Build(geom.FromCoords(coords, dims), myIDs, opts)

	return &DistTree{Global: global, Local: local, comm: c, dims: dims, rank: rank, size: p}, nil
}

type groupStat struct {
	count int64
	sum   []float64
	sum2  []float64
}

// bestDim picks the split dimension of maximum group-wide variance.
// sample.MaxRange would need min/max, which moments don't carry; variance of
// a bounded distribution still tracks spread, so the global tree uses
// variance under every split policy. The local trees honour the policy
// exactly; the ablation measures the local effect.
func (g *groupStat) bestDim() int {
	best, bestVar := 0, -1.0
	if g.count == 0 {
		return 0
	}
	for d := range g.sum {
		mean := g.sum[d] / float64(g.count)
		variance := g.sum2[d]/float64(g.count) - mean*mean
		if variance > bestVar {
			best, bestVar = d, variance
		}
	}
	return best
}

// momentChunk is the fixed row-chunk width of the parallel moment pass. The
// chunking is always applied — even on one worker — because float64
// addition is not associative: per-chunk partials combined in chunk order
// give one fixed summation tree, a pure function of n, so the moments (and
// every split decision derived from them) are identical for any worker
// count.
const momentChunk = 8192

func moments(coords []float32, dims int, pool *par.Pool) (sum, sum2 []float64) {
	n := len(coords) / dims
	nc := par.Chunks(n, momentChunk)
	sum = make([]float64, dims)
	sum2 = make([]float64, dims)
	if nc == 0 {
		return sum, sum2
	}
	// Pad each chunk's accumulator region to a cache-line multiple (8
	// float64s = 64 B): adjacent chunks run on different workers, and
	// unpadded regions would false-share lines on every row's store.
	stride := (dims*2 + 7) &^ 7
	partial := make([]float64, nc*stride)
	pool.ForChunks(n, momentChunk, func(c, lo, hi int) {
		ps := partial[c*stride : c*stride+dims]
		ps2 := partial[c*stride+dims : c*stride+2*dims]
		for i := lo; i < hi; i++ {
			row := coords[i*dims : (i+1)*dims]
			for d, v := range row {
				f := float64(v)
				ps[d] += f
				ps2[d] += f * f
			}
		}
	})
	for c := 0; c < nc; c++ {
		ps := partial[c*stride : c*stride+dims]
		ps2 := partial[c*stride+dims : c*stride+2*dims]
		for d := 0; d < dims; d++ {
			sum[d] += ps[d]
			sum2[d] += ps2[d]
		}
	}
	return sum, sum2
}

// sampleValues extracts up to m values of dimension dim at a deterministic
// stride (the paper: "every node samples a small set of points (m points
// each) and sends it to all the other nodes").
func sampleValues(coords []float32, dims, dim, m int) []float32 {
	n := len(coords) / dims
	if n == 0 || m <= 0 {
		return nil
	}
	stride := 1
	if n > m {
		stride = n / m
	}
	out := make([]float32, 0, m)
	for i := 0; i < n && len(out) < m; i += stride {
		out = append(out, coords[i*dims+dim])
	}
	return out
}

// tagRedistribute is the user-tag base for per-level pairwise point
// exchanges (offset by the global level).
const tagRedistribute = 4096

// redistributionSources lists the ranks in the other half of [lo,hi) that
// send to this rank during the level's exchange (exactly one for equal
// halves; the overflow ranks of the larger half otherwise).
func redistributionSources(rank, lo, mid, hi int) []int {
	var out []int
	if rank < mid {
		for q := mid; q < hi; q++ {
			if lo+(q-mid)%(mid-lo) == rank {
				out = append(out, q)
			}
		}
	} else {
		for q := lo; q < mid; q++ {
			if mid+(q-lo)%(hi-mid) == rank {
				out = append(out, q)
			}
		}
	}
	return out
}

// maxGlobalIntervals caps the merged group sample set used as histogram
// boundaries. The paper gathers P×m samples; at large P that many
// boundaries add resolution the approximate median doesn't need, so the
// merged set is subsampled to this bound (documented deviation; the split
// quality tests cover it).
const maxGlobalIntervals = 2048

func capBoundaries(s []float32, limit int) []float32 {
	if len(s) <= limit {
		return s
	}
	out := make([]float32, 0, limit)
	stride := float64(len(s)) / float64(limit)
	for i := 0; i < limit; i++ {
		out = append(out, s[int(float64(i)*stride)])
	}
	return out
}

func identityIdx(n int) []int32 {
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	return idx
}

// psChunk is the fixed row-chunk width of partitionStrict's count and
// scatter passes.
const psChunk = 8192

// partitionStrict splits packed points into (< v) and (≥ v) along dim,
// preserving input order on both sides. A counting pass sizes the four
// output buffers exactly, then a scatter pass writes every row straight to
// its final slot — the seed grew all four slices with per-row appends,
// reallocating O(log n) times per level and copying O(n·dims) on every
// growth. Both passes chunk over the pool with fixed boundaries; per-chunk
// counts prefix-sum in chunk order, so the output is byte-identical to the
// sequential append loop for any worker count.
func partitionStrict(coords []float32, ids []int64, dims, dim int, v float32, pool *par.Pool) (lc []float32, lids []int64, rc []float32, rids []int64) {
	n := len(coords) / dims
	nc := par.Chunks(n, psChunk)
	if nc == 0 {
		return nil, nil, nil, nil
	}
	counts := make([]int32, nc)
	pool.ForChunks(n, psChunk, func(c, lo, hi int) {
		var left int32
		for i := lo; i < hi; i++ {
			if coords[i*dims+dim] < v {
				left++
			}
		}
		counts[c] = left
	})
	// Exclusive prefix over chunk counts → each chunk's first write slot on
	// both sides.
	leftStart := make([]int32, nc)
	rightStart := make([]int32, nc)
	var nl int32
	for c := 0; c < nc; c++ {
		leftStart[c] = nl
		nl += counts[c]
	}
	for c := 0; c < nc; c++ {
		rightStart[c] = int32(c*psChunk) - leftStart[c]
	}
	nr := int32(n) - nl
	lc = make([]float32, int(nl)*dims)
	lids = make([]int64, nl)
	rc = make([]float32, int(nr)*dims)
	rids = make([]int64, nr)
	pool.ForChunks(n, psChunk, func(c, lo, hi int) {
		l, r := int(leftStart[c]), int(rightStart[c])
		for i := lo; i < hi; i++ {
			row := coords[i*dims : (i+1)*dims]
			if row[dim] < v {
				copy(lc[l*dims:(l+1)*dims], row)
				lids[l] = ids[i]
				l++
			} else {
				copy(rc[r*dims:(r+1)*dims], row)
				rids[r] = ids[i]
				r++
			}
		}
	})
	return lc, lids, rc, rids
}

// mustDecode aborts on a short or malformed rank-to-rank message. Its
// sender is this same program, so a bad buffer is a bug: it must stop the
// run loudly, never decode as zeros.
func mustDecode(d *wire.Decoder, what string) {
	if err := d.Err(); err != nil {
		panic(fmt.Sprintf("core: decoding %s: %v", what, err))
	}
}

// chargeAll spreads cooperative work units across all simulated threads of
// the current phase.
func chargeAll(c *cluster.Comm, k simtime.Kind, units int64) {
	threads := c.Threads()
	pm := c.Recorder().Current()
	share := units / int64(threads)
	rem := units - share*int64(threads)
	for t := 0; t < threads; t++ {
		u := share
		if t == 0 {
			u += rem
		}
		pm.Thread(t).Add(k, u)
	}
}
