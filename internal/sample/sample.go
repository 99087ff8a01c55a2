// Package sample implements the sampling machinery PANDA uses during kd-tree
// construction (§III-A1 of the paper):
//
//   - split-dimension selection: maximum variance over a subset of points
//     (FLANN-style, the paper's choice) or maximum range (ANN-style, kept as
//     the ablation baseline);
//   - split-point selection: a sampling heuristic that estimates the data
//     distribution along the chosen dimension with a non-uniform histogram
//     whose bin boundaries are the sampled values themselves, then picks the
//     interval point closest to the 50% quantile as the approximate median;
//   - histogram bin location: the two-level "sub-interval scan" the paper
//     introduces (pull every 32nd interval point into a small sub-interval
//     array, scan it linearly, then scan the identified 32-wide range),
//     which on Edison gave up to 42% local-construction gains over binary
//     search. Every build histogram (HistogramPar) runs it a block of
//     values at a time, as SIMD compare + popcount on amd64 with AVX2
//     (locate_amd64.s) and as the scalar LocateScan elsewhere. The
//     binary-search baseline (LocateBinary, useScan=false in Histogram
//     and HistogramInto) remains for the bin-location ablation and as the
//     reference the scan is tested against.
package sample

import (
	"math"
	"sort"

	"panda/internal/par"
)

// SubIntervalStride is the paper's stride: every 32nd interval point is
// pulled into the first-level scan array.
const SubIntervalStride = 32

// SplitPolicy selects how the split dimension is chosen at each kd-tree
// level.
type SplitPolicy int

const (
	// MaxVariance picks the dimension with maximum sample variance
	// (PANDA's policy, after FLANN).
	MaxVariance SplitPolicy = iota
	// MaxRange picks the dimension with maximum extent (ANN's policy);
	// kept for the split-dimension ablation.
	MaxRange
)

func (p SplitPolicy) String() string {
	switch p {
	case MaxVariance:
		return "max-variance"
	case MaxRange:
		return "max-range"
	default:
		return "unknown"
	}
}

// ChooseDimension returns the split dimension for the packed points
// coords (n points, dims-dimensional) restricted to the index set idx,
// examining at most sampleCap points (0 means all). Sampling is
// deterministic: indices are taken at a fixed stride, which is equivalent
// to random sampling for our already-shuffled inputs and keeps every run
// reproducible.
func ChooseDimension(coords []float32, dims int, idx []int32, sampleCap int, policy SplitPolicy) int {
	n := len(idx)
	if n == 0 {
		return 0
	}
	stride := 1
	if sampleCap > 0 && n > sampleCap {
		stride = n / sampleCap
	}
	switch policy {
	case MaxRange:
		return chooseDimensionRange(coords, dims, idx, stride)
	default:
		return chooseDimensionVariance(coords, dims, idx, stride)
	}
}

func chooseDimensionVariance(coords []float32, dims int, idx []int32, stride int) int {
	// Welford-free two-pass on the sample: the sample is small (<= a few
	// thousand points), so accumulate sum and sum-of-squares in float64.
	sum := make([]float64, dims)
	sum2 := make([]float64, dims)
	count := 0
	for i := 0; i < len(idx); i += stride {
		row := coords[int(idx[i])*dims : int(idx[i])*dims+dims]
		for d, v := range row {
			fv := float64(v)
			sum[d] += fv
			sum2[d] += fv * fv
		}
		count++
	}
	if count == 0 {
		return 0
	}
	best, bestVar := 0, -1.0
	for d := 0; d < dims; d++ {
		mean := sum[d] / float64(count)
		variance := sum2[d]/float64(count) - mean*mean
		if variance > bestVar {
			best, bestVar = d, variance
		}
	}
	return best
}

func chooseDimensionRange(coords []float32, dims int, idx []int32, stride int) int {
	mins := make([]float32, dims)
	maxs := make([]float32, dims)
	first := coords[int(idx[0])*dims : int(idx[0])*dims+dims]
	copy(mins, first)
	copy(maxs, first)
	for i := stride; i < len(idx); i += stride {
		row := coords[int(idx[i])*dims : int(idx[i])*dims+dims]
		for d, v := range row {
			if v < mins[d] {
				mins[d] = v
			}
			if v > maxs[d] {
				maxs[d] = v
			}
		}
	}
	best, bestRange := 0, float32(-1)
	for d := 0; d < dims; d++ {
		if r := maxs[d] - mins[d]; r > bestRange {
			best, bestRange = d, r
		}
	}
	return best
}

// Sample extracts up to m values of dimension dim from the points in idx at
// a deterministic stride. The result is NOT sorted.
func Sample(coords []float32, dims, dim int, idx []int32, m int) []float32 {
	n := len(idx)
	if n == 0 || m <= 0 {
		return nil
	}
	stride := 1
	if n > m {
		stride = n / m
	}
	out := make([]float32, 0, m)
	for i := 0; i < n && len(out) < m; i += stride {
		out = append(out, coords[int(idx[i])*dims+dim])
	}
	return out
}

// Intervals is the non-uniform histogram bin structure: Points are the
// sorted sample values (bin boundaries), and Sub is the first-level
// sub-interval array holding every SubIntervalStride-th point for the
// two-level scan. Bin b covers [Points[b-1], Points[b]), with bin 0 covering
// (-inf, Points[0]) and bin len(Points) covering [Points[len-1], +inf):
// there are len(Points)+1 bins.
type Intervals struct {
	Points []float32
	Sub    []float32

	// pointsPad is Points followed by SubIntervalStride NaNs, and subPad is
	// Sub NaN-padded to a multiple of 8: the block kernel compares whole
	// 8-wide groups of Sub and a full 32-wide window of Points, and an
	// ordered comparison never counts a NaN pad. Both are nil when Points
	// is empty or holds a NaN; HistogramInto then locates every value with
	// LocateScan.
	pointsPad, subPad []float32
}

// NewIntervals sorts (a copy of) the sample values, deduplicates them, and
// precomputes the sub-interval array and the block kernel's padded copies.
func NewIntervals(sample []float32) Intervals {
	// One allocation holds the boundaries and, past them, the NaN pad.
	pts := make([]float32, len(sample), len(sample)+SubIntervalStride)
	copy(pts, sample)
	sort.Slice(pts, func(i, j int) bool { return pts[i] < pts[j] })
	// Deduplicate: equal boundary values create zero-width bins which add
	// work and no resolution. Heavy duplication happens on the Daya Bay
	// dataset where many records are co-located.
	uniq := pts[:0]
	for i, v := range pts {
		if i == 0 || v != uniq[len(uniq)-1] {
			uniq = append(uniq, v)
		}
	}
	n := len(uniq)
	// The capacity limits keep an append to Points or Sub off the pads.
	iv := Intervals{Points: pts[:n:n]}
	if n == 0 {
		return iv
	}
	m := (n + SubIntervalStride - 1) / SubIntervalStride
	sub := make([]float32, (m+7)&^7)
	for j := 0; j < m; j++ {
		sub[j] = pts[j*SubIntervalStride]
	}
	iv.Sub = sub[:m:m]
	// Dedup keeps every NaN (NaN != anything), so checking Points suffices.
	for _, v := range iv.Points {
		if v != v {
			return iv
		}
	}
	iv.subPad = padNaN(sub, m)
	iv.pointsPad = padNaN(pts[:n+SubIntervalStride], n)
	return iv
}

// padNaN sets s[from:] to NaN and returns s.
func padNaN(s []float32, from int) []float32 {
	nan := float32(math.NaN())
	for i := from; i < len(s); i++ {
		s[i] = nan
	}
	return s
}

// Bins returns the number of histogram bins (len(Points)+1).
func (iv Intervals) Bins() int { return len(iv.Points) + 1 }

// LocateBinary returns the bin index of value v using binary search
// (the baseline the paper replaces: it "suffers from branch misprediction").
func (iv Intervals) LocateBinary(v float32) int {
	// First index with Points[i] > v; that index is the bin.
	lo, hi := 0, len(iv.Points)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if iv.Points[mid] <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// LocateScan returns the bin index of value v using the paper's two-level
// sub-interval scan: scan the coarse Sub array linearly, then count the
// points <= v in the identified 32-wide window of Points. It is the scalar
// reference of the block kernel HistogramInto runs, and its fallback.
func (iv Intervals) LocateScan(v float32) int {
	sub := iv.Sub
	// First-level scan: count the sub-interval points <= v. The loop exits
	// at the first point above v; on sorted, NaN-free boundaries that count
	// equals the kernel's compare+popcount over all of Sub.
	block := 0
	for block < len(sub) && sub[block] <= v {
		block++
	}
	if block == 0 {
		return 0 // below the first boundary
	}
	start := (block - 1) * SubIntervalStride
	end := start + SubIntervalStride
	if end > len(iv.Points) {
		end = len(iv.Points)
	}
	// Second-level scan: count points <= v within the window, branch-free.
	count := 0
	win := iv.Points[start:end]
	for _, p := range win {
		if p <= v {
			count++
		}
	}
	return start + count
}

// Histogram counts, for each bin, how many of the dim-coordinates of the
// points in idx fall in that bin. useScan selects the two-level scan
// (PANDA) versus binary search (baseline). The returned slice has Bins()
// entries.
func (iv Intervals) Histogram(coords []float32, dims, dim int, idx []int32, useScan bool) []int64 {
	counts := make([]int64, iv.Bins())
	iv.HistogramInto(counts, coords, dims, dim, idx, useScan)
	return counts
}

// HistogramInto accumulates idx's bin counts into counts, which must have at
// least Bins() entries. Counts are integers, so per-chunk partial histograms
// merged in any order equal a single sequential pass — this is the mergeable
// form the parallel construction passes build their per-worker local
// histograms with.
//
// The scan path works in blocks of locateBlockLen values: it gathers the
// block's dim-coordinates into a stack buffer first, a tight loop whose
// cache misses overlap, then locates the whole block in one call.
func (iv Intervals) HistogramInto(counts []int64, coords []float32, dims, dim int, idx []int32, useScan bool) {
	if !useScan {
		for _, i := range idx {
			counts[iv.LocateBinary(coords[int(i)*dims+dim])]++
		}
		return
	}
	var vals [locateBlockLen]float32
	for len(idx) > 0 {
		blk := idx[:min(len(idx), locateBlockLen)]
		for j, i := range blk {
			vals[j] = coords[int(i)*dims+dim]
		}
		iv.locateBlock(vals[:len(blk)], counts)
		idx = idx[len(blk):]
	}
}

// histChunk is the fixed chunk width of HistogramPar's location pass;
// boundaries depend only on len(idx), never on the worker count.
const histChunk = 8192

// HistogramPar is the two-level-scan Histogram with the bin-location pass
// fanned out over pool's workers: each fixed chunk of idx accumulates a
// local histogram into its own partial array (the cooperative data-parallel
// split of §III-A), and the partials are merged in chunk order. Integer
// counts make the merge exact, so the result is identical to Histogram for
// any worker count. It is the histogram every sampled split of the local
// and global builds runs.
func (iv Intervals) HistogramPar(coords []float32, dims, dim int, idx []int32, pool *par.Pool) []int64 {
	n := len(idx)
	if pool.Workers() <= 1 || n < 2*histChunk {
		return iv.Histogram(coords, dims, dim, idx, true)
	}
	bins := iv.Bins()
	nc := par.Chunks(n, histChunk)
	partials := make([]int64, nc*bins)
	pool.ForChunks(n, histChunk, func(c, lo, hi int) {
		iv.HistogramInto(partials[c*bins:(c+1)*bins], coords, dims, dim, idx[lo:hi], true)
	})
	counts := make([]int64, bins)
	for c := 0; c < nc; c++ {
		base := c * bins
		for b := 0; b < bins; b++ {
			counts[b] += partials[base+b]
		}
	}
	return counts
}

// ApproxMedian picks the split value from a (possibly reduced-over-ranks)
// histogram: the interval point whose cumulative count is closest to 50% of
// the total. It returns the chosen value and the cumulative fraction below
// it. When the histogram is empty it returns (0, 0).
//
// Boundary semantics: returning Points[b] means "split at the lower edge of
// bin b+1"; points with coordinate < Points[b] go left.
func (iv Intervals) ApproxMedian(counts []int64) (value float32, frac float64) {
	return iv.ApproxQuantile(counts, 0.5)
}

// ApproxQuantile generalizes ApproxMedian to an arbitrary target fraction q
// in (0,1): the global kd-tree uses it when a rank group splits into unequal
// halves (non-power-of-two cluster sizes) so each rank still receives an
// equal share of points.
func (iv Intervals) ApproxQuantile(counts []int64, q float64) (value float32, frac float64) {
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 || len(iv.Points) == 0 {
		return 0, 0
	}
	half := float64(total) * q
	// cumulative[b] after processing bin b = number of values < Points[b]
	// (bin b holds values in [Points[b-1], Points[b])).
	var cum int64
	bestIdx, bestGap := 0, math.Inf(1)
	for b := 0; b < len(iv.Points); b++ {
		cum += counts[b]
		gap := math.Abs(float64(cum) - half)
		if gap < bestGap {
			bestIdx, bestGap = b, gap
		}
	}
	// Recompute cumulative below the chosen boundary for the caller.
	var below int64
	for b := 0; b <= bestIdx; b++ {
		below += counts[b]
	}
	return iv.Points[bestIdx], float64(below) / float64(total)
}
