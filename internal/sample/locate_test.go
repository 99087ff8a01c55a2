package sample

import (
	"math"
	"math/rand"
	"testing"
)

// withKernel runs f with the block kernel on or off and restores it.
func withKernel(on bool, f func()) {
	saved := useKernel
	useKernel = on
	defer func() { useKernel = saved }()
	f()
}

// kernelModes is the Go fallback, plus the block kernel where this CPU
// runs it.
func kernelModes() []bool {
	if useKernel {
		return []bool{false, true}
	}
	return []bool{false}
}

// scanHistogram is the reference: every value's LocateScan bin, one value
// at a time.
func scanHistogram(iv Intervals, coords []float32, dims, dim int, idx []int32) []int64 {
	counts := make([]int64, iv.Bins())
	for _, i := range idx {
		counts[iv.LocateScan(coords[int(i)*dims+dim])]++
	}
	return counts
}

// hostileSample returns a shuffled sample with exactly nb distinct values
// (so exactly nb boundaries), repeats of some of them, and — depending on
// nb — ±0 and ±Inf among the boundaries.
func hostileSample(r *rand.Rand, nb int) (sample, distinct []float32) {
	v := float32(-50 + r.Float64()*10)
	for len(distinct) < nb {
		distinct = append(distinct, v)
		v = max(v+float32(r.ExpFloat64()*0.1), math.Nextafter32(v, float32(math.Inf(1))))
	}
	switch nb % 4 {
	case 1:
		distinct[0] = float32(math.Inf(-1))
	case 2:
		distinct[nb-1] = float32(math.Inf(1))
	case 3:
		if nb >= 3 {
			// A zero boundary, sampled as both -0 and +0 (one boundary
			// after dedup); the neighbors keep the values sorted and distinct.
			distinct[nb/2] = 0
			distinct[nb/2-1] = min(distinct[nb/2-1], -1e-30)
			distinct[nb/2+1] = max(distinct[nb/2+1], 1e-30)
			for i := nb/2 + 2; i < nb; i++ {
				distinct[i] = max(distinct[i], math.Nextafter32(distinct[i-1], float32(math.Inf(1))))
			}
		}
	}
	sample = append(sample, distinct...)
	for range nb / 3 {
		sample = append(sample, distinct[r.Intn(nb)])
	}
	if nb%4 == 3 && nb >= 3 {
		sample = append(sample, float32(math.Copysign(0, -1)))
	}
	r.Shuffle(len(sample), func(i, j int) { sample[i], sample[j] = sample[j], sample[i] })
	return sample, distinct
}

// probeValues is every boundary, its float32 neighbors on both sides, a few
// values outside and inside the range, ±0, ±Inf, ±MaxFloat32 and NaN.
func probeValues(r *rand.Rand, distinct []float32) []float32 {
	inf := float32(math.Inf(1))
	vals := []float32{
		0, float32(math.Copysign(0, -1)), inf, -inf, float32(math.NaN()),
		math.MaxFloat32, -math.MaxFloat32, -1e6, 1e6,
	}
	for _, b := range distinct {
		vals = append(vals, b, b, math.Nextafter32(b, -inf), math.Nextafter32(b, inf))
	}
	lo, hi := distinct[0], distinct[len(distinct)-1]
	if math.IsInf(float64(lo), 0) || math.IsInf(float64(hi), 0) {
		lo, hi = -60, 60
	}
	for range 32 {
		vals = append(vals, lo+(hi-lo)*float32(r.Float64()))
	}
	return vals
}

// boundaryCounts is every count 1–300, then a stride of 13 (coprime to 8
// and 32, so it keeps hitting every remainder) up to 2048, plus the powers
// of two up to the global tree's 2048 boundaries and their neighbors.
func boundaryCounts() []int {
	var nbs []int
	for nb := 1; nb <= 300; nb++ {
		nbs = append(nbs, nb)
	}
	for nb := 301; nb <= 2048; nb += 13 {
		nbs = append(nbs, nb)
	}
	for _, p := range []int{512, 1024, 2048} {
		nbs = append(nbs, p-1, p)
		if p < 2048 {
			nbs = append(nbs, p+1)
		}
	}
	return nbs
}

// TestLocateKernelMatchesScan is the differential test of the block
// kernel: for boundary counts 1–2048 (every remainder mod 8 and 32, and Sub
// up to 64 entries), on values equal to each boundary, their
// neighbors, duplicates, ±0, ±Inf and NaN, HistogramInto over idx slices of
// every length 1–300 (full and partial blocks) must give the reference
// LocateScan counts, kernel on and off.
func TestLocateKernelMatchesScan(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	const dims, dim = 3, 1
	step := 0
	for _, nb := range boundaryCounts() {
		sample, distinct := hostileSample(r, nb)
		iv := NewIntervals(sample)
		if len(iv.Points) != nb || iv.subPad == nil {
			t.Fatalf("nb=%d: %d boundaries, padded=%v", nb, len(iv.Points), iv.subPad != nil)
		}
		vals := probeValues(r, distinct)
		coords := make([]float32, len(vals)*dims)
		for i, v := range vals {
			coords[i*dims+dim] = v
			coords[i*dims] = float32(math.NaN()) // never read
		}
		idx := make([]int32, len(vals))
		for i, p := range r.Perm(len(vals)) {
			idx[i] = int32(p)
		}
		want := scanHistogram(iv, coords, dims, dim, idx)
		for _, on := range kernelModes() {
			got := make([]int64, iv.Bins())
			withKernel(on, func() {
				for rest := idx; len(rest) > 0; step++ {
					l := min(len(rest), 1+step%300)
					iv.HistogramInto(got, coords, dims, dim, rest[:l], true)
					rest = rest[l:]
				}
			})
			for b := range want {
				if got[b] != want[b] {
					t.Fatalf("nb=%d kernel=%v bin %d: %d, want %d", nb, on, b, got[b], want[b])
				}
			}
		}
	}
}

// TestLocateNaNBoundariesStayScalar: a NaN among the boundaries leaves the
// intervals unpadded, so every value takes LocateScan, kernel or not.
func TestLocateNaNBoundariesStayScalar(t *testing.T) {
	nan := float32(math.NaN())
	iv := NewIntervals([]float32{3, nan, 1, 2, nan, 5})
	if iv.subPad != nil || iv.pointsPad != nil {
		t.Fatal("NaN boundaries were padded for the kernel")
	}
	vals := []float32{0, 1, 1.5, 2, 3, 4, 5, 6, nan, float32(math.Inf(1))}
	idx := []int32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	want := scanHistogram(iv, vals, 1, 0, idx)
	got := iv.Histogram(vals, 1, 0, idx, true)
	for b := range want {
		if got[b] != want[b] {
			t.Fatalf("bin %d: %d, want %d", b, got[b], want[b])
		}
	}
}

// TestHistogramIntoAllocatesNothing: the block buffer lives on the stack.
func TestHistogramIntoAllocatesNothing(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	sample, _ := hostileSample(r, 1024)
	iv := NewIntervals(sample)
	const n, dims, dim = 5000, 4, 2
	coords := make([]float32, n*dims)
	for i := range coords {
		coords[i] = float32(r.NormFloat64())
	}
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(r.Intn(n))
	}
	counts := make([]int64, iv.Bins())
	for _, on := range kernelModes() {
		withKernel(on, func() {
			allocs := testing.AllocsPerRun(20, func() {
				iv.HistogramInto(counts, coords, dims, dim, idx, true)
			})
			if allocs != 0 {
				t.Fatalf("kernel=%v: %v allocations per HistogramInto call, want 0", on, allocs)
			}
		})
	}
}
