package sample

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"

	"panda/internal/par"
)

// mkPoints builds packed coords and the identity index set.
func mkPoints(vals [][]float32) (coords []float32, dims int, idx []int32) {
	dims = len(vals[0])
	for i, row := range vals {
		coords = append(coords, row...)
		idx = append(idx, int32(i))
	}
	return
}

func TestChooseDimensionVariancePicksSpreadDim(t *testing.T) {
	// Dim 1 has much larger variance.
	coords, dims, idx := mkPoints([][]float32{
		{0, -10}, {0.1, 10}, {0.2, -9}, {0.05, 9}, {0.15, 0},
	})
	if d := ChooseDimension(coords, dims, idx, 0, MaxVariance); d != 1 {
		t.Fatalf("variance chose dim %d, want 1", d)
	}
}

func TestChooseDimensionRangePicksWidestDim(t *testing.T) {
	// Dim 0 has one extreme outlier -> max range, but low variance mass.
	coords, dims, idx := mkPoints([][]float32{
		{0, 0}, {0, 1}, {0, -1}, {100, 0}, {0, 0.5},
	})
	if d := ChooseDimension(coords, dims, idx, 0, MaxRange); d != 0 {
		t.Fatalf("range chose dim %d, want 0", d)
	}
}

func TestChooseDimensionEmptyIndex(t *testing.T) {
	if d := ChooseDimension(nil, 3, nil, 0, MaxVariance); d != 0 {
		t.Fatalf("empty index chose %d, want 0", d)
	}
}

func TestChooseDimensionWithSampling(t *testing.T) {
	// With a large index and a sample cap, should still find the high
	// variance dim.
	n := 10000
	coords := make([]float32, n*2)
	idx := make([]int32, n)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		coords[i*2] = float32(r.NormFloat64() * 0.01)
		coords[i*2+1] = float32(r.NormFloat64() * 5)
		idx[i] = int32(i)
	}
	if d := ChooseDimension(coords, 2, idx, 100, MaxVariance); d != 1 {
		t.Fatalf("sampled variance chose %d, want 1", d)
	}
}

func TestSplitPolicyString(t *testing.T) {
	if MaxVariance.String() != "max-variance" || MaxRange.String() != "max-range" {
		t.Fatal("policy names wrong")
	}
	if SplitPolicy(99).String() != "unknown" {
		t.Fatal("unknown policy name wrong")
	}
}

func TestSampleRespectsCap(t *testing.T) {
	n := 1000
	coords := make([]float32, n)
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
		coords[i] = float32(i)
	}
	s := Sample(coords, 1, 0, idx, 64)
	if len(s) == 0 || len(s) > 64 {
		t.Fatalf("sample size = %d, want (0,64]", len(s))
	}
	s2 := Sample(coords, 1, 0, idx, 5000)
	if len(s2) != n {
		t.Fatalf("uncapped sample size = %d, want %d", len(s2), n)
	}
	if Sample(coords, 1, 0, nil, 10) != nil {
		t.Fatal("empty idx must return nil")
	}
}

func TestNewIntervalsSortsAndDeduplicates(t *testing.T) {
	iv := NewIntervals([]float32{3, 1, 2, 2, 1, 3, 3})
	want := []float32{1, 2, 3}
	if len(iv.Points) != len(want) {
		t.Fatalf("points = %v", iv.Points)
	}
	for i, v := range want {
		if iv.Points[i] != v {
			t.Fatalf("points = %v, want %v", iv.Points, want)
		}
	}
	if iv.Bins() != 4 {
		t.Fatalf("bins = %d, want 4", iv.Bins())
	}
}

func TestLocateBinaryBoundaries(t *testing.T) {
	iv := NewIntervals([]float32{10, 20, 30})
	cases := []struct {
		v    float32
		want int
	}{
		{5, 0}, {10, 1}, {15, 1}, {20, 2}, {25, 2}, {30, 3}, {35, 3},
	}
	for _, c := range cases {
		if got := iv.LocateBinary(c.v); got != c.want {
			t.Errorf("LocateBinary(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestLocateScanMatchesBinaryProperty(t *testing.T) {
	f := func(seed int64, nRaw uint16, probes [32]float32) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw%300) + 1
		vals := make([]float32, n)
		for i := range vals {
			vals[i] = float32(r.Intn(100)) // duplicates likely
		}
		iv := NewIntervals(vals)
		for _, p := range probes {
			v := float32(math.Mod(float64(p), 120))
			if iv.LocateScan(v) != iv.LocateBinary(v) {
				return false
			}
		}
		// Also probe exactly at every boundary.
		for _, b := range iv.Points {
			if iv.LocateScan(b) != iv.LocateBinary(b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestLocateScanAcrossSubIntervalBoundary(t *testing.T) {
	// More than one stride of interval points, probing around the stride
	// boundary where the two-level logic switches windows.
	n := SubIntervalStride*3 + 7
	vals := make([]float32, n)
	for i := range vals {
		vals[i] = float32(i)
	}
	iv := NewIntervals(vals)
	for v := float32(-1); v < float32(n)+1; v += 0.5 {
		if got, want := iv.LocateScan(v), iv.LocateBinary(v); got != want {
			t.Fatalf("LocateScan(%v) = %d, want %d", v, got, want)
		}
	}
}

func TestHistogramCountsEveryPointOnce(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	n := 5000
	coords := make([]float32, n)
	idx := make([]int32, n)
	for i := range coords {
		coords[i] = float32(r.NormFloat64())
		idx[i] = int32(i)
	}
	iv := NewIntervals(Sample(coords, 1, 0, idx, 256))
	for _, useScan := range []bool{true, false} {
		h := iv.Histogram(coords, 1, 0, idx, useScan)
		var total int64
		for _, c := range h {
			total += c
		}
		if total != int64(n) {
			t.Fatalf("useScan=%v histogram total = %d, want %d", useScan, total, n)
		}
	}
}

func TestHistogramScanEqualsBinary(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	n := 2000
	coords := make([]float32, n)
	idx := make([]int32, n)
	for i := range coords {
		coords[i] = float32(r.Intn(64)) // heavy duplication
		idx[i] = int32(i)
	}
	iv := NewIntervals(Sample(coords, 1, 0, idx, 128))
	a := iv.Histogram(coords, 1, 0, idx, true)
	b := iv.Histogram(coords, 1, 0, idx, false)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("bin %d: scan=%d binary=%d", i, a[i], b[i])
		}
	}
}

func TestApproxMedianNearTrueMedian(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	n := 20000
	coords := make([]float32, n)
	idx := make([]int32, n)
	for i := range coords {
		coords[i] = float32(r.NormFloat64()*3 + 1)
		idx[i] = int32(i)
	}
	iv := NewIntervals(Sample(coords, 1, 0, idx, 1024))
	h := iv.Histogram(coords, 1, 0, idx, true)
	v, frac := iv.ApproxMedian(h)

	sorted := make([]float32, n)
	copy(sorted, coords)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	trueMedian := sorted[n/2]
	if math.Abs(float64(v-trueMedian)) > 0.25 {
		t.Fatalf("approx median %v too far from true median %v", v, trueMedian)
	}
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("split fraction %v, want near 0.5", frac)
	}
}

func TestApproxMedianBalancedSplitProperty(t *testing.T) {
	// For any input distribution with enough distinct values, the chosen
	// split should put 35-65% of points below (the paper relies on the
	// approximate median being good enough for balanced trees).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4000
		coords := make([]float32, n)
		idx := make([]int32, n)
		mode := seed % 3
		for i := range coords {
			switch mode {
			case 0:
				coords[i] = float32(r.Float64())
			case 1:
				coords[i] = float32(r.NormFloat64())
			default:
				coords[i] = float32(r.ExpFloat64())
			}
			idx[i] = int32(i)
		}
		iv := NewIntervals(Sample(coords, 1, 0, idx, 512))
		h := iv.Histogram(coords, 1, 0, idx, true)
		v, _ := iv.ApproxMedian(h)
		below := 0
		for _, c := range coords {
			if c < v {
				below++
			}
		}
		f := float64(below) / float64(n)
		return f > 0.35 && f < 0.65
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestApproxMedianEmpty(t *testing.T) {
	iv := NewIntervals(nil)
	v, frac := iv.ApproxMedian(nil)
	if v != 0 || frac != 0 {
		t.Fatalf("empty median = %v %v", v, frac)
	}
}

func TestApproxMedianSingleValue(t *testing.T) {
	// All-identical data: one boundary after dedup, everything below or at
	// it. Must not panic and must return the value.
	iv := NewIntervals([]float32{5, 5, 5, 5})
	h := []int64{0, 10} // 0 below 5, 10 at/above
	v, _ := iv.ApproxMedian(h)
	if v != 5 {
		t.Fatalf("single-value median = %v, want 5", v)
	}
}

// TestHistogramParMatchesSequential: per-chunk local histograms merged in
// chunk order must equal the single-pass scan histogram exactly, for any
// worker count.
func TestHistogramParMatchesSequential(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)
	const n, dims, dim = 50_000, 4, 2
	coords := make([]float32, n*dims)
	for i := range coords {
		coords[i] = float32((i*48271)%9973) / 131
	}
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	boundaries := make([]float32, 700)
	for i := range boundaries {
		boundaries[i] = float32(i*11%9973) / 131
	}
	iv := NewIntervals(boundaries)
	want := iv.Histogram(coords, dims, dim, idx, true)
	for _, workers := range []int{1, 3, 8} {
		got := iv.HistogramPar(coords, dims, dim, idx, par.NewPool(workers))
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d bins, want %d", workers, len(got), len(want))
		}
		for b := range want {
			if got[b] != want[b] {
				t.Fatalf("workers=%d bin %d: %d != %d", workers, b, got[b], want[b])
			}
		}
	}
}

// TestHistogramIntoAccumulates: HistogramInto must add to, not overwrite,
// the provided counts (the merge contract).
func TestHistogramIntoAccumulates(t *testing.T) {
	coords := []float32{0.1, 0.5, 0.9}
	idx := []int32{0, 1, 2}
	iv := NewIntervals([]float32{0.3, 0.7})
	counts := make([]int64, iv.Bins())
	iv.HistogramInto(counts, coords, 1, 0, idx, true)
	iv.HistogramInto(counts, coords, 1, 0, idx, true)
	var total int64
	for _, c := range counts {
		total += c
	}
	if total != 6 {
		t.Fatalf("two accumulating passes counted %d values, want 6", total)
	}
}
