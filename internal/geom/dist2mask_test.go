package geom

import (
	"math"
	"sort"
	"testing"
)

// edgeBlock is randBlock with hostile coordinates mixed in: ±0,
// subnormals and magnitudes whose squares overflow to +Inf.
func edgeBlock(r *kernelRNG, n, dims int) ([]float32, []float32) {
	q, pts := randBlock(r, n, dims)
	special := []float32{
		0, float32(math.Copysign(0, -1)),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40, -3e-39,
		1e18, -1e18, 3e19, -3e19, 1e38, -1e38,
	}
	for _, v := range [][]float32{q, pts} {
		for i := range v {
			if x := r.next(); x%4 == 0 {
				v[i] = special[(x>>8)%uint64(len(special))]
			}
		}
	}
	return q, pts
}

// TestDist2MaskAVX2MatchesGo is the differential test of the SIMD leaf
// kernel: for every dimensionality 1–17 and every block size 0–64 (so
// every tail length), on plain and hostile coordinates, under bounds 0,
// tiny, typical (including one equal to a point's distance) and Inf2-like
// MaxFloat32, both kernels must return the same mask, accepted points must
// carry the bit-identical scalar Dist2 value, rejected points a value ≥
// bound, and nothing past out[n] may be written.
func TestDist2MaskAVX2MatchesGo(t *testing.T) {
	if !CPU.AVX2 {
		t.Skip("AVX2 kernel not built or not supported by this CPU")
	}
	const poison = -7
	r := &kernelRNG{s: 11}
	for dims := 1; dims <= 17; dims++ {
		for n := 0; n <= MaskBlock; n++ {
			for trial := 0; trial < 4; trial++ {
				var q, pts []float32
				if trial%2 == 0 {
					q, pts = randBlock(r, n, dims)
				} else {
					q, pts = edgeBlock(r, n, dims)
				}
				exact := make([]float32, n)
				for i := range exact {
					exact[i] = Dist2(q, pts[i*dims:(i+1)*dims])
				}
				bounds := []float32{0, math.SmallestNonzeroFloat32, 1e-30, 1, 40, math.MaxFloat32}
				if n > 0 {
					sorted := append([]float32(nil), exact...)
					sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
					bounds = append(bounds, sorted[n/2], exact[int(r.next()%uint64(n))])
				}
				for _, bound := range bounds {
					simd := make([]float32, n+9)
					ref := make([]float32, n)
					for i := range simd {
						simd[i] = poison
					}
					ms := Dist2Mask(q, pts, simd[:n+9], bound)
					mg := Dist2MaskGo(q, pts, ref, bound)
					if ms != mg {
						t.Fatalf("dims=%d n=%d bound=%v: mask %#x, pure Go %#x", dims, n, bound, ms, mg)
					}
					for i := 0; i < n; i++ {
						in := ms&(1<<i) != 0
						if in != (exact[i] < bound) {
							t.Fatalf("dims=%d n=%d bound=%v point %d: mask bit %v, scalar %v", dims, n, bound, i, in, exact[i])
						}
						if in && math.Float32bits(simd[i]) != math.Float32bits(exact[i]) {
							t.Fatalf("dims=%d n=%d bound=%v point %d: accepted %v, scalar %v", dims, n, bound, i, simd[i], exact[i])
						}
						if !in && !(simd[i] >= bound) {
							t.Fatalf("dims=%d n=%d bound=%v point %d: rejected value %v below bound", dims, n, bound, i, simd[i])
						}
					}
					if n < MaskBlock && ms>>n != 0 {
						t.Fatalf("dims=%d n=%d: mask %#x has bits at or past n", dims, n, ms)
					}
					for i := n; i < len(simd); i++ {
						if simd[i] != poison {
							t.Fatalf("dims=%d n=%d bound=%v: out[%d] written past n", dims, n, bound, i)
						}
					}
				}
			}
		}
	}
}

// TestDist2MaskGoSemantics checks the fallback's contract on its own, so
// builds without the AVX2 kernel test the mask too.
func TestDist2MaskGoSemantics(t *testing.T) {
	r := &kernelRNG{s: 12}
	for _, dims := range []int{2, 3, 4, 7, 10, 13} {
		for _, n := range []int{0, 1, 9, 32, 64} {
			q, pts := randBlock(r, n, dims)
			out := make([]float32, n)
			for _, bound := range []float32{0, 20, 60, math.MaxFloat32} {
				m := Dist2MaskGo(q, pts, out, bound)
				for i := 0; i < n; i++ {
					want := Dist2(q, pts[i*dims:(i+1)*dims]) < bound
					if (m&(1<<i) != 0) != want {
						t.Fatalf("dims=%d n=%d bound=%v point %d: mask bit wrong", dims, n, bound, i)
					}
				}
			}
		}
	}
}

func TestDist2MaskRejectsOversizeBlock(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a block of MaskBlock+1 points did not panic")
		}
	}()
	q := make([]float32, 4)
	Dist2Mask(q, make([]float32, 4*(MaskBlock+1)), make([]float32, MaskBlock+1), 1)
}

// BenchmarkDist2Mask times one default-size (32-point) 10-D bucket under a
// bound that rejects most points by the halfway check (tight) and one that
// accepts every point (open), for the dispatching kernel and the pure-Go
// one.
func BenchmarkDist2Mask(b *testing.B) {
	r := &kernelRNG{s: 13}
	q, pts := randBlock(r, 32, 10)
	out := make([]float32, 32)
	for _, bc := range []struct {
		name  string
		bound float32
	}{{"tight", 20}, {"open", math.MaxFloat32}} {
		for _, k := range []struct {
			name string
			fn   func(q, pts, out []float32, bound float32) uint64
		}{{"dispatch", Dist2Mask}, {"go", Dist2MaskGo}} {
			b.Run(bc.name+"/"+k.name, func(b *testing.B) {
				for b.Loop() {
					k.fn(q, pts, out, bc.bound)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*32), "ns/point")
			})
		}
	}
}
