package geom

import (
	"encoding/binary"
	"fmt"
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

// leafRows lays the row-major block pts (n points of dims coordinates) out
// leaf-major with the given stride: coordinate j of point i goes to
// rows[j*stride+i]. The stride-n floats after each row hold NaN, which a
// stray read turns into a wrong mask bit or accepted value.
func leafRows(pts []float32, n, dims, stride int) []float32 {
	if n == 0 {
		return nil
	}
	rows := make([]float32, (dims-1)*stride+n)
	for i := range rows {
		rows[i] = float32(math.NaN())
	}
	for i := 0; i < n; i++ {
		for j := 0; j < dims; j++ {
			rows[j*stride+i] = pts[i*dims+j]
		}
	}
	return rows
}

// checkMask asserts Dist2Mask's contract for one call that returned m and
// wrote out: bit i is set exactly when exact[i] < bound, an accepted point
// carries the bit-identical scalar value, a rejected one a value ≥ bound,
// and out past n still holds poison.
func checkMask(t *testing.T, what string, m uint64, out, exact []float32, bound float32, poison float32) {
	t.Helper()
	n := len(exact)
	for i := 0; i < n; i++ {
		in := m&(1<<i) != 0
		if in != (exact[i] < bound) {
			t.Fatalf("%s bound=%v point %d: mask bit %v, scalar %v", what, bound, i, in, exact[i])
		}
		if in && math.Float32bits(out[i]) != math.Float32bits(exact[i]) {
			t.Fatalf("%s bound=%v point %d: accepted %v, scalar %v", what, bound, i, out[i], exact[i])
		}
		if !in && !(out[i] >= bound) {
			t.Fatalf("%s bound=%v point %d: rejected value %v below bound", what, bound, i, out[i])
		}
	}
	if n < MaskBlock && m>>n != 0 {
		t.Fatalf("%s: mask %#x has bits at or past n", what, m)
	}
	for i := n; i < len(out); i++ {
		if out[i] != poison {
			t.Fatalf("%s bound=%v: out[%d] written past n", what, bound, i)
		}
	}
}

// TestDist2MaskAVX2MatchesGo is the differential test of the SIMD leaf
// kernel: for every dimensionality 1–17, every block size 0–64 (so every
// tail length) and a row stride equal to and larger than the block, on
// plain and hostile coordinates, under bounds 0, tiny, typical (including
// one equal to a point's distance) and Inf2-like MaxFloat32, both kernels
// must return the same mask, accepted points must carry the bit-identical
// scalar Dist2 value, rejected points a value ≥ bound, and nothing past
// out[n] may be written.
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
				stride := n + trial/2*5 // the whole leaf, or a block of a wider one
				rows := leafRows(pts, n, dims, stride)
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
				what := fmt.Sprintf("dims=%d n=%d stride=%d", dims, n, stride)
				for _, bound := range bounds {
					simd := make([]float32, n+9)
					ref := make([]float32, n+9)
					for i := range simd {
						simd[i], ref[i] = poison, poison
					}
					ms := Dist2Mask(q, rows, stride, n, simd, bound)
					mg := Dist2MaskGo(q, rows, stride, n, ref, bound)
					if ms != mg {
						t.Fatalf("%s bound=%v: mask %#x, pure Go %#x", what, bound, ms, mg)
					}
					checkMask(t, what+" simd", ms, simd, exact, bound, poison)
					checkMask(t, what+" go", mg, ref, exact, bound, poison)
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
			rows := leafRows(pts, n, dims, n+1)
			out := make([]float32, n)
			for _, bound := range []float32{0, 20, 60, math.MaxFloat32} {
				m := Dist2MaskGo(q, rows, n+1, n, out, bound)
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
	Dist2Mask(q, make([]float32, 4*(MaskBlock+1)), MaskBlock+1, MaskBlock+1, make([]float32, MaskBlock+1), 1)
}

// FuzzDist2Mask compares the dispatching kernel (AVX2 where the CPU has
// it) with Dist2MaskGo on fuzzed dimensionality, block size, row stride,
// bound and coordinates: the same mask, bit-identical accepted values,
// rejected values ≥ bound, and no write past n. Non-finite coordinates,
// which a tree never holds, are replaced by 0.
func FuzzDist2Mask(f *testing.F) {
	f.Add(uint8(10), uint8(30), uint8(0), float32(20), []byte("seed coordinates"))
	f.Add(uint8(3), uint8(64), uint8(7), float32(math.MaxFloat32), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(17), uint8(1), uint8(200), float32(0), []byte{})
	f.Fuzz(func(t *testing.T, dims, n, pad uint8, bound float32, coords []byte) {
		d, m := int(dims%17)+1, int(n%(MaskBlock+1))
		stride := m + int(pad%32)
		if bound != bound {
			t.Skip("a NaN bound rejects every point, and no value is ≥ it")
		}
		vals := make([]float32, (d+1)*m+d)
		for i := range vals {
			var v float32
			if len(coords) >= 4 {
				o := i * 4 % (len(coords) - 3)
				v = math.Float32frombits(binary.LittleEndian.Uint32(coords[o:]) + uint32(i)*0x9e3779b9)
			}
			if !Finite(v) {
				v = 0
			}
			vals[i] = v
		}
		q, pts := vals[:d], vals[d:d+m*d]
		rows := leafRows(pts, m, d, stride)
		exact := make([]float32, m)
		for i := range exact {
			exact[i] = Dist2(q, pts[i*d:(i+1)*d])
		}
		const poison = -7
		simd := make([]float32, m+9)
		ref := make([]float32, m+9)
		for i := range simd {
			simd[i], ref[i] = poison, poison
		}
		ms := Dist2Mask(q, rows, stride, m, simd, bound)
		mg := Dist2MaskGo(q, rows, stride, m, ref, bound)
		if ms != mg {
			t.Fatalf("dims=%d n=%d stride=%d bound=%v: mask %#x, pure Go %#x", d, m, stride, bound, ms, mg)
		}
		checkMask(t, "simd", ms, simd, exact, bound, poison)
		checkMask(t, "go", mg, ref, exact, bound, poison)
	})
}

// BenchmarkDist2Mask times one default-size (32-point) 10-D bucket under a
// bound that rejects most points by the halfway check (tight) and one that
// accepts every point (open), for the dispatching kernel and the pure-Go
// one.
func BenchmarkDist2Mask(b *testing.B) {
	r := &kernelRNG{s: 13}
	q, pts := randBlock(r, 32, 10)
	rows := leafRows(pts, 32, 10, 32)
	out := make([]float32, 32)
	for _, bc := range []struct {
		name  string
		bound float32
	}{{"tight", 20}, {"open", math.MaxFloat32}} {
		for _, k := range []struct {
			name string
			fn   func(q, rows []float32, stride, n int, out []float32, bound float32) uint64
		}{{"dispatch", Dist2Mask}, {"go", Dist2MaskGo}} {
			b.Run(bc.name+"/"+k.name, func(b *testing.B) {
				for b.Loop() {
					k.fn(q, rows, 32, 32, out, bc.bound)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*32), "ns/point")
			})
		}
	}
}
