package geom

import "testing"

// kernelRNG is a tiny deterministic generator (splitmix64) so kernel tests
// don't depend on internal/data (which would create an import cycle risk and
// hide the inputs).
type kernelRNG struct{ s uint64 }

func (r *kernelRNG) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *kernelRNG) float32() float32 {
	// Spread across positive/negative with varied magnitudes to exercise
	// rounding: values in [-8, 8).
	return float32(r.next()>>40)/float32(1<<20)*16 - 8
}

func randBlock(r *kernelRNG, n, dims int) ([]float32, []float32) {
	q := make([]float32, dims)
	for i := range q {
		q[i] = r.float32()
	}
	pts := make([]float32, n*dims)
	for i := range pts {
		pts[i] = r.float32()
	}
	return q, pts
}

// TestDist2BatchMatchesScalar checks every specialization (2-D…10-D) plus
// the generic fallback (1-D, 11-D, 13-D) for exact bit equality with the
// scalar Dist2 reference, across block sizes including the empty block.
func TestDist2BatchMatchesScalar(t *testing.T) {
	r := &kernelRNG{s: 1}
	for _, dims := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13} {
		for _, n := range []int{0, 1, 2, 3, 7, 32, 33} {
			q, pts := randBlock(r, n, dims)
			out := make([]float32, n)
			for i := range out {
				out[i] = -1 // poison: must be overwritten for every point
			}
			Dist2Batch(q, pts, out)
			for i := 0; i < n; i++ {
				want := Dist2(q, pts[i*dims:(i+1)*dims])
				if out[i] != want {
					t.Fatalf("dims=%d n=%d point %d: Dist2Batch=%v, scalar Dist2=%v",
						dims, n, i, out[i], want)
				}
			}
		}
	}
}
