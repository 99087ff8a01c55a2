package geom

// MaskBlock is the most points one Dist2Mask call scores: one bit of its
// uint64 candidate mask per point.
const MaskBlock = 64

// Dist2Mask scores a leaf-major block of n ≤ MaskBlock points against q
// under the pruning bound and returns the candidate mask: bit i is set
// exactly when point i's squared distance is below bound. The block is
// len(q) rows of n floats, stride floats apart: coordinate j of point i is
// rows[j*stride+i]. It reads nothing past the last row's n-th float and
// writes out[:n] and nothing past it: every point below bound gets its
// exact, bit-identical Dist2 value, every other point some value ≥ bound.
//
// On amd64 CPUs with AVX2 (checked once at start-up through CPUID and
// XGETBV) this is the 8-wide kernel of dist2mask_amd64.s; elsewhere it is
// Dist2MaskGo.
func Dist2Mask(q, rows []float32, stride, n int, out []float32, bound float32) uint64 {
	if !CPU.AVX2 || n <= 0 || n > MaskBlock {
		return Dist2MaskGo(q, rows, stride, n, out, bound) // which rejects n > MaskBlock
	}
	_ = rows[(len(q)-1)*stride+n-1] // the last float the kernel reads
	out = out[:n]                   // the kernel writes exactly out[:n]
	return dist2MaskAVX2(&q[0], &rows[0], &out[0], n, len(q), stride, bound)
}

// Dist2MaskGo is the pure-Go form of Dist2Mask: it walks down the columns
// of 4 points at a time, adding one dimension's squares to the 4 sums in
// the scalar Dist2 order, and stops a group after the first (len(q)+1)/2
// dimensions when none of its sums is below bound. It is the fallback
// where AVX2 is absent and the reference the SIMD kernel is tested
// against.
func Dist2MaskGo(q, rows []float32, stride, n int, out []float32, bound float32) uint64 {
	if n > MaskBlock {
		panic("geom: Dist2Mask block exceeds MaskBlock points")
	}
	half := (len(q) + 1) / 2
	var m uint64
	g := 0
	for ; g+4 <= n; g += 4 {
		var s0, s1, s2, s3 float32
		for j, qj := range q {
			if j == half && s0 >= bound && s1 >= bound && s2 >= bound && s3 >= bound {
				break
			}
			r := rows[j*stride+g:][:4]
			d0, d1, d2, d3 := qj-r[0], qj-r[1], qj-r[2], qj-r[3]
			s0 += d0 * d0
			s1 += d1 * d1
			s2 += d2 * d2
			s3 += d3 * d3
		}
		o := out[g : g+4 : g+4]
		o[0], o[1], o[2], o[3] = s0, s1, s2, s3
	}
	for ; g < n; g++ {
		var s float32
		for j, qj := range q {
			d := qj - rows[j*stride+g]
			s += d * d
		}
		out[g] = s
	}
	for i, d := range out[:n] {
		if d < bound {
			m |= 1 << i
		}
	}
	return m
}
