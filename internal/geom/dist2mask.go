package geom

// MaskBlock is the most points one Dist2Mask call scores: one bit of its
// uint64 candidate mask per point.
const MaskBlock = 64

// Dist2Mask scores the packed block pts (n = len(pts)/len(q) ≤ MaskBlock
// points) against q under the pruning bound and returns the candidate mask:
// bit i is set exactly when point i's squared distance is below bound. It
// writes out[:n] and nothing past it, with Dist2BatchBounded's contract:
// every point below bound gets its exact, bit-identical Dist2 value, every
// other point some value ≥ bound.
//
// On amd64 CPUs with AVX2 (checked once at start-up through CPUID and
// XGETBV) this is the 8-wide kernel of dist2mask_amd64.s; elsewhere it is
// Dist2MaskGo.
func Dist2Mask(q, pts, out []float32, bound float32) uint64 {
	dims := len(q)
	n := len(pts) / dims
	if !CPU.AVX2 || n == 0 || n > MaskBlock {
		return Dist2MaskGo(q, pts, out, bound) // which rejects n > MaskBlock
	}
	out = out[:n] // the kernel writes exactly out[:n]
	return dist2MaskAVX2(&q[0], &pts[0], &out[0], n, dims, bound)
}

// Dist2MaskGo is the pure-Go form of Dist2Mask: the unrolled
// Dist2BatchBounded kernels, then the mask. It is the fallback where AVX2
// is absent and the reference the SIMD kernel is tested against.
func Dist2MaskGo(q, pts, out []float32, bound float32) uint64 {
	n := len(pts) / len(q)
	if n > MaskBlock {
		panic("geom: Dist2Mask block exceeds MaskBlock points")
	}
	Dist2BatchBounded(q, pts, out, bound)
	var m uint64
	for i, d := range out[:n] {
		if d < bound {
			m |= 1 << i
		}
	}
	return m
}
