package geom

// Blocked squared-distance kernels over bucket-packed memory (§III-C). The
// packed layout makes each block a dense, branch-free loop, and
// per-dimensionality specializations (2-D…10-D, covering the paper's
// particle and Daya Bay workloads) keep the query coordinates in registers
// instead of re-walking a generic per-coordinate loop. These pure-Go
// kernels serve the baselines and back Dist2MaskGo; the kd-tree's leaf
// scans call Dist2Mask (dist2mask.go) at every dimensionality, which runs
// an AVX2 kernel where the CPU has one.
//
// Every kernel accumulates per-point sums in the same left-to-right order as
// the scalar Dist2 reference, so results are bit-identical to it — the
// query kernel's neighbor sets do not depend on which specialization ran.

// Dist2Batch computes squared distances from query q to every point in the
// packed block pts (n points of len(q) dims, laid out contiguously), writing
// into out[:n].
func Dist2Batch(q []float32, pts []float32, out []float32) {
	dims := len(q)
	n := len(pts) / dims
	switch dims {
	case 2:
		q0, q1 := q[0], q[1]
		for i, j := 0, 0; i < n; i, j = i+1, j+2 {
			b := pts[j : j+2 : j+2]
			d0 := q0 - b[0]
			d1 := q1 - b[1]
			out[i] = d0*d0 + d1*d1
		}
	case 3:
		q0, q1, q2 := q[0], q[1], q[2]
		for i, j := 0, 0; i < n; i, j = i+1, j+3 {
			b := pts[j : j+3 : j+3]
			d0 := q0 - b[0]
			d1 := q1 - b[1]
			d2 := q2 - b[2]
			out[i] = d0*d0 + d1*d1 + d2*d2
		}
	case 4:
		q0, q1, q2, q3 := q[0], q[1], q[2], q[3]
		for i, j := 0, 0; i < n; i, j = i+1, j+4 {
			b := pts[j : j+4 : j+4]
			d0 := q0 - b[0]
			d1 := q1 - b[1]
			d2 := q2 - b[2]
			d3 := q3 - b[3]
			out[i] = d0*d0 + d1*d1 + d2*d2 + d3*d3
		}
	case 5:
		q0, q1, q2, q3, q4 := q[0], q[1], q[2], q[3], q[4]
		for i, j := 0, 0; i < n; i, j = i+1, j+5 {
			b := pts[j : j+5 : j+5]
			d0 := q0 - b[0]
			d1 := q1 - b[1]
			d2 := q2 - b[2]
			d3 := q3 - b[3]
			d4 := q4 - b[4]
			out[i] = d0*d0 + d1*d1 + d2*d2 + d3*d3 + d4*d4
		}
	case 6:
		q0, q1, q2, q3, q4, q5 := q[0], q[1], q[2], q[3], q[4], q[5]
		for i, j := 0, 0; i < n; i, j = i+1, j+6 {
			b := pts[j : j+6 : j+6]
			d0 := q0 - b[0]
			d1 := q1 - b[1]
			d2 := q2 - b[2]
			d3 := q3 - b[3]
			d4 := q4 - b[4]
			d5 := q5 - b[5]
			out[i] = d0*d0 + d1*d1 + d2*d2 + d3*d3 + d4*d4 + d5*d5
		}
	case 7:
		q0, q1, q2, q3, q4, q5, q6 := q[0], q[1], q[2], q[3], q[4], q[5], q[6]
		for i, j := 0, 0; i < n; i, j = i+1, j+7 {
			b := pts[j : j+7 : j+7]
			d0 := q0 - b[0]
			d1 := q1 - b[1]
			d2 := q2 - b[2]
			d3 := q3 - b[3]
			d4 := q4 - b[4]
			d5 := q5 - b[5]
			d6 := q6 - b[6]
			out[i] = d0*d0 + d1*d1 + d2*d2 + d3*d3 + d4*d4 + d5*d5 + d6*d6
		}
	case 8:
		q0, q1, q2, q3 := q[0], q[1], q[2], q[3]
		q4, q5, q6, q7 := q[4], q[5], q[6], q[7]
		for i, j := 0, 0; i < n; i, j = i+1, j+8 {
			b := pts[j : j+8 : j+8]
			d0 := q0 - b[0]
			d1 := q1 - b[1]
			d2 := q2 - b[2]
			d3 := q3 - b[3]
			d4 := q4 - b[4]
			d5 := q5 - b[5]
			d6 := q6 - b[6]
			d7 := q7 - b[7]
			out[i] = d0*d0 + d1*d1 + d2*d2 + d3*d3 + d4*d4 + d5*d5 + d6*d6 + d7*d7
		}
	case 9:
		q0, q1, q2, q3, q4 := q[0], q[1], q[2], q[3], q[4]
		q5, q6, q7, q8 := q[5], q[6], q[7], q[8]
		for i, j := 0, 0; i < n; i, j = i+1, j+9 {
			b := pts[j : j+9 : j+9]
			d0 := q0 - b[0]
			d1 := q1 - b[1]
			d2 := q2 - b[2]
			d3 := q3 - b[3]
			d4 := q4 - b[4]
			d5 := q5 - b[5]
			d6 := q6 - b[6]
			d7 := q7 - b[7]
			d8 := q8 - b[8]
			out[i] = d0*d0 + d1*d1 + d2*d2 + d3*d3 + d4*d4 + d5*d5 + d6*d6 + d7*d7 + d8*d8
		}
	case 10:
		q0, q1, q2, q3, q4 := q[0], q[1], q[2], q[3], q[4]
		q5, q6, q7, q8, q9 := q[5], q[6], q[7], q[8], q[9]
		for i, j := 0, 0; i < n; i, j = i+1, j+10 {
			b := pts[j : j+10 : j+10]
			d0 := q0 - b[0]
			d1 := q1 - b[1]
			d2 := q2 - b[2]
			d3 := q3 - b[3]
			d4 := q4 - b[4]
			d5 := q5 - b[5]
			d6 := q6 - b[6]
			d7 := q7 - b[7]
			d8 := q8 - b[8]
			d9 := q9 - b[9]
			out[i] = d0*d0 + d1*d1 + d2*d2 + d3*d3 + d4*d4 + d5*d5 + d6*d6 + d7*d7 + d8*d8 + d9*d9
		}
	default:
		dist2BatchGeneric(q, pts, out, n, dims)
	}
}

// dist2BatchGeneric is the fallback for dimensionalities without a
// specialization: 4 coordinates per loop iteration, single accumulator with
// one add per statement so the summation order (and hence rounding) matches
// scalar Dist2 exactly.
func dist2BatchGeneric(q, pts, out []float32, n, dims int) {
	for i := 0; i < n; i++ {
		b := pts[i*dims : i*dims+dims : i*dims+dims]
		var s float32
		j := 0
		for ; j+4 <= dims; j += 4 {
			d0 := q[j] - b[j]
			s += d0 * d0
			d1 := q[j+1] - b[j+1]
			s += d1 * d1
			d2 := q[j+2] - b[j+2]
			s += d2 * d2
			d3 := q[j+3] - b[j+3]
			s += d3 * d3
		}
		for ; j < dims; j++ {
			d := q[j] - b[j]
			s += d * d
		}
		out[i] = s
	}
}

// boundedCheckSpan is how many coordinates Dist2BatchBounded accumulates
// between early-exit checks; amortizes the branch over a register block.
const boundedCheckSpan = 4

// Dist2BatchBounded is Dist2Batch with per-point early exit: once a point's
// partial sum reaches bound, the remaining coordinates are skipped and
// out[i] holds that partial sum (some value ≥ bound; since partial sums of
// squares are non-decreasing, the true distance is also ≥ bound, so callers
// filtering by `d < bound` see identical accept/reject decisions). Points
// whose true squared distance is below bound get the exact, bit-identical
// Dist2 value. This is the pruning-radius form of the leaf scan: in high
// dimensions most bucket points fail the current r' bound well before the
// last coordinate (§III-C's kernel with Algorithm 1's r' threaded through).
//
// Dimensionalities below 7 gain less from a mid-point exit than the branch
// costs and route to the unbounded specializations; 7-D through 10-D keep
// the query in registers with a single early-exit check halfway.
func Dist2BatchBounded(q []float32, pts []float32, out []float32, bound float32) {
	dims := len(q)
	if dims < 7 {
		Dist2Batch(q, pts, out)
		return
	}
	n := len(pts) / dims
	switch dims {
	case 7:
		q0, q1, q2, q3, q4, q5, q6 := q[0], q[1], q[2], q[3], q[4], q[5], q[6]
		for i, j := 0, 0; i < n; i, j = i+1, j+7 {
			b := pts[j : j+7 : j+7]
			d0 := q0 - b[0]
			s := d0 * d0
			d1 := q1 - b[1]
			s += d1 * d1
			d2 := q2 - b[2]
			s += d2 * d2
			d3 := q3 - b[3]
			s += d3 * d3
			if s >= bound {
				out[i] = s
				continue
			}
			d4 := q4 - b[4]
			s += d4 * d4
			d5 := q5 - b[5]
			s += d5 * d5
			d6 := q6 - b[6]
			s += d6 * d6
			out[i] = s
		}
		return
	case 8:
		q0, q1, q2, q3 := q[0], q[1], q[2], q[3]
		q4, q5, q6, q7 := q[4], q[5], q[6], q[7]
		for i, j := 0, 0; i < n; i, j = i+1, j+8 {
			b := pts[j : j+8 : j+8]
			d0 := q0 - b[0]
			s := d0 * d0
			d1 := q1 - b[1]
			s += d1 * d1
			d2 := q2 - b[2]
			s += d2 * d2
			d3 := q3 - b[3]
			s += d3 * d3
			if s >= bound {
				out[i] = s
				continue
			}
			d4 := q4 - b[4]
			s += d4 * d4
			d5 := q5 - b[5]
			s += d5 * d5
			d6 := q6 - b[6]
			s += d6 * d6
			d7 := q7 - b[7]
			s += d7 * d7
			out[i] = s
		}
		return
	case 9:
		q0, q1, q2, q3, q4 := q[0], q[1], q[2], q[3], q[4]
		q5, q6, q7, q8 := q[5], q[6], q[7], q[8]
		for i, j := 0, 0; i < n; i, j = i+1, j+9 {
			b := pts[j : j+9 : j+9]
			d0 := q0 - b[0]
			s := d0 * d0
			d1 := q1 - b[1]
			s += d1 * d1
			d2 := q2 - b[2]
			s += d2 * d2
			d3 := q3 - b[3]
			s += d3 * d3
			d4 := q4 - b[4]
			s += d4 * d4
			if s >= bound {
				out[i] = s
				continue
			}
			d5 := q5 - b[5]
			s += d5 * d5
			d6 := q6 - b[6]
			s += d6 * d6
			d7 := q7 - b[7]
			s += d7 * d7
			d8 := q8 - b[8]
			s += d8 * d8
			out[i] = s
		}
		return
	case 10:
		q0, q1, q2, q3, q4 := q[0], q[1], q[2], q[3], q[4]
		q5, q6, q7, q8, q9 := q[5], q[6], q[7], q[8], q[9]
		for i, j := 0, 0; i < n; i, j = i+1, j+10 {
			b := pts[j : j+10 : j+10]
			d0 := q0 - b[0]
			s := d0 * d0
			d1 := q1 - b[1]
			s += d1 * d1
			d2 := q2 - b[2]
			s += d2 * d2
			d3 := q3 - b[3]
			s += d3 * d3
			d4 := q4 - b[4]
			s += d4 * d4
			if s >= bound {
				out[i] = s
				continue
			}
			d5 := q5 - b[5]
			s += d5 * d5
			d6 := q6 - b[6]
			s += d6 * d6
			d7 := q7 - b[7]
			s += d7 * d7
			d8 := q8 - b[8]
			s += d8 * d8
			d9 := q9 - b[9]
			s += d9 * d9
			out[i] = s
		}
		return
	}
	for i := 0; i < n; i++ {
		b := pts[i*dims : i*dims+dims : i*dims+dims]
		var s float32
		j := 0
		for ; j+boundedCheckSpan <= dims; j += boundedCheckSpan {
			d0 := q[j] - b[j]
			s += d0 * d0
			d1 := q[j+1] - b[j+1]
			s += d1 * d1
			d2 := q[j+2] - b[j+2]
			s += d2 * d2
			d3 := q[j+3] - b[j+3]
			s += d3 * d3
			if s >= bound {
				break
			}
		}
		if s < bound {
			for ; j < dims; j++ {
				d := q[j] - b[j]
				s += d * d
			}
		}
		out[i] = s
	}
}
