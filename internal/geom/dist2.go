package geom

// Blocked squared-distance kernels over row-major packed memory (§III-C):
// the packed layout makes each block a dense, branch-free loop, and
// per-dimensionality specializations (2-D…10-D, covering the paper's
// particle and Daya Bay workloads) keep the query coordinates in registers
// instead of re-walking a generic per-coordinate loop. These pure-Go
// kernels serve the baselines, which keep their points row-major. The
// kd-tree stores each leaf leaf-major (one row per dimension) and scores it
// with Dist2Mask (dist2mask.go), which loads 8 points of one dimension at a
// time with AVX2 where the CPU has it.
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
