//go:build amd64

package geom

// detectCPU reads the CPUID feature bits. The leaf kernel needs AVX2
// (VPBROADCASTD, VPCMPGTD on YMM registers) and an OS that saves the YMM
// registers; it uses no FMA, so its sums round exactly like the scalar ones.
// The histogram kernel of internal/sample needs AVX2 and POPCNT.
func detectCPU() CPUFeatures {
	var f CPUFeatures
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 1 {
		return f
	}
	const popcnt, osxsave, avx = 1 << 23, 1 << 27, 1 << 28
	_, _, ecx1, _ := cpuid(1, 0)
	f.POPCNT = ecx1&popcnt != 0
	if maxID < 7 || ecx1&osxsave == 0 || ecx1&avx == 0 {
		return f
	}
	const xmmYMMState = 1<<1 | 1<<2
	if xgetbv()&xmmYMMState != xmmYMMState {
		return f
	}
	const avx2 = 1 << 5
	_, ebx7, _, _ := cpuid(7, 0)
	f.AVX2 = ebx7&avx2 != 0
	return f
}

// cpuid executes CPUID with the given leaf (EAX) and sub-leaf (ECX).
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low half of extended control register 0 (XCR0).
func xgetbv() (eax uint32)

// dist2MaskAVX2 is Dist2Mask for 1 ≤ n ≤ MaskBlock points of dims ≥ 1
// coordinates: it reads q[:dims] and rows[j*stride:j*stride+n] for each
// j < dims, writes out[:n] and returns the candidate mask.
//
//go:noescape
func dist2MaskAVX2(q, rows, out *float32, n, dims, stride int, bound float32) uint64

// Prefetch asks the CPU to bring every cache line of b into the cache
// (PREFETCHT0), without waiting for them: a hint that changes no value.
//
//go:noescape
func Prefetch(b []float32)
