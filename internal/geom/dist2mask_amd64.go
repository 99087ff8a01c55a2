//go:build amd64

package geom

// haveAVX2 selects the AVX2 leaf kernel. The kernel needs AVX2 (VPMULLD,
// VPBROADCASTD, VGATHERDPS) and an OS that saves the YMM registers; it uses
// no FMA, so its sums round exactly like the scalar ones.
var haveAVX2 = cpuHasAVX2()

func cpuHasAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	const xmmYMMState = 1<<1 | 1<<2
	if xgetbv()&xmmYMMState != xmmYMMState {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// cpuid executes CPUID with the given leaf (EAX) and sub-leaf (ECX).
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low half of extended control register 0 (XCR0).
func xgetbv() (eax uint32)

// dist2MaskAVX2 is Dist2Mask for 1 ≤ n ≤ MaskBlock points of dims ≥ 1
// coordinates: it reads pts[:n*dims] and q[:dims], writes out[:n] and
// returns the candidate mask.
//
//go:noescape
func dist2MaskAVX2(q, pts, out *float32, n, dims int, bound float32) uint64
