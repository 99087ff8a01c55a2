//go:build amd64

#include "textflag.h"

// Lane numbers 0..7: lane l is live while l < the points left.
DATA lanes<>+0(SB)/4, $0
DATA lanes<>+4(SB)/4, $1
DATA lanes<>+8(SB)/4, $2
DATA lanes<>+12(SB)/4, $3
DATA lanes<>+16(SB)/4, $4
DATA lanes<>+20(SB)/4, $5
DATA lanes<>+24(SB)/4, $6
DATA lanes<>+28(SB)/4, $7
GLOBL lanes<>(SB), RODATA|NOPTR, $32

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET

// DIFF leaves q[j] - rows[j][g:g+8] in Y3 for the dimension j that R10
// (into q) and R11 (into row j, at the group's first point) address, then
// steps R10 to q[j+1] and R11 to row j+1: one load of 8 points.
#define DIFF \
	VBROADCASTSS (R10), Y3; \
	VSUBPS       (R11), Y3, Y3; \
	ADDQ         $4, R10; \
	ADDQ         R8, R11

// MDIFF is DIFF for the last, partial group: the masked load reads only
// the live lanes (Y13), so no row is read past its n-th float.
#define MDIFF \
	VMASKMOVPS   (R11), Y13, Y1; \
	VBROADCASTSS (R10), Y3; \
	VSUBPS       Y1, Y3, Y3; \
	ADDQ         $4, R10; \
	ADDQ         R8, R11

// ACCUM and MACCUM add dimension j's square to each lane's sum in Y0: the
// same sub, mul, add sequence and order as the scalar kernels, without FMA.
#define ACCUM \
	DIFF; \
	VMULPS Y3, Y3, Y3; \
	VADDPS Y3, Y0, Y0

#define MACCUM \
	MDIFF; \
	VMULPS Y3, Y3, Y3; \
	VADDPS Y3, Y0, Y0

// func dist2MaskAVX2(q, rows, out *float32, n, dims, stride int, bound float32) uint64
//
// Scores the n points in groups of 8, one lane per point; dimension j of a
// group is one 8-float load from row j. Each group sums the first
// h = (dims+1)/2 dimensions, skips the rest when every live lane is
// already at or above bound (the lanes then hold partial sums ≥ bound),
// and stores its sums. Full groups load and store with plain moves; the
// last partial group loads and stores with VMASKMOVPS, so nothing past a
// row's n-th float is read and nothing past out[n-1] is written. There is
// no software prefetch: each group reads consecutive floats of each row,
// which the hardware prefetcher follows, and an up-front prefetch of the
// block measured slower.
TEXT ·dist2MaskAVX2(SB), NOSPLIT, $0-64
	MOVQ         q+0(FP), SI
	MOVQ         rows+8(FP), DI
	MOVQ         out+16(FP), DX
	MOVQ         n+24(FP), R13            // points left
	MOVQ         dims+32(FP), BX
	MOVQ         stride+40(FP), R8
	SHLQ         $2, R8                   // row stride in bytes
	VBROADCASTSS bound+48(FP), Y15
	MOVQ         BX, R9
	INCQ         R9
	SHRQ         $1, R9                   // h = (dims+1)/2
	XORQ         AX, AX                   // candidate mask
	XORQ         CX, CX                   // the group's first bit
	CMPQ         R13, $8
	JLT          tail

group:
	MOVQ   SI, R10
	MOVQ   DI, R11
	DIFF
	VMULPS Y3, Y3, Y0                     // s = d0*d0
	MOVQ   R9, R12
	DECQ   R12
	JZ     half

first:
	ACCUM
	DECQ R12
	JNZ  first

half:
	VCMPPS $1, Y15, Y0, Y4 // s < bound (LT_OS: false for NaN)
	VPTEST Y4, Y4
	JZ     store           // every lane is at or above bound
	MOVQ   BX, R12
	SUBQ   R9, R12
	JZ     store

second:
	ACCUM
	DECQ   R12
	JNZ    second
	VCMPPS $1, Y15, Y0, Y4

store:
	VMOVMSKPS Y4, R12
	SHLQ      CX, R12
	ORQ       R12, AX
	VMOVUPS   Y0, (DX)
	ADDQ      $32, DI
	ADDQ      $32, DX
	ADDQ      $8, CX
	SUBQ      $8, R13
	CMPQ      R13, $8
	JGE       group
	TESTQ     R13, R13
	JZ        done

tail:
	VMOVQ        R13, X13
	VPBROADCASTD X13, Y13
	VMOVDQU      lanes<>(SB), Y12
	VPCMPGTD     Y12, Y13, Y13            // live lanes: l < points left
	MOVQ         SI, R10
	MOVQ         DI, R11
	MDIFF
	VMULPS       Y3, Y3, Y0
	MOVQ         R9, R12
	DECQ         R12
	JZ           tailHalf

tailFirst:
	MACCUM
	DECQ R12
	JNZ  tailFirst

tailHalf:
	VCMPPS $1, Y15, Y0, Y4
	VPTEST Y13, Y4
	JZ     tailStore       // every live lane is at or above bound
	MOVQ   BX, R12
	SUBQ   R9, R12
	JZ     tailStore

tailSecond:
	MACCUM
	DECQ   R12
	JNZ    tailSecond
	VCMPPS $1, Y15, Y0, Y4

tailStore:
	VANDPS     Y13, Y4, Y4
	VMOVMSKPS  Y4, R12
	SHLQ       CX, R12
	ORQ        R12, AX
	VMASKMOVPS Y0, Y13, (DX)

done:
	VZEROUPPER
	MOVQ AX, ret+56(FP)
	RET

// func Prefetch(b []float32)
//
// Issues one PREFETCHT0 per cache line from b's first byte's line up to
// its last byte's. Prefetches never fault, so any slice is safe.
TEXT ·Prefetch(SB), NOSPLIT, $0-24
	MOVQ  b_base+0(FP), R11
	MOVQ  b_len+8(FP), R10
	TESTQ R10, R10
	JZ    prefetched
	LEAQ  (R11)(R10*4), R10  // the end of b
	ANDQ  $-64, R11          // the cache line of its first byte

prefetch:
	PREFETCHT0 (R11)
	ADDQ       $64, R11
	CMPQ       R11, R10
	JLT        prefetch

prefetched:
	RET
