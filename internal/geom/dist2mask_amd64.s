//go:build amd64

#include "textflag.h"

// Lane numbers 0..7: the gather index of lane l is l*dims, and lane l is
// live while l < the points left.
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

// GATHERDIFF leaves q[j] - p[l*dims+j] of every live lane in Y3 for the
// dimension j that R10 (into q) and R11 (into the group's points) address,
// then steps both to dimension j+1. Y1 is zeroed first so each gather
// depends only on its own inputs, not on the previous gather's result.
#define GATHERDIFF \
	VMOVAPS      Y13, Y2; \
	VXORPS       Y1, Y1, Y1; \
	VGATHERDPS   Y2, (R11)(Y14*4), Y1; \
	VBROADCASTSS (R10), Y3; \
	VSUBPS       Y1, Y3, Y3; \
	ADDQ         $4, R10; \
	ADDQ         $4, R11

// ACCUM adds dimension j's square to each lane's sum in Y0: the same
// sub, mul, add sequence and order as the scalar kernels, without FMA.
#define ACCUM \
	GATHERDIFF; \
	VMULPS Y3, Y3, Y3; \
	VADDPS Y3, Y0, Y0

// func dist2MaskAVX2(q, pts, out *float32, n, dims int, bound float32) uint64
//
// Scores the n points in groups of 8, one lane per point. Each group sums
// the first h = (dims+1)/2 dimensions, skips the rest when every live lane
// is already at or above bound (the lanes then hold partial sums ≥ bound),
// and stores its sums: a full group with VMOVUPS, the last partial group
// with VMASKMOVPS, so out[n:] is never written. The block's cache lines are
// prefetched first.
TEXT ·dist2MaskAVX2(SB), NOSPLIT, $0-56
	MOVQ         q+0(FP), SI
	MOVQ         pts+8(FP), DI
	MOVQ         out+16(FP), DX
	MOVQ         n+24(FP), R13            // points left
	MOVQ         dims+32(FP), BX
	VBROADCASTSS bound+40(FP), Y15
	VMOVDQU      lanes<>(SB), Y12
	VMOVQ        BX, X14
	VPBROADCASTD X14, Y14
	VPMULLD      Y12, Y14, Y14            // gather indices l*dims
	MOVQ         BX, R9
	INCQ         R9
	SHRQ         $1, R9                   // h = (dims+1)/2
	MOVQ         BX, R8
	SHLQ         $5, R8                   // group stride: 8 points * dims * 4 bytes
	MOVQ         R13, R10
	IMULQ        BX, R10
	SHLQ         $2, R10
	ADDQ         DI, R10                  // end of the block
	MOVQ         DI, R11
	ANDQ         $-64, R11                // the cache line of the first byte

prefetch:
	// Touch every cache line of the block up front, from the first byte's
	// to the last byte's, so their misses overlap instead of arriving one
	// gather at a time.
	PREFETCHT0 (R11)
	ADDQ       $64, R11
	CMPQ       R11, R10
	JLT        prefetch
	XORQ       AX, AX                     // candidate mask
	XORQ       CX, CX                     // the group's first bit

group:
	VMOVQ        R13, X13
	VPBROADCASTD X13, Y13
	VPCMPGTD     Y12, Y13, Y13            // live lanes: l < points left
	MOVQ         SI, R10
	MOVQ         DI, R11
	GATHERDIFF
	VMULPS       Y3, Y3, Y0               // s = d0*d0
	MOVQ         R9, R12
	DECQ         R12
	JZ           half

first:
	ACCUM
	DECQ R12
	JNZ  first

half:
	VCMPPS $1, Y15, Y0, Y4 // s < bound (LT_OS: false for NaN)
	VPTEST Y13, Y4
	JZ     store           // every live lane is at or above bound
	MOVQ   BX, R12
	SUBQ   R9, R12
	JZ     store

second:
	ACCUM
	DECQ   R12
	JNZ    second
	VCMPPS $1, Y15, Y0, Y4

store:
	VANDPS    Y13, Y4, Y4
	VMOVMSKPS Y4, R12
	SHLQ      CX, R12
	ORQ       R12, AX
	CMPQ      R13, $8
	JLT       tail
	VMOVUPS   Y0, (DX)
	ADDQ      R8, DI
	ADDQ      $32, DX
	ADDQ      $8, CX
	SUBQ      $8, R13
	JNZ       group
	VZEROUPPER
	MOVQ      AX, ret+48(FP)
	RET

tail:
	VMASKMOVPS Y0, Y13, (DX)
	VZEROUPPER
	MOVQ       AX, ret+48(FP)
	RET
