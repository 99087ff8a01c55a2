//go:build amd64

#include "textflag.h"

// WINDOW adds to AX the number of the 8 points at off(R10) that are <= v
// (Y0): VCMPPS with predicate 13 (GE_OS, false for NaN) sets lane i when
// v >= point i, VMOVMSKPS packs the lanes into bits and POPCNT counts them.
#define WINDOW(off) \
	VCMPPS    $13, off(R10), Y0, Y1; \
	VMOVMSKPS Y1, BX; \
	POPCNTL   BX, BX; \
	ADDQ      BX, AX

// func locateAVX2(vals *float32, n int, sub *float32, groups int, points *float32, counts *int64)
//
// For each value v: the block index is the number of Sub entries <= v,
// counted 8 at a time over every group of the padded Sub. Block 0 is bin 0
// (v below the first boundary, or NaN). Otherwise the window starts at
// point (block-1)*32 and the bin is that start plus the number of the
// window's 32 points <= v. The NaN pads are never counted, so the bins
// equal LocateScan's on sorted, NaN-free boundaries.
TEXT ·locateAVX2(SB), NOSPLIT, $0-48
	MOVQ vals+0(FP), SI
	MOVQ n+8(FP), CX
	MOVQ sub+16(FP), R8
	MOVQ groups+24(FP), R9
	MOVQ points+32(FP), DI
	MOVQ counts+40(FP), DX

value:
	VBROADCASTSS (SI), Y0
	XORQ         AX, AX    // block index
	MOVQ         R8, R10
	MOVQ         R9, R11

group:
	WINDOW(0)
	ADDQ $32, R10
	DECQ R11
	JNZ  group
	TESTQ AX, AX
	JZ    bin
	DECQ  AX
	SHLQ  $5, AX           // the window's first point
	LEAQ  (DI)(AX*4), R10
	WINDOW(0)
	WINDOW(32)
	WINDOW(64)
	WINDOW(96)

bin:
	INCQ (DX)(AX*8)
	ADDQ $4, SI
	DECQ CX
	JNZ  value
	VZEROUPPER
	RET
