//go:build amd64 && !purego

#include "textflag.h"

// func dgemmKernel4x8(k int, a, b, c *float64, ldc int, acc bool)
//
// Computes the 4×8 register tile c (+)= aᵀ·b over the packed panels
//   a: [k][4]  (column of the A row-tile at each depth step)
//   b: [k][8]  (row of the B col-tile at each depth step)
//   c: [4][8]  in place, rows ldc elements apart; the accumulators start
//              from the tile's values when acc is set and from +0 otherwise.
//
// Accumulation runs in ascending depth order with one FMA chain per output
// element, so results are identical for any row/col tiling of the caller.
TEXT ·dgemmKernel4x8(SB), NOSPLIT, $0-41
	MOVQ k+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DI
	MOVQ c+24(FP), DX
	MOVQ ldc+32(FP), R8
	SHLQ $3, R8             // row stride in bytes
	LEAQ (DX)(R8*1), R9     // row 1
	LEAQ (R9)(R8*1), R10    // row 2
	LEAQ (R10)(R8*1), R11   // row 3

	MOVBLZX acc+40(FP), AX
	TESTL   AX, AX
	JZ      zero

	VMOVUPD (DX), Y0
	VMOVUPD 32(DX), Y1
	VMOVUPD (R9), Y2
	VMOVUPD 32(R9), Y3
	VMOVUPD (R10), Y4
	VMOVUPD 32(R10), Y5
	VMOVUPD (R11), Y6
	VMOVUPD 32(R11), Y7
	JMP     depth

zero:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

depth:
	TESTQ CX, CX
	JZ    done

loop:
	VMOVUPD (DI), Y8        // b[p][0:4]
	VMOVUPD 32(DI), Y9      // b[p][4:8]

	VBROADCASTSD (SI), Y10  // a[p][0]
	VFMADD231PD  Y8, Y10, Y0
	VFMADD231PD  Y9, Y10, Y1

	VBROADCASTSD 8(SI), Y10 // a[p][1]
	VFMADD231PD  Y8, Y10, Y2
	VFMADD231PD  Y9, Y10, Y3

	VBROADCASTSD 16(SI), Y10 // a[p][2]
	VFMADD231PD  Y8, Y10, Y4
	VFMADD231PD  Y9, Y10, Y5

	VBROADCASTSD 24(SI), Y10 // a[p][3]
	VFMADD231PD  Y8, Y10, Y6
	VFMADD231PD  Y9, Y10, Y7

	ADDQ $32, SI
	ADDQ $64, DI
	DECQ CX
	JNZ  loop

done:
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, (R9)
	VMOVUPD Y3, 32(R9)
	VMOVUPD Y4, (R10)
	VMOVUPD Y5, 32(R10)
	VMOVUPD Y6, (R11)
	VMOVUPD Y7, 32(R11)
	VZEROUPPER
	RET

// func avxSqDistBlocks(a, b, sums *float64, blocks int)
//
// Accumulates the squared distance of blocks*16 elements into sums[0:4]
// (four independent lane groups; the caller reduces and handles the tail).
TEXT ·avxSqDistBlocks(SB), NOSPLIT, $0-32
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ sums+16(FP), DX
	MOVQ blocks+24(FP), CX

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

	TESTQ CX, CX
	JZ    sqdone

sqloop:
	VMOVUPD (SI), Y4
	VMOVUPD 32(SI), Y5
	VMOVUPD 64(SI), Y6
	VMOVUPD 96(SI), Y7
	VSUBPD  (DI), Y4, Y4
	VSUBPD  32(DI), Y5, Y5
	VSUBPD  64(DI), Y6, Y6
	VSUBPD  96(DI), Y7, Y7
	VFMADD231PD Y4, Y4, Y0
	VFMADD231PD Y5, Y5, Y1
	VFMADD231PD Y6, Y6, Y2
	VFMADD231PD Y7, Y7, Y3
	ADDQ $128, SI
	ADDQ $128, DI
	DECQ CX
	JNZ  sqloop

sqdone:
	VADDPD Y1, Y0, Y0
	VADDPD Y3, Y2, Y2
	VADDPD Y2, Y0, Y0
	VMOVUPD Y0, (DX)
	VZEROUPPER
	RET

// func avxSqDist3Blocks(a, b0, b1, b2, sums *float64, blocks int)
//
// The shared-operand form of avxSqDistBlocks: three squared distances
// against one a, each a block loaded once and subtracted from all three
// partners. Pair p keeps avxSqDistBlocks' four lane accumulators
// (Y[4p]..Y[4p+3]), block order and final (Y0+Y1)+(Y2+Y3) reduction, written
// to sums[4p:4p+4], so every pair's lanes are bit-identical to a
// avxSqDistBlocks call on that pair. 12 accumulators + Y12 (a) + Y13..Y15
// (differences) use all 16 YMM registers.
TEXT ·avxSqDist3Blocks(SB), NOSPLIT, $0-48
	MOVQ a+0(FP), SI
	MOVQ b0+8(FP), DI
	MOVQ b1+16(FP), R8
	MOVQ b2+24(FP), R9
	MOVQ sums+32(FP), DX
	MOVQ blocks+40(FP), CX

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11

	TESTQ CX, CX
	JZ    sq3done

sq3loop:
	VMOVUPD (SI), Y12
	VSUBPD  (DI), Y12, Y13
	VSUBPD  (R8), Y12, Y14
	VSUBPD  (R9), Y12, Y15
	VFMADD231PD Y13, Y13, Y0
	VFMADD231PD Y14, Y14, Y4
	VFMADD231PD Y15, Y15, Y8

	VMOVUPD 32(SI), Y12
	VSUBPD  32(DI), Y12, Y13
	VSUBPD  32(R8), Y12, Y14
	VSUBPD  32(R9), Y12, Y15
	VFMADD231PD Y13, Y13, Y1
	VFMADD231PD Y14, Y14, Y5
	VFMADD231PD Y15, Y15, Y9

	VMOVUPD 64(SI), Y12
	VSUBPD  64(DI), Y12, Y13
	VSUBPD  64(R8), Y12, Y14
	VSUBPD  64(R9), Y12, Y15
	VFMADD231PD Y13, Y13, Y2
	VFMADD231PD Y14, Y14, Y6
	VFMADD231PD Y15, Y15, Y10

	VMOVUPD 96(SI), Y12
	VSUBPD  96(DI), Y12, Y13
	VSUBPD  96(R8), Y12, Y14
	VSUBPD  96(R9), Y12, Y15
	VFMADD231PD Y13, Y13, Y3
	VFMADD231PD Y14, Y14, Y7
	VFMADD231PD Y15, Y15, Y11

	ADDQ $128, SI
	ADDQ $128, DI
	ADDQ $128, R8
	ADDQ $128, R9
	DECQ CX
	JNZ  sq3loop

sq3done:
	VADDPD Y1, Y0, Y0
	VADDPD Y3, Y2, Y2
	VADDPD Y2, Y0, Y0
	VMOVUPD Y0, (DX)
	VADDPD Y5, Y4, Y4
	VADDPD Y7, Y6, Y6
	VADDPD Y6, Y4, Y4
	VMOVUPD Y4, 32(DX)
	VADDPD Y9, Y8, Y8
	VADDPD Y11, Y10, Y10
	VADDPD Y10, Y8, Y8
	VMOVUPD Y8, 64(DX)
	VZEROUPPER
	RET

// func avxDotBlocks(a, b, sums *float64, blocks int)
//
// Accumulates the dot product of blocks*16 elements into sums[0:4].
TEXT ·avxDotBlocks(SB), NOSPLIT, $0-32
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ sums+16(FP), DX
	MOVQ blocks+24(FP), CX

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

	TESTQ CX, CX
	JZ    dotdone

dotloop:
	VMOVUPD (SI), Y4
	VMOVUPD 32(SI), Y5
	VMOVUPD 64(SI), Y6
	VMOVUPD 96(SI), Y7
	VFMADD231PD (DI), Y4, Y0
	VFMADD231PD 32(DI), Y5, Y1
	VFMADD231PD 64(DI), Y6, Y2
	VFMADD231PD 96(DI), Y7, Y3
	ADDQ $128, SI
	ADDQ $128, DI
	DECQ CX
	JNZ  dotloop

dotdone:
	VADDPD Y1, Y0, Y0
	VADDPD Y3, Y2, Y2
	VADDPD Y2, Y0, Y0
	VMOVUPD Y0, (DX)
	VZEROUPPER
	RET

// func avxAddBlocks(dst, src *float64, blocks int)
//
// dst[i] += src[i] for blocks*16 elements. Pure element-wise addition, so
// the result is bit-identical to the scalar loop.
TEXT ·avxAddBlocks(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), SI
	MOVQ src+8(FP), DI
	MOVQ blocks+16(FP), CX

	TESTQ CX, CX
	JZ    adddone

addloop:
	VMOVUPD (SI), Y4
	VMOVUPD 32(SI), Y5
	VMOVUPD 64(SI), Y6
	VMOVUPD 96(SI), Y7
	VADDPD  (DI), Y4, Y4
	VADDPD  32(DI), Y5, Y5
	VADDPD  64(DI), Y6, Y6
	VADDPD  96(DI), Y7, Y7
	VMOVUPD Y4, (SI)
	VMOVUPD Y5, 32(SI)
	VMOVUPD Y6, 64(SI)
	VMOVUPD Y7, 96(SI)
	ADDQ $128, SI
	ADDQ $128, DI
	DECQ CX
	JNZ  addloop

adddone:
	VZEROUPPER
	RET

// func cpuidx(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidx(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
