//go:build amd64 && !purego

#include "textflag.h"

// func dgemmKernel4x8(k int, a0, a1, a2, a3 *float64, lda int, b *float64, ldb int, c *float64, ldc int, acc bool)
//
// c (+)= A·B for one 4×8 register tile, both operands read where they lie:
// A[r][p] = ar[p*lda] (lda 1 for a row-major A, m for a transposed one; a
// tile short of rows points the missing ones at its last real row),
// B[p][0:8] = b[p*ldb:] (ldb 8 for a panel, n for a row-major B), c rows
// ldc apart, its accumulators starting from the tile when acc is set and
// from +0 otherwise. One FMA chain per output element in ascending depth,
// so any tiling of the caller gives the same bits.
TEXT ·dgemmKernel4x8(SB), NOSPLIT, $0-81
	MOVQ k+0(FP), CX
	MOVQ a0+8(FP), SI
	MOVQ a1+16(FP), R12
	MOVQ a2+24(FP), R13
	MOVQ lda+40(FP), AX
	SHLQ $3, AX             // depth stride of A in bytes
	MOVQ b+48(FP), DI
	MOVQ ldb+56(FP), BX
	SHLQ $3, BX             // depth stride of B in bytes
	MOVQ c+64(FP), DX
	MOVQ ldc+72(FP), R8
	SHLQ $3, R8             // row stride of C in bytes
	LEAQ (DX)(R8*1), R9     // row 1
	LEAQ (R9)(R8*1), R10    // row 2
	LEAQ (R10)(R8*1), R11   // row 3
	MOVQ a3+32(FP), R8

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	CMPB   acc+80(FP), $0
	JEQ    depth
	VMOVUPD (DX), Y0
	VMOVUPD 32(DX), Y1
	VMOVUPD (R9), Y2
	VMOVUPD 32(R9), Y3
	VMOVUPD (R10), Y4
	VMOVUPD 32(R10), Y5
	VMOVUPD (R11), Y6
	VMOVUPD 32(R11), Y7

depth:
	XORQ  R14, R14          // byte offset of depth p in each row of A
	TESTQ CX, CX
	JZ    done

loop:
	VMOVUPD (DI), Y8               // B[p][0:4]
	VMOVUPD 32(DI), Y9             // B[p][4:8]
	VBROADCASTSD (SI)(R14*1), Y10  // A[0][p]
	VFMADD231PD  Y8, Y10, Y0
	VFMADD231PD  Y9, Y10, Y1
	VBROADCASTSD (R12)(R14*1), Y11 // A[1][p]
	VFMADD231PD  Y8, Y11, Y2
	VFMADD231PD  Y9, Y11, Y3
	VBROADCASTSD (R13)(R14*1), Y12 // A[2][p]
	VFMADD231PD  Y8, Y12, Y4
	VFMADD231PD  Y9, Y12, Y5
	VBROADCASTSD (R8)(R14*1), Y13  // A[3][p]
	VFMADD231PD  Y8, Y13, Y6
	VFMADD231PD  Y9, Y13, Y7
	ADDQ AX, R14
	ADDQ BX, DI
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

// func avx512SqDist2x4Blocks(a0, a1, b0, b1, b2, b3, sums *float64, blocks int)
//
// The two-row form of avxSqDist3Blocks for AVX-512: the squared distances of
// rows a0, a1 to partners b0..b3, eight pairs per pass over blocks*16
// elements, each block of a row loaded once for four partners and each
// block of a partner once for two rows. Pair p = 4r+c (row r, partner c)
// keeps avxSqDistBlocks' sixteen lanes in two accumulators: Z(2p) holds
// lanes 0..7, which are its Y0|Y1, and Z(2p+1) lanes 8..15, which are
// Y2|Y3. The reduction is avxSqDistBlocks' (Y0+Y1)+(Y2+Y3), written to
// sums[4p:4p+4], so every pair's lanes are bit-identical to an
// avxSqDistBlocks call on that pair. Z16..Z19 hold the rows' blocks,
// Z20..Z31 two alternating sets of a partner block and four differences.
TEXT ·avx512SqDist2x4Blocks(SB), NOSPLIT, $0-64
	MOVQ a0+0(FP), SI
	MOVQ a1+8(FP), DI
	MOVQ b0+16(FP), R8
	MOVQ b1+24(FP), R9
	MOVQ b2+32(FP), R10
	MOVQ b3+40(FP), R11
	MOVQ sums+48(FP), DX
	MOVQ blocks+56(FP), CX
	XORQ AX, AX             // byte offset of the block

	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
	VPXORQ Z12, Z12, Z12
	VPXORQ Z13, Z13, Z13
	VPXORQ Z14, Z14, Z14
	VPXORQ Z15, Z15, Z15

	TESTQ CX, CX
	JZ    sq24done

sq24loop:
	VMOVUPD (SI)(AX*1), Z16   // a0 lanes 0..7
	VMOVUPD 64(SI)(AX*1), Z17 // a0 lanes 8..15
	VMOVUPD (DI)(AX*1), Z18   // a1 lanes 0..7
	VMOVUPD 64(DI)(AX*1), Z19 // a1 lanes 8..15

	VMOVUPD (R8)(AX*1), Z20
	VMOVUPD 64(R8)(AX*1), Z21
	VSUBPD  Z20, Z16, Z22
	VSUBPD  Z21, Z17, Z23
	VSUBPD  Z20, Z18, Z24
	VSUBPD  Z21, Z19, Z25
	VFMADD231PD Z22, Z22, Z0
	VFMADD231PD Z23, Z23, Z1
	VFMADD231PD Z24, Z24, Z8
	VFMADD231PD Z25, Z25, Z9

	VMOVUPD (R9)(AX*1), Z26
	VMOVUPD 64(R9)(AX*1), Z27
	VSUBPD  Z26, Z16, Z28
	VSUBPD  Z27, Z17, Z29
	VSUBPD  Z26, Z18, Z30
	VSUBPD  Z27, Z19, Z31
	VFMADD231PD Z28, Z28, Z2
	VFMADD231PD Z29, Z29, Z3
	VFMADD231PD Z30, Z30, Z10
	VFMADD231PD Z31, Z31, Z11

	VMOVUPD (R10)(AX*1), Z20
	VMOVUPD 64(R10)(AX*1), Z21
	VSUBPD  Z20, Z16, Z22
	VSUBPD  Z21, Z17, Z23
	VSUBPD  Z20, Z18, Z24
	VSUBPD  Z21, Z19, Z25
	VFMADD231PD Z22, Z22, Z4
	VFMADD231PD Z23, Z23, Z5
	VFMADD231PD Z24, Z24, Z12
	VFMADD231PD Z25, Z25, Z13

	VMOVUPD (R11)(AX*1), Z26
	VMOVUPD 64(R11)(AX*1), Z27
	VSUBPD  Z26, Z16, Z28
	VSUBPD  Z27, Z17, Z29
	VSUBPD  Z26, Z18, Z30
	VSUBPD  Z27, Z19, Z31
	VFMADD231PD Z28, Z28, Z6
	VFMADD231PD Z29, Z29, Z7
	VFMADD231PD Z30, Z30, Z14
	VFMADD231PD Z31, Z31, Z15

	ADDQ $128, AX
	DECQ CX
	JNZ  sq24loop

sq24done:
	VEXTRACTF64X4 $1, Z0, Y16
	VADDPD Z16, Z0, Z0     // lanes 0..3: Y0+Y1
	VEXTRACTF64X4 $1, Z1, Y17
	VADDPD Z17, Z1, Z1     // lanes 0..3: Y2+Y3
	VADDPD Z1, Z0, Z0
	VMOVUPD Y0, (DX)
	VEXTRACTF64X4 $1, Z2, Y16
	VADDPD Z16, Z2, Z2
	VEXTRACTF64X4 $1, Z3, Y17
	VADDPD Z17, Z3, Z3
	VADDPD Z3, Z2, Z2
	VMOVUPD Y2, 32(DX)
	VEXTRACTF64X4 $1, Z4, Y16
	VADDPD Z16, Z4, Z4
	VEXTRACTF64X4 $1, Z5, Y17
	VADDPD Z17, Z5, Z5
	VADDPD Z5, Z4, Z4
	VMOVUPD Y4, 64(DX)
	VEXTRACTF64X4 $1, Z6, Y16
	VADDPD Z16, Z6, Z6
	VEXTRACTF64X4 $1, Z7, Y17
	VADDPD Z17, Z7, Z7
	VADDPD Z7, Z6, Z6
	VMOVUPD Y6, 96(DX)
	VEXTRACTF64X4 $1, Z8, Y16
	VADDPD Z16, Z8, Z8
	VEXTRACTF64X4 $1, Z9, Y17
	VADDPD Z17, Z9, Z9
	VADDPD Z9, Z8, Z8
	VMOVUPD Y8, 128(DX)
	VEXTRACTF64X4 $1, Z10, Y16
	VADDPD Z16, Z10, Z10
	VEXTRACTF64X4 $1, Z11, Y17
	VADDPD Z17, Z11, Z11
	VADDPD Z11, Z10, Z10
	VMOVUPD Y10, 160(DX)
	VEXTRACTF64X4 $1, Z12, Y16
	VADDPD Z16, Z12, Z12
	VEXTRACTF64X4 $1, Z13, Y17
	VADDPD Z17, Z13, Z13
	VADDPD Z13, Z12, Z12
	VMOVUPD Y12, 192(DX)
	VEXTRACTF64X4 $1, Z14, Y16
	VADDPD Z16, Z14, Z14
	VEXTRACTF64X4 $1, Z15, Y17
	VADDPD Z17, Z15, Z15
	VADDPD Z15, Z14, Z14
	VMOVUPD Y14, 224(DX)
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
