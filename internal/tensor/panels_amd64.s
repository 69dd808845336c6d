//go:build amd64 && !purego

#include "textflag.h"

// Panel classes (panels.go): 0 indexed, 1 contiguous, 2 stride 2; the two
// halves of a contiguous or stride-2 panel start at their own bases,
// cols[j0] and cols[j0+4].

// Lane numbers, to turn the width of a ragged last panel into gather masks.
DATA laneIdx<>+0(SB)/8, $0
DATA laneIdx<>+8(SB)/8, $1
DATA laneIdx<>+16(SB)/8, $2
DATA laneIdx<>+24(SB)/8, $3
DATA laneIdx<>+32(SB)/8, $4
DATA laneIdx<>+40(SB)/8, $5
DATA laneIdx<>+48(SB)/8, $6
DATA laneIdx<>+56(SB)/8, $7
GLOBL laneIdx<>(SB), RODATA|NOPTR, $64

// func gatherPanelsAVX2(pb, src *float64, depth *int, k int, cols *int, cls *uint8, panels, tail int)
//
// For each of `panels` panels t (class cls[t], column offsets
// cols[8t:8t+8]) and each depth row p: pb row = src[depth[p]+cols[8t+c]],
// c = 0..7; with tail > 0 the last panel has only its first tail columns
// (and cols no entries past them), and the rest of its rows are zeros. The
// panels are consecutive in pb, so DI walks it 64 bytes a row.
TEXT ·gatherPanelsAVX2(SB), NOSPLIT, $0-64
	MOVQ pb+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ depth+16(FP), DX
	MOVQ k+24(FP), CX
	MOVQ cols+32(FP), R8
	MOVQ cls+40(FP), R9
	MOVQ panels+48(FP), R10

g2panel:
	MOVQ    DX, R11 // depth cursor
	MOVQ    CX, R12 // rows left
	CMPQ    R10, $1
	JNE     g2class
	MOVQ    tail+56(FP), AX
	TESTQ   AX, AX
	JNZ     g2ragged

g2class:
	MOVBLZX (R9), AX
	CMPQ    AX, $1
	JEQ     g2contig
	CMPQ    AX, $2
	JEQ     g2stride2

	VMOVDQU (R8), Y8    // column offsets 0..3
	VMOVDQU 32(R8), Y9  // column offsets 4..7

g2idxrow:
	MOVQ       (R11), BX
	LEAQ       (SI)(BX*8), BX
	VPCMPEQQ   Y10, Y10, Y10
	VPCMPEQQ   Y11, Y11, Y11
	VGATHERQPD Y10, (BX)(Y8*8), Y0
	VGATHERQPD Y11, (BX)(Y9*8), Y1
	VMOVUPD    Y0, (DI)
	VMOVUPD    Y1, 32(DI)
	ADDQ       $8, R11
	ADDQ       $64, DI
	DECQ       R12
	JNZ        g2idxrow
	JMP        g2next

g2contig:
	MOVQ (R8), AX
	LEAQ (SI)(AX*8), R13 // &src[cols[8t]]
	MOVQ 32(R8), AX
	LEAQ (SI)(AX*8), AX  // &src[cols[8t+4]]

g2contigrow:
	MOVQ    (R11), BX
	VMOVUPD (R13)(BX*8), Y0
	VMOVUPD (AX)(BX*8), Y1
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    $8, R11
	ADDQ    $64, DI
	DECQ    R12
	JNZ     g2contigrow
	JMP     g2next

g2stride2:
	MOVQ (R8), AX
	LEAQ (SI)(AX*8), R13
	MOVQ 32(R8), AX
	LEAQ (SI)(AX*8), AX

g2stride2row:
	MOVQ      (R11), BX
	VMOVUPD   (R13)(BX*8), Y0   // x0..x3 of the first half
	VMOVUPD   32(R13)(BX*8), Y1 // x4..x7
	VMOVUPD   (AX)(BX*8), Y2    // y0..y3 of the second half
	VMOVUPD   32(AX)(BX*8), Y3  // y4..y7
	VUNPCKLPD Y1, Y0, Y0        // x0 x4 x2 x6
	VUNPCKLPD Y3, Y2, Y2        // y0 y4 y2 y6
	VPERMPD   $0xD8, Y0, Y0     // x0 x2 x4 x6
	VPERMPD   $0xD8, Y2, Y2     // y0 y2 y4 y6
	VMOVUPD   Y0, (DI)
	VMOVUPD   Y2, 32(DI)
	ADDQ      $8, R11
	ADDQ      $64, DI
	DECQ      R12
	JNZ       g2stride2row
	JMP       g2next

g2ragged:
	VPBROADCASTQ tail+56(FP), Y12
	VMOVDQU      laneIdx<>(SB), Y10
	VMOVDQU      laneIdx<>+32(SB), Y11
	VPCMPGTQ     Y10, Y12, Y13 // lanes 0..3 below tail
	VPCMPGTQ     Y11, Y12, Y12 // lanes 4..7 below tail
	VPMASKMOVQ   (R8), Y13, Y8 // the tail column offsets, zeros past them
	VPMASKMOVQ   32(R8), Y12, Y9

g2raggedrow:
	MOVQ       (R11), BX
	LEAQ       (SI)(BX*8), BX
	VXORPD     Y0, Y0, Y0
	VXORPD     Y1, Y1, Y1
	VMOVDQU    Y13, Y10
	VMOVDQU    Y12, Y11
	VGATHERQPD Y10, (BX)(Y8*8), Y0
	VGATHERQPD Y11, (BX)(Y9*8), Y1
	VMOVUPD    Y0, (DI)
	VMOVUPD    Y1, 32(DI)
	ADDQ       $8, R11
	ADDQ       $64, DI
	DECQ       R12
	JNZ        g2raggedrow

g2next:
	ADDQ $64, R8
	INCQ R9
	DECQ R10
	JNZ  g2panel
	VZEROUPPER
	RET

// func scatterAddAVX2(dst, rows *float64, off *int, nrows int, pos *int, npos int, cls *uint8, panels int)
//
// For each row r in order, d = dst[off[r]:], and each position j in order:
// d[pos[j]] += rows[r*npos+j]: `panels` full panels by class, then the
// npos−8·panels tail one element at a time. Every add takes the dst value
// as its first operand, as the scalar twin's += does.
TEXT ·scatterAddAVX2(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ rows+8(FP), SI
	MOVQ off+16(FP), DX
	MOVQ nrows+24(FP), CX
	MOVQ pos+32(FP), R8
	MOVQ npos+40(FP), R9
	MOVQ cls+48(FP), R10
	MOVQ panels+56(FP), R11
	MOVQ R11, AX
	SHLQ $3, AX
	SUBQ AX, R9 // tail length

s2row:
	MOVQ (DX), AX
	LEAQ (DI)(AX*8), BX // d
	MOVQ R8, R12        // pos cursor
	XORQ R13, R13       // panel index

s2panel:
	CMPQ    R13, R11
	JGE     s2tail
	MOVBLZX (R10)(R13*1), AX
	CMPQ    AX, $1
	JEQ     s2contig
	CMPQ    AX, $2
	JEQ     s2stride2

	MOVQ   (R12), AX
	VMOVSD (BX)(AX*8), X0
	VADDSD (SI), X0, X0
	VMOVSD X0, (BX)(AX*8)
	MOVQ   8(R12), AX
	VMOVSD (BX)(AX*8), X0
	VADDSD 8(SI), X0, X0
	VMOVSD X0, (BX)(AX*8)
	MOVQ   16(R12), AX
	VMOVSD (BX)(AX*8), X0
	VADDSD 16(SI), X0, X0
	VMOVSD X0, (BX)(AX*8)
	MOVQ   24(R12), AX
	VMOVSD (BX)(AX*8), X0
	VADDSD 24(SI), X0, X0
	VMOVSD X0, (BX)(AX*8)
	MOVQ   32(R12), AX
	VMOVSD (BX)(AX*8), X0
	VADDSD 32(SI), X0, X0
	VMOVSD X0, (BX)(AX*8)
	MOVQ   40(R12), AX
	VMOVSD (BX)(AX*8), X0
	VADDSD 40(SI), X0, X0
	VMOVSD X0, (BX)(AX*8)
	MOVQ   48(R12), AX
	VMOVSD (BX)(AX*8), X0
	VADDSD 48(SI), X0, X0
	VMOVSD X0, (BX)(AX*8)
	MOVQ   56(R12), AX
	VMOVSD (BX)(AX*8), X0
	VADDSD 56(SI), X0, X0
	VMOVSD X0, (BX)(AX*8)
	JMP    s2next

s2contig:
	MOVQ    (R12), AX
	VMOVUPD (BX)(AX*8), Y0
	VADDPD  (SI), Y0, Y0
	VMOVUPD Y0, (BX)(AX*8)
	MOVQ    32(R12), AX
	VMOVUPD (BX)(AX*8), Y1
	VADDPD  32(SI), Y1, Y1
	VMOVUPD Y1, (BX)(AX*8)
	JMP     s2next

s2stride2:
	MOVQ     (R12), AX
	LEAQ     (BX)(AX*8), AX
	VMOVUPD  (SI), Y4           // v0..v3
	VMOVUPD  32(SI), Y5         // v4..v7
	VPERMPD  $0x50, Y4, Y6      // v0 v0 v1 v1
	VPERMPD  $0xFA, Y4, Y7      // v2 v2 v3 v3
	VMOVUPD  (AX), Y0
	VADDPD   Y6, Y0, Y6
	VBLENDPD $5, Y6, Y0, Y0     // lanes 0 and 2 take the sums
	VMOVUPD  Y0, (AX)
	VMOVUPD  32(AX), Y1
	VADDPD   Y7, Y1, Y7
	VBLENDPD $5, Y7, Y1, Y1
	VMOVUPD  Y1, 32(AX)
	MOVQ     32(R12), AX
	LEAQ     (BX)(AX*8), AX     // the second half's base
	VPERMPD  $0x50, Y5, Y6
	VPERMPD  $0xFA, Y5, Y7
	VMOVUPD  (AX), Y2
	VADDPD   Y6, Y2, Y6
	VBLENDPD $5, Y6, Y2, Y2
	VMOVUPD  Y2, (AX)
	VMOVUPD  32(AX), Y3
	VADDPD   Y7, Y3, Y7
	VBLENDPD $5, Y7, Y3, Y3
	VMOVUPD  Y3, 32(AX)

s2next:
	ADDQ $64, SI
	ADDQ $64, R12
	INCQ R13
	JMP  s2panel

s2tail:
	MOVQ  R9, R13
	TESTQ R13, R13
	JZ    s2rowend

s2tailloop:
	MOVQ   (R12), AX
	VMOVSD (BX)(AX*8), X0
	VADDSD (SI), X0, X0
	VMOVSD X0, (BX)(AX*8)
	ADDQ   $8, SI
	ADDQ   $8, R12
	DECQ   R13
	JNZ    s2tailloop

s2rowend:
	ADDQ $8, DX
	DECQ CX
	JNZ  s2row
	VZEROUPPER
	RET

// func copyBlockAVX2(dst *float64, dstStride int, src *float64, srcStride, rows, cols int)
//
// For each of `rows` rows r: dst[r*dstStride+j] = src[r*srcStride+j],
// j < cols: four elements a YMM move, the last cols%4 one at a time.
TEXT ·copyBlockAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ dstStride+8(FP), R8
	MOVQ src+16(FP), SI
	MOVQ srcStride+24(FP), R9
	MOVQ rows+32(FP), CX
	MOVQ cols+40(FP), DX
	SHLQ $3, R8
	SHLQ $3, R9

cbrow:
	XORQ AX, AX
	MOVQ DX, BX
	CMPQ BX, $4
	JLT  cbtail

cbvec:
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	SUBQ    $4, BX
	CMPQ    BX, $4
	JGE     cbvec

cbtail:
	TESTQ BX, BX
	JZ    cbnext

cbscalar:
	MOVQ (SI)(AX*8), R10
	MOVQ R10, (DI)(AX*8)
	INCQ AX
	DECQ BX
	JNZ  cbscalar

cbnext:
	ADDQ R8, DI
	ADDQ R9, SI
	DECQ CX
	JNZ  cbrow
	VZEROUPPER
	RET
