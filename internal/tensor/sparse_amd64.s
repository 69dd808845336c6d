//go:build amd64 && !purego

#include "textflag.h"

// func avxSparseDot4(idx *int32, val *float64, k int, rows, out *float64)
//
// Four positions per iteration, one per accumulator Y0..Y3; each position
// sign-extends its index, scales it to the 32-byte row group, broadcasts its
// value and does VMULPD (memory operand) then VADDPD — never FMA, so a lane
// rounds exactly as the scalar `s += v*x`. The k mod 4 tail positions
// accumulate into Y0, and the lanes are reduced ((Y0+Y1)+Y2)+Y3.
TEXT ·avxSparseDot4(SB), NOSPLIT, $0-40
	MOVQ idx+0(FP), SI
	MOVQ val+8(FP), DI
	MOVQ k+16(FP), CX
	MOVQ rows+24(FP), DX
	MOVQ out+32(FP), R8

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

	MOVQ CX, BX
	SHRQ $2, BX
	JZ   sd4tail

sd4loop:
	MOVLQSX      (SI), AX
	MOVLQSX      4(SI), R9
	MOVLQSX      8(SI), R10
	MOVLQSX      12(SI), R11
	SHLQ         $5, AX
	SHLQ         $5, R9
	SHLQ         $5, R10
	SHLQ         $5, R11
	VBROADCASTSD (DI), Y4
	VBROADCASTSD 8(DI), Y5
	VBROADCASTSD 16(DI), Y6
	VBROADCASTSD 24(DI), Y7
	VMULPD       (DX)(AX*1), Y4, Y4
	VMULPD       (DX)(R9*1), Y5, Y5
	VMULPD       (DX)(R10*1), Y6, Y6
	VMULPD       (DX)(R11*1), Y7, Y7
	VADDPD       Y4, Y0, Y0
	VADDPD       Y5, Y1, Y1
	VADDPD       Y6, Y2, Y2
	VADDPD       Y7, Y3, Y3
	ADDQ         $16, SI
	ADDQ         $32, DI
	DECQ         BX
	JNZ          sd4loop

sd4tail:
	ANDQ $3, CX
	JZ   sd4reduce

sd4tailloop:
	MOVLQSX      (SI), AX
	SHLQ         $5, AX
	VBROADCASTSD (DI), Y4
	VMULPD       (DX)(AX*1), Y4, Y4
	VADDPD       Y4, Y0, Y0
	ADDQ         $4, SI
	ADDQ         $8, DI
	DECQ         CX
	JNZ          sd4tailloop

sd4reduce:
	VADDPD  Y1, Y0, Y0
	VADDPD  Y2, Y0, Y0
	VADDPD  Y3, Y0, Y0
	VMOVUPD Y0, (R8)
	VZEROUPPER
	RET
