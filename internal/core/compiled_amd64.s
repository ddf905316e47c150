#include "textflag.h"

// func scanAVX2(lo, hi []int64, w, qlo, qhi []float64) float64
//
// Per group of four lanes and per dimension k, in ascending order:
//
//	l = max(kernel lo, query lo)   int64 compare and blend
//	h = min(kernel hi, query hi)   int64 compare and blend
//	keep = h > l                   int64 compare
//	p *= (h & keep) - (l & keep)   an empty side is +0 - +0 = +0
//
// then the four products times their weights are added to the sum one at
// a time, lane 0 first.
TEXT ·scanAVX2(SB), NOSPLIT, $0-128
	MOVQ lo_base+0(FP), SI
	MOVQ hi_base+24(FP), DI
	MOVQ w_base+48(FP), R8
	MOVQ w_len+56(FP), R9
	MOVQ qlo_base+72(FP), R10
	MOVQ qlo_len+80(FP), R12
	MOVQ qhi_base+96(FP), R11
	MOVQ $0x3ff0000000000000, AX
	MOVQ AX, X1
	VPBROADCASTQ X1, Y13  // 1.0 in every lane
	VXORPD X0, X0, X0     // the sum, +0
	SHRQ $2, R9           // groups
	JZ   done

group:
	VMOVAPD Y13, Y8 // the four products
	XORQ    BX, BX
	CMPQ    BX, R12
	JGE     weigh

dim:
	VPBROADCASTQ (R10)(BX*8), Y1 // query lo
	VPBROADCASTQ (R11)(BX*8), Y2 // query hi
	VMOVDQU      (SI), Y3        // four kernel lo
	VMOVDQU      (DI), Y4        // four kernel hi
	VPCMPGTQ     Y1, Y3, Y5      // kernel lo > query lo
	VBLENDVPD    Y5, Y3, Y1, Y3  // l
	VPCMPGTQ     Y2, Y4, Y6      // kernel hi > query hi
	VBLENDVPD    Y6, Y2, Y4, Y4  // h
	VPCMPGTQ     Y3, Y4, Y7      // h > l
	VPAND        Y7, Y3, Y3
	VPAND        Y7, Y4, Y4
	VSUBPD       Y3, Y4, Y4      // h - l, or +0
	VMULPD       Y4, Y8, Y8
	ADDQ         $32, SI
	ADDQ         $32, DI
	INCQ         BX
	CMPQ         BX, R12
	JLT          dim

weigh:
	VMULPD       (R8), Y8, Y8
	ADDQ         $32, R8
	VADDSD       X8, X0, X0 // lane 0
	VPERMILPD    $1, X8, X9
	VADDSD       X9, X0, X0 // lane 1
	VEXTRACTF128 $1, Y8, X8
	VADDSD       X8, X0, X0 // lane 2
	VPERMILPD    $1, X8, X9
	VADDSD       X9, X0, X0 // lane 3
	DECQ         R9
	JNZ          group

done:
	VZEROUPPER
	MOVSD X0, ret+120(FP)
	RET
