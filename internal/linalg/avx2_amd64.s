#include "textflag.h"

// func tilesAVX2(l []float64, n, p, nb, i, j, t int)
//
// For each of the t tiles of rows i..i+3 and columns c..c+7 (c = j, j+8,
// ...), with the packed panel row p+k holding l[c][p+k] at column c:
//
//	acc[r] = l[i+r][c:c+8]                         two registers per row
//	for k ascending: acc[r] -= l[i+r][p+k] * l[p+k][c:c+8]
//	l[i+r][c:c+8] = acc[r]
//
// each product rounded by VMULPD before VSUBPD subtracts it.
TEXT ·tilesAVX2(SB), NOSPLIT, $0-72
	MOVQ l_base+0(FP), AX
	MOVQ n+24(FP), BX
	MOVQ p+32(FP), CX
	MOVQ nb+40(FP), DX
	MOVQ i+48(FP), R8
	MOVQ j+56(FP), R9
	MOVQ t+64(FP), R10
	SHLQ $3, BX              // row stride in bytes
	LEAQ (BX)(BX*2), R11     // three rows
	IMULQ BX, R8
	ADDQ AX, R8              // &l[i][0]
	LEAQ (R8)(CX*8), R12     // x: &l[i][p]
	LEAQ (R8)(R9*8), R8      // d: &l[i][j]
	IMULQ BX, CX
	ADDQ AX, CX
	LEAQ (CX)(R9*8), R13     // y: &l[p][j], the packed panel

tile:
	VMOVUPD (R8), Y0
	VMOVUPD 32(R8), Y1
	VMOVUPD (R8)(BX*1), Y2
	VMOVUPD 32(R8)(BX*1), Y3
	VMOVUPD (R8)(BX*2), Y4
	VMOVUPD 32(R8)(BX*2), Y5
	VMOVUPD (R8)(R11*1), Y6
	VMOVUPD 32(R8)(R11*1), Y7
	MOVQ    R12, SI
	MOVQ    R13, DI
	MOVQ    DX, CX

k:
	VMOVUPD      (DI), Y8
	VMOVUPD      32(DI), Y9
	VBROADCASTSD (SI), Y10
	VMULPD       Y8, Y10, Y11
	VSUBPD       Y11, Y0, Y0
	VMULPD       Y9, Y10, Y12
	VSUBPD       Y12, Y1, Y1
	VBROADCASTSD (SI)(BX*1), Y13
	VMULPD       Y8, Y13, Y14
	VSUBPD       Y14, Y2, Y2
	VMULPD       Y9, Y13, Y11
	VSUBPD       Y11, Y3, Y3
	VBROADCASTSD (SI)(BX*2), Y10
	VMULPD       Y8, Y10, Y12
	VSUBPD       Y12, Y4, Y4
	VMULPD       Y9, Y10, Y14
	VSUBPD       Y14, Y5, Y5
	VBROADCASTSD (SI)(R11*1), Y13
	VMULPD       Y8, Y13, Y11
	VSUBPD       Y11, Y6, Y6
	VMULPD       Y9, Y13, Y12
	VSUBPD       Y12, Y7, Y7
	ADDQ         $8, SI
	ADDQ         BX, DI
	DECQ         CX
	JNZ          k

	VMOVUPD Y0, (R8)
	VMOVUPD Y1, 32(R8)
	VMOVUPD Y2, (R8)(BX*1)
	VMOVUPD Y3, 32(R8)(BX*1)
	VMOVUPD Y4, (R8)(BX*2)
	VMOVUPD Y5, 32(R8)(BX*2)
	VMOVUPD Y6, (R8)(R11*1)
	VMOVUPD Y7, 32(R8)(R11*1)
	ADDQ    $64, R8
	ADDQ    $64, R13
	DECQ    R10
	JNZ     tile
	VZEROUPPER
	RET

// func gramAVX2(dst, packed []float64, ks []int, vals []float64, stride int)
//
// For each group g of 16 columns of dst, with packed[g*stride + 16*k + t]
// holding column 16*g + t of row k of A:
//
//	acc = dst[16*g : 16*g+16]                      four registers
//	for e ascending: acc += vals[e] * packed[g*stride + 16*ks[e] :][:16]
//	dst[16*g : 16*g+16] = acc
//
// each product rounded by VMULPD before VADDPD adds it.
TEXT ·gramAVX2(SB), NOSPLIT, $0-104
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ packed_base+24(FP), SI
	MOVQ ks_base+48(FP), R8
	MOVQ vals_base+72(FP), R10
	MOVQ vals_len+80(FP), R9
	MOVQ stride+96(FP), R11
	SHLQ $3, R11             // group stride in bytes
	SHRQ $4, CX              // groups
	JZ   done
	TESTQ R9, R9
	JZ   done

group:
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	XORQ    BX, BX

entry:
	MOVQ         (R8)(BX*8), AX
	SHLQ         $7, AX      // 16 float64s per packed row
	VBROADCASTSD (R10)(BX*8), Y4
	VMULPD       (SI)(AX*1), Y4, Y5
	VADDPD       Y5, Y0, Y0
	VMULPD       32(SI)(AX*1), Y4, Y6
	VADDPD       Y6, Y1, Y1
	VMULPD       64(SI)(AX*1), Y4, Y7
	VADDPD       Y7, Y2, Y2
	VMULPD       96(SI)(AX*1), Y4, Y8
	VADDPD       Y8, Y3, Y3
	INCQ         BX
	CMPQ         BX, R9
	JLT          entry

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    R11, SI
	DECQ    CX
	JNZ     group

done:
	VZEROUPPER
	RET
