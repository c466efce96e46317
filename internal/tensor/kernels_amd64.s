//go:build amd64 && !purego

#include "textflag.h"

// AVX2 bodies of the five tensor primitives (kernels.go). The rules that
// keep them bit-identical to the portable Go loops:
//
//   - a product is VMULPD/VMULSD and a sum is VADDPD/VADDSD, each rounded
//     on its own as the compiler's MULSD/ADDSD are — never FMA;
//   - a vector lane is one output element; no lane ever holds a partial
//     sum of another element, and nothing is summed across lanes;
//   - within one output element the k order is the Go loop's.
//
// Loads and stores are unaligned (VMOVUPD, VEX memory operands), tails
// shorter than a vector run the same two instructions in scalar form, and
// every body ends in VZEROUPPER so the SSE code around it pays no
// transition penalty. R14, R15 and X15 are left alone.

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

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func saxpyAVX2(alpha float64, x, y []float64)
// y[j] += alpha*x[j] for j < len(x).
TEXT ·saxpyAVX2(SB), NOSPLIT, $0-56
	VBROADCASTSD alpha+0(FP), Y0
	MOVQ x_base+8(FP), SI
	MOVQ x_len+16(FP), CX
	MOVQ y_base+32(FP), DI
	SUBQ $16, CX
	JL   saxpy_lt16

saxpy_loop16:
	VMULPD  (SI), Y0, Y1
	VMULPD  32(SI), Y0, Y2
	VMULPD  64(SI), Y0, Y3
	VMULPD  96(SI), Y0, Y4
	VADDPD  (DI), Y1, Y1
	VADDPD  32(DI), Y2, Y2
	VADDPD  64(DI), Y3, Y3
	VADDPD  96(DI), Y4, Y4
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	VMOVUPD Y3, 64(DI)
	VMOVUPD Y4, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $16, CX
	JGE     saxpy_loop16

saxpy_lt16:
	ADDQ $12, CX
	JL   saxpy_lt4

saxpy_loop4:
	VMULPD  (SI), Y0, Y1
	VADDPD  (DI), Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JGE     saxpy_loop4

saxpy_lt4:
	ADDQ $4, CX
	JZ   saxpy_done

saxpy_loop1:
	VMULSD (SI), X0, X1
	VADDSD (DI), X1, X1
	VMOVSD X1, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JNZ    saxpy_loop1

saxpy_done:
	VZEROUPPER
	RET

// func scaleAVX2(alpha float64, x, y []float64)
// y[j] = alpha*x[j] for j < len(x); x and y may be the same slice.
TEXT ·scaleAVX2(SB), NOSPLIT, $0-56
	VBROADCASTSD alpha+0(FP), Y0
	MOVQ x_base+8(FP), SI
	MOVQ x_len+16(FP), CX
	MOVQ y_base+32(FP), DI
	SUBQ $16, CX
	JL   scale_lt16

scale_loop16:
	VMULPD  (SI), Y0, Y1
	VMULPD  32(SI), Y0, Y2
	VMULPD  64(SI), Y0, Y3
	VMULPD  96(SI), Y0, Y4
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	VMOVUPD Y3, 64(DI)
	VMOVUPD Y4, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $16, CX
	JGE     scale_loop16

scale_lt16:
	ADDQ $12, CX
	JL   scale_lt4

scale_loop4:
	VMULPD  (SI), Y0, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JGE     scale_loop4

scale_lt4:
	ADDQ $4, CX
	JZ   scale_done

scale_loop1:
	VMULSD (SI), X0, X1
	VMOVSD X1, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JNZ    scale_loop1

scale_done:
	VZEROUPPER
	RET

// func axpyRowsAVX2(coef, x, y []float64, stride int)
// y[r*stride+j] += coef[r]*x[j] for r < len(coef), j < len(x); needs
// len(coef) >= 1. Columns are the outer loop, so a group of x lanes is
// loaded once and applied to every row; rows are the inner loop, each
// with its own broadcast coefficient.
//
//	SI x cursor      DI y cursor (row 0)     CX columns left
//	R8 coef base     R9 rows                 R10 stride in bytes
//	BX coef cursor   DX y cursor (row r)     AX rows left
TEXT ·axpyRowsAVX2(SB), NOSPLIT, $0-80
	MOVQ coef_base+0(FP), R8
	MOVQ coef_len+8(FP), R9
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	MOVQ y_base+48(FP), DI
	MOVQ stride+72(FP), R10
	SHLQ $3, R10
	SUBQ $16, CX
	JL   rows_lt16

rows_cols16:
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y1
	VMOVUPD 64(SI), Y2
	VMOVUPD 96(SI), Y3
	MOVQ    R8, BX
	MOVQ    DI, DX
	MOVQ    R9, AX

rows_row16:
	VBROADCASTSD (BX), Y4
	VMULPD  Y0, Y4, Y5
	VMULPD  Y1, Y4, Y6
	VMULPD  Y2, Y4, Y7
	VMULPD  Y3, Y4, Y8
	VADDPD  (DX), Y5, Y5
	VADDPD  32(DX), Y6, Y6
	VADDPD  64(DX), Y7, Y7
	VADDPD  96(DX), Y8, Y8
	VMOVUPD Y5, (DX)
	VMOVUPD Y6, 32(DX)
	VMOVUPD Y7, 64(DX)
	VMOVUPD Y8, 96(DX)
	ADDQ    $8, BX
	ADDQ    R10, DX
	DECQ    AX
	JNZ     rows_row16
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $16, CX
	JGE     rows_cols16

rows_lt16:
	ADDQ $12, CX
	JL   rows_lt4

rows_cols4:
	VMOVUPD (SI), Y0
	MOVQ    R8, BX
	MOVQ    DI, DX
	MOVQ    R9, AX

rows_row4:
	VBROADCASTSD (BX), Y4
	VMULPD  Y0, Y4, Y5
	VADDPD  (DX), Y5, Y5
	VMOVUPD Y5, (DX)
	ADDQ    $8, BX
	ADDQ    R10, DX
	DECQ    AX
	JNZ     rows_row4
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JGE     rows_cols4

rows_lt4:
	ADDQ $4, CX
	JZ   rows_done

rows_cols1:
	VMOVSD (SI), X0
	MOVQ   R8, BX
	MOVQ   DI, DX
	MOVQ   R9, AX

rows_row1:
	VMULSD (BX), X0, X5
	VADDSD (DX), X5, X5
	VMOVSD X5, (DX)
	ADDQ   $8, BX
	ADDQ   R10, DX
	DECQ   AX
	JNZ    rows_row1
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JNZ    rows_cols1

rows_done:
	VZEROUPPER
	RET

// One k of a 4×4 tile: the vector v holds b[j..j+3][k], one output column
// per lane; each of the tile's four rows multiplies it by its own
// broadcast a[i+r][k] and adds the product to its accumulator. off is the
// byte offset of that k within the current group of four.
#define TILE_K(off, v) \
	VBROADCASTSD off(SI), Y12; \
	VBROADCASTSD off(SI)(R8*1), Y13; \
	VMULPD       v, Y12, Y12; \
	VMULPD       v, Y13, Y13; \
	VADDPD       Y12, Y0, Y0; \
	VADDPD       Y13, Y1, Y1; \
	VBROADCASTSD off(SI)(R8*2), Y12; \
	VBROADCASTSD off(SI)(R9*1), Y13; \
	VMULPD       v, Y12, Y12; \
	VMULPD       v, Y13, Y13; \
	VADDPD       Y12, Y2, Y2; \
	VADDPD       Y13, Y3, Y3

// func mulTransBAVX2(dst, a, b []float64, rows, n, k int)
// dst[i*n+j] = Σ a[i*k+kk]*b[j*k+kk] over kk < k&^3, from 0 in ascending
// kk; needs rows, n >= 4. The dot products of a 4-row × 4-column tile
// run side by side: lanes are the four columns, so k stays sequential in
// every lane, and b's four rows reach lane order through a 4×4 in-register
// transpose per group of four k. A last tile that would overrun starts at
// rows-4 (or n-4) instead and recomputes what it overlaps — dst is
// assigned, not accumulated, so that writes the same bits twice.
//
//	R8  k in bytes   R9  3k in bytes   R10 tile row i   R11 tile column j
//	R12 n            R13 rows          SI  a cursor     DI  b cursor
//	CX  groups of four k left          AX, BX, DX scratch
//	Y0-Y3 accumulators (tile rows)     Y4-Y7 b rows, then their transpose
TEXT ·mulTransBAVX2(SB), NOSPLIT, $0-96
	MOVQ rows+72(FP), R13
	MOVQ n+80(FP), R12
	MOVQ k+88(FP), R8
	SHLQ $3, R8
	LEAQ (R8)(R8*2), R9
	XORQ R10, R10

tb_rowtile:
	LEAQ  -4(R13), AX
	CMPQ  R10, AX
	CMOVQGT AX, R10
	XORQ  R11, R11

tb_coltile:
	LEAQ  -4(R12), AX
	CMPQ  R11, AX
	CMOVQGT AX, R11
	MOVQ  R10, SI
	IMULQ R8, SI
	ADDQ  a_base+24(FP), SI
	MOVQ  R11, DI
	IMULQ R8, DI
	ADDQ  b_base+48(FP), DI
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ  k+88(FP), CX
	SHRQ  $2, CX
	JZ    tb_store

tb_k4:
	VMOVUPD    (DI), Y4
	VMOVUPD    (DI)(R8*1), Y5
	VMOVUPD    (DI)(R8*2), Y6
	VMOVUPD    (DI)(R9*1), Y7
	VUNPCKLPD  Y5, Y4, Y8
	VUNPCKHPD  Y5, Y4, Y9
	VUNPCKLPD  Y7, Y6, Y10
	VUNPCKHPD  Y7, Y6, Y11
	VPERM2F128 $0x20, Y10, Y8, Y4
	VPERM2F128 $0x20, Y11, Y9, Y5
	VPERM2F128 $0x31, Y10, Y8, Y6
	VPERM2F128 $0x31, Y11, Y9, Y7
	TILE_K(0, Y4)
	TILE_K(8, Y5)
	TILE_K(16, Y6)
	TILE_K(24, Y7)
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  tb_k4

tb_store:
	MOVQ    R10, DX
	IMULQ   R12, DX
	ADDQ    R11, DX
	SHLQ    $3, DX
	ADDQ    dst_base+0(FP), DX
	LEAQ    (R12*8), BX
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, (DX)(BX*1)
	VMOVUPD Y2, (DX)(BX*2)
	LEAQ    (BX)(BX*2), AX
	VMOVUPD Y3, (DX)(AX*1)
	ADDQ    $4, R11
	CMPQ    R11, R12
	JLT     tb_coltile
	ADDQ    $4, R10
	CMPQ    R10, R13
	JLT     tb_rowtile
	VZEROUPPER
	RET

// Steps of rowMulAVX2's column tiles, in saxpyAVX2's operand order.
// FIRST assigns the product x[t]·w[r] to an accumulator; ADD adds it,
// through a product register, as the sum's first source. off is the
// accumulator's byte offset within the tile.
#define FIRST(off, acc) VMULPD off(AX), Y12, acc
#define ADD(off, acc, p) \
	VMULPD off(AX), Y12, p; \
	VADDPD acc, p, acc

// func rowMulAVX2(dst, x []float64, rows []int, w []float64, stride int)
// rowMulGo over one column tile: dst[j] = Σ x[t]*w[r(t)*stride+j] over the
// t with x[t] != 0, ascending, the first assigning, zeros if there is
// none; r(t) = rows[t], or t when rows is empty. len(dst) is 48, 16, 12,
// 8, 4 or 1, and w starts at the tile's first column. The whole k loop
// runs with the tile's output in registers — a 48-column tile is twelve
// vector accumulators — and each accumulator is stored once.
//
//	SI x base     CX len(x)      R11 rows base   DX len(rows)
//	R8 w base     R9 stride in bytes    DI dst base    R13 tile width
//	BX t          AX w row r(t)  R10 scratch     R12 0 until a row assigned
//	Y0-Y11 accumulators   Y12 x[t] broadcast     Y13, Y14 products
TEXT ·rowMulAVX2(SB), NOSPLIT, $0-104
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), R13
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	MOVQ rows_base+48(FP), R11
	MOVQ rows_len+56(FP), DX
	MOVQ w_base+72(FP), R8
	MOVQ stride+96(FP), R9
	SHLQ $3, R9
	XORQ BX, BX
	XORQ R12, R12

rm_t:
	CMPQ BX, CX
	JGE  rm_end
	// x[t] == 0 exactly when its bits, sign dropped, are all zero, so a
	// NaN counts as nonzero, as it does for av == 0 in rowMulGo.
	MOVQ (SI)(BX*8), R10
	SHLQ $1, R10
	JZ   rm_next
	MOVQ BX, AX
	TESTQ DX, DX
	JZ   rm_row
	MOVQ (R11)(BX*8), AX

rm_row:
	IMULQ R9, AX
	ADDQ  R8, AX
	VBROADCASTSD (SI)(BX*8), Y12
	CMPQ R13, $48
	JEQ  rm_step48
	CMPQ R13, $4
	JGE  rm_step16
	TESTQ R12, R12
	JNZ  rm_add1
	VMULSD (AX), X12, X0
	JMP    rm_assigned

rm_add1:
	VMULSD (AX), X12, X13
	VADDSD X0, X13, X0
	JMP    rm_next

	// Tiles of 4, 8, 12 and 16 columns: one to four vectors, the flags of
	// the width comparisons surviving the vector instructions between.
rm_step16:
	TESTQ R12, R12
	JNZ   rm_add16
	FIRST(0, Y0)
	CMPQ  R13, $8
	JLT   rm_assigned
	FIRST(32, Y1)
	JEQ   rm_assigned
	FIRST(64, Y2)
	CMPQ  R13, $16
	JLT   rm_assigned
	FIRST(96, Y3)
	JMP   rm_assigned

rm_add16:
	ADD(0, Y0, Y13)
	CMPQ R13, $8
	JLT  rm_next
	ADD(32, Y1, Y14)
	JEQ  rm_next
	ADD(64, Y2, Y13)
	CMPQ R13, $16
	JLT  rm_next
	ADD(96, Y3, Y14)
	JMP  rm_next

rm_step48:
	TESTQ R12, R12
	JNZ  rm_add48
	FIRST(0, Y0)
	FIRST(32, Y1)
	FIRST(64, Y2)
	FIRST(96, Y3)
	FIRST(128, Y4)
	FIRST(160, Y5)
	FIRST(192, Y6)
	FIRST(224, Y7)
	FIRST(256, Y8)
	FIRST(288, Y9)
	FIRST(320, Y10)
	FIRST(352, Y11)

rm_assigned:
	MOVQ $1, R12
	JMP  rm_next

rm_add48:
	ADD(0, Y0, Y13)
	ADD(32, Y1, Y14)
	ADD(64, Y2, Y13)
	ADD(96, Y3, Y14)
	ADD(128, Y4, Y13)
	ADD(160, Y5, Y14)
	ADD(192, Y6, Y13)
	ADD(224, Y7, Y14)
	ADD(256, Y8, Y13)
	ADD(288, Y9, Y14)
	ADD(320, Y10, Y13)
	ADD(352, Y11, Y14)

rm_next:
	INCQ BX
	JMP  rm_t

rm_end:
	TESTQ R12, R12
	JNZ   rm_store
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

rm_store:
	CMPQ R13, $4
	JGE  rm_storev
	VMOVSD X0, (DI)
	VZEROUPPER
	RET

rm_storev:
	VMOVUPD Y0, (DI)
	CMPQ    R13, $8
	JLT     rm_done
	VMOVUPD Y1, 32(DI)
	JEQ     rm_done
	VMOVUPD Y2, 64(DI)
	CMPQ    R13, $16
	JLT     rm_done
	VMOVUPD Y3, 96(DI)
	JEQ     rm_done
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	VMOVUPD Y8, 256(DI)
	VMOVUPD Y9, 288(DI)
	VMOVUPD Y10, 320(DI)
	VMOVUPD Y11, 352(DI)

rm_done:
	VZEROUPPER
	RET
