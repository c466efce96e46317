//go:build amd64 && !purego

#include "textflag.h"

// AVX2 bodies of the nine tensor primitives (kernels.go). The rules that
// keep them bit-identical to the portable Go loops:
//
//   - a product is VMULPD/VMULSD, a sum VADDPD/VADDSD, and adam's
//     quotient, root and difference VDIVPD, VSQRTPD, VSUBPD, each rounded
//     on its own as the compiler's scalar forms are — never FMA, except
//     where exp replays the fused multiply-adds of math.Exp's own amd64
//     body (see the transcendental bodies at the end of this file);
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

// One tile row's term of mulTransAAVX2: a[kk][r], at aoff, times the
// tile's b lanes (Y8, Y9), added to the row's accumulators.
#define TA_ROW8(aoff, lo, hi) \
	VBROADCASTSD aoff, Y10; \
	VMULPD       Y8, Y10, Y11; \
	VMULPD       Y9, Y10, Y12; \
	VADDPD       Y11, lo, lo; \
	VADDPD       Y12, hi, hi

#define TA_ROW4(aoff, acc) \
	VBROADCASTSD aoff, Y10; \
	VMULPD       Y8, Y10, Y11; \
	VADDPD       Y11, acc, acc

#define TA_ROW1(aoff, acc) \
	VMULSD aoff, X8, X11; \
	VADDSD X11, acc, acc

// func mulTransAAVX2(dst, a, b []float64, k, lda, n, r0, r1, r2, r3 int)
// dst[r*n+j] = Σ a[kk*lda+r]*b[kk*n+j] over kk < k (k >= 1), from +0 in
// ascending kk, for r in r0 <= r1 <= r2 <= r3 and every j < n. The tile's
// four rows broadcast their a[kk][r] against the same b lanes, so a lane
// is one dst element and kk stays sequential in it; the accumulators stay
// in registers over all of k and are stored once. Tiles are 8 columns
// while they fit, then 4, then the last 4 moved back to end at n (dst is
// assigned, so the overlap rewrites the same bits), or single columns
// when n < 4.
//
//	R8  lda in bytes   R9  n in bytes   R10-R12 a offsets of rows r1-r3
//	R13 tile column in bytes            BX tile width in bytes
//	SI  a cursor       DI  b cursor     CX k left     AX, DX scratch
//	Y0-Y7 accumulators (row t in Y2t, Y2t+1)   Y8, Y9 b   Y10-Y12 scratch
TEXT ·mulTransAAVX2(SB), NOSPLIT, $0-128
	MOVQ lda+80(FP), R8
	SHLQ $3, R8
	MOVQ n+88(FP), R9
	SHLQ $3, R9
	MOVQ r0+96(FP), AX
	MOVQ r1+104(FP), R10
	MOVQ r2+112(FP), R11
	MOVQ r3+120(FP), R12
	SUBQ AX, R10
	SUBQ AX, R11
	SUBQ AX, R12
	SHLQ $3, R10
	SHLQ $3, R11
	SHLQ $3, R12
	XORQ R13, R13

ta_next:
	MOVQ R9, DX
	SUBQ R13, DX
	JLE  ta_done
	MOVQ $64, BX
	CMPQ DX, BX
	JGE  ta_start
	MOVQ $32, BX
	CMPQ DX, BX
	JGE  ta_start
	CMPQ R9, BX
	JLT  ta_one
	LEAQ -32(R9), R13
	JMP  ta_start

ta_one:
	MOVQ $8, BX

ta_start:
	MOVQ   a_base+24(FP), SI
	MOVQ   r0+96(FP), AX
	LEAQ   (SI)(AX*8), SI
	MOVQ   b_base+48(FP), DI
	ADDQ   R13, DI
	MOVQ   k+72(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	CMPQ   BX, $32
	JEQ    ta_k4
	JLT    ta_k1

ta_k8:
	VMOVUPD (DI), Y8
	VMOVUPD 32(DI), Y9
	TA_ROW8((SI), Y0, Y1)
	TA_ROW8((SI)(R10*1), Y2, Y3)
	TA_ROW8((SI)(R11*1), Y4, Y5)
	TA_ROW8((SI)(R12*1), Y6, Y7)
	ADDQ    R8, SI
	ADDQ    R9, DI
	DECQ    CX
	JNZ     ta_k8
	JMP     ta_store

ta_k4:
	VMOVUPD (DI), Y8
	TA_ROW4((SI), Y0)
	TA_ROW4((SI)(R10*1), Y2)
	TA_ROW4((SI)(R11*1), Y4)
	TA_ROW4((SI)(R12*1), Y6)
	ADDQ    R8, SI
	ADDQ    R9, DI
	DECQ    CX
	JNZ     ta_k4
	JMP     ta_store

ta_k1:
	VMOVSD (DI), X8
	TA_ROW1((SI), X0)
	TA_ROW1((SI)(R10*1), X2)
	TA_ROW1((SI)(R11*1), X4)
	TA_ROW1((SI)(R12*1), X6)
	ADDQ   R8, SI
	ADDQ   R9, DI
	DECQ   CX
	JNZ    ta_k1

	// Row t of the tile starts at dst + r_t·n + the tile column.
ta_store:
	MOVQ  dst_base+0(FP), DI
	ADDQ  R13, DI
	MOVQ  r0+96(FP), AX
	MOVQ  r1+104(FP), DX
	MOVQ  r2+112(FP), SI
	MOVQ  r3+120(FP), CX
	IMULQ R9, AX
	IMULQ R9, DX
	IMULQ R9, SI
	IMULQ R9, CX
	ADDQ  DI, AX
	ADDQ  DI, DX
	ADDQ  DI, SI
	ADDQ  DI, CX
	CMPQ  BX, $32
	JLT   ta_store1
	VMOVUPD Y0, (AX)
	VMOVUPD Y2, (DX)
	VMOVUPD Y4, (SI)
	VMOVUPD Y6, (CX)
	JEQ   ta_stored
	VMOVUPD Y1, 32(AX)
	VMOVUPD Y3, 32(DX)
	VMOVUPD Y5, 32(SI)
	VMOVUPD Y7, 32(CX)
	JMP   ta_stored

ta_store1:
	VMOVSD X0, (AX)
	VMOVSD X2, (DX)
	VMOVSD X4, (SI)
	VMOVSD X6, (CX)

ta_stored:
	ADDQ BX, R13
	JMP  ta_next

ta_done:
	VZEROUPPER
	RET

// func adamAVX2(val, grad, m, v []float64, h *adamHyper)
// adamGo four lanes at a time over len(val)&^3 elements: the same
// products, sums, quotients and square root in the same order, each
// rounded on its own.
TEXT ·adamAVX2(SB), NOSPLIT, $0-104
	MOVQ         h+96(FP), AX
	VBROADCASTSD 0(AX), Y0  // b1
	VBROADCASTSD 8(AX), Y1  // d1
	VBROADCASTSD 16(AX), Y2 // b2
	VBROADCASTSD 24(AX), Y3 // d2
	VBROADCASTSD 32(AX), Y4 // lr
	VBROADCASTSD 40(AX), Y5 // eps
	VBROADCASTSD 48(AX), Y6 // c1
	VBROADCASTSD 56(AX), Y7 // c2
	MOVQ         val_base+0(FP), DI
	MOVQ         val_len+8(FP), CX
	MOVQ         grad_base+24(FP), SI
	MOVQ         m_base+48(FP), R8
	MOVQ         v_base+72(FP), R9
	SHRQ         $2, CX
	JZ           adam_done

adam_loop:
	VMOVUPD (SI), Y8       // g
	VMULPD  (R8), Y0, Y9
	VMULPD  Y8, Y1, Y10
	VADDPD  Y10, Y9, Y9    // m = b1·m + d1·g
	VMOVUPD Y9, (R8)
	VMULPD  (R9), Y2, Y10
	VMULPD  Y8, Y3, Y11
	VMULPD  Y8, Y11, Y11
	VADDPD  Y11, Y10, Y10  // v = b2·v + (d2·g)·g
	VMOVUPD Y10, (R9)
	VDIVPD  Y6, Y9, Y9
	VMULPD  Y9, Y4, Y9     // lr·(m/c1)
	VDIVPD  Y7, Y10, Y10
	VSQRTPD Y10, Y10
	VADDPD  Y5, Y10, Y10   // √(v/c2) + ε
	VDIVPD  Y10, Y9, Y9
	VMOVUPD (DI), Y10
	VSUBPD  Y9, Y10, Y10
	VMOVUPD Y10, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	ADDQ    $32, R8
	ADDQ    $32, R9
	DECQ    CX
	JNZ     adam_loop

adam_done:
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

// The transcendental bodies below replay Go's amd64 math package four
// lanes at a time: exp is archExp's AVX+FMA path (exp_amd64.s), log is
// archLog (log_amd64.s), and tanh is math.tanh (tanh.go), whose exp is
// that same replay. Each fused multiply-add sits exactly where archExp
// has one and nowhere else; every other product, sum and quotient is one
// rounded VMULPD, VADDPD/VSUBPD or VDIVPD, as in the scalar code. A group
// of four that holds a lane outside the fast path is not stored: the body
// returns the index of that group, and the Go wrapper computes the group
// with the math package and calls again past it. Each constant is stored
// four times, so it can be a 256-bit memory operand.

#define VCONST(sym, v) \
	DATA sym+0(SB)/8, v; \
	DATA sym+8(SB)/8, v; \
	DATA sym+16(SB)/8, v; \
	DATA sym+24(SB)/8, v; \
	GLOBL sym(SB), RODATA|NOPTR, $32

VCONST(vmAbs<>, $0x7fffffffffffffff)
VCONST(vmSign<>, $0x8000000000000000)
VCONST(vmHalf<>, $0.5)
VCONST(vmOne<>, $1.0)
VCONST(vmTwo<>, $2.0)

// exp_amd64.s: the constants and the Taylor coefficients of exprodata.
VCONST(vmExpBound<>, $708.0)
VCONST(vmLog2E<>, $1.4426950408889634073599246810018920)
VCONST(vmLn2U<>, $0.69314718055966295651160180568695068359375)
VCONST(vmLn2L<>, $0.28235290563031577122588448175013436025525412068e-12)
VCONST(vmSixteenth<>, $0.0625)
VCONST(vmE3<>, $1.6666666666666666667e-1)
VCONST(vmE4<>, $4.1666666666666666667e-2)
VCONST(vmE5<>, $8.3333333333333333333e-3)
VCONST(vmE6<>, $1.3888888888888888889e-3)
VCONST(vmE7<>, $1.9841269841269841270e-4)
VCONST(vmE8<>, $2.4801587301587301587e-5)
// 2^52 + 1023: added to an integral k, its low bits are k's biased exponent.
VCONST(vmExpBias<>, $4503599627371519.0)

// log_amd64.s.
VCONST(vmMinNormal<>, $0x0010000000000000)
VCONST(vmInf<>, $0x7ff0000000000000)
VCONST(vmMant<>, $0x000fffffffffffff)
VCONST(vmHSqrt2<>, $7.07106781186547524401e-01)
VCONST(vmExpField<>, $0x4330000000000000)
VCONST(vmExpOffset<>, $4503599627371518.0) // 2^52 + 0x3FE
VCONST(vmLn2Hi<>, $6.93147180369123816490e-01)
VCONST(vmLn2Lo<>, $1.90821492927058770002e-10)
VCONST(vmL1<>, $6.666666666666735130e-01)
VCONST(vmL2<>, $3.999999999940941908e-01)
VCONST(vmL3<>, $2.857142874366239149e-01)
VCONST(vmL4<>, $2.222219843214978396e-01)
VCONST(vmL5<>, $1.818357216161805012e-01)
VCONST(vmL6<>, $1.531383769920937332e-01)
VCONST(vmL7<>, $1.479819860511658591e-01)

// tanh.go: 0.5*MAXLOG as the compiler folds it, the branch point 0.625,
// and tanhP, tanhQ.
VCONST(vmTanhBig<>, $0x404601e678fc457b)
VCONST(vmTanhSmall<>, $0.625)
VCONST(vmP0<>, $-9.64399179425052238628e-1)
VCONST(vmP1<>, $-9.92877231001918586564e1)
VCONST(vmP2<>, $-1.61468768441708447952e3)
VCONST(vmQ0<>, $1.12811678491632931402e2)
VCONST(vmQ1<>, $2.23548839060100448583e3)
VCONST(vmQ2<>, $4.84406305325125486048e3)

// EXP4 overwrites x with archExp(x) in each lane for |x| <= 708, where
// archExp takes neither its overflow nor its denormal branch; k and p are
// scratch. The scalar code's X1 is k and then p, its X0 is x.
#define EXP4(x, k, p, xk) \
	VMULPD       vmLog2E<>(SB), x, k; \
	VCVTPD2DQY   k, xk; \
	VCVTDQ2PD    xk, k; \
	VFNMADD231PD vmLn2U<>(SB), k, x; \
	VFNMADD231PD vmLn2L<>(SB), k, x; \
	VMULPD       vmSixteenth<>(SB), x, x; \
	VMOVUPD      vmE8<>(SB), p; \
	VFMADD213PD  vmE7<>(SB), x, p; \
	VFMADD213PD  vmE6<>(SB), x, p; \
	VFMADD213PD  vmE5<>(SB), x, p; \
	VFMADD213PD  vmE4<>(SB), x, p; \
	VFMADD213PD  vmE3<>(SB), x, p; \
	VFMADD213PD  vmHalf<>(SB), x, p; \
	VFMADD213PD  vmOne<>(SB), x, p; \
	VMULPD       p, x, x; \
	VADDPD       vmTwo<>(SB), x, p; \
	VMULPD       p, x, x; \
	VADDPD       vmTwo<>(SB), x, p; \
	VMULPD       p, x, x; \
	VADDPD       vmTwo<>(SB), x, p; \
	VMULPD       p, x, x; \
	VADDPD       vmTwo<>(SB), x, p; \
	VFMADD213PD  vmOne<>(SB), p, x; \
	VADDPD       vmExpBias<>(SB), k, k; \
	VPSLLQ       $52, k, k; \
	VMULPD       k, x, x

// func expAVX2(dst, x []float64) int
// dst[j] = math.Exp(x[j]) for whole groups of four, len(x) a multiple of
// four, up to the first group with a lane outside [-708, 708]; returns
// the number of elements written. dst may be x.
TEXT ·expAVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	XORQ AX, AX

exp_loop:
	CMPQ      AX, CX
	JGE       exp_done
	VMOVUPD   (SI)(AX*8), Y0
	VANDPD    vmAbs<>(SB), Y0, Y1
	VCMPPD    $2, vmExpBound<>(SB), Y1, Y1 // |x| <= 708; false for NaN
	VMOVMSKPD Y1, BX
	CMPQ      BX, $15
	JNE       exp_done
	EXP4(Y0, Y1, Y2, X1)
	VMOVUPD   Y0, (DI)(AX*8)
	ADDQ      $4, AX
	JMP       exp_loop

exp_done:
	VZEROUPPER
	MOVQ AX, ret+48(FP)
	RET

// func logAVX2(dst, x []float64) int
// dst[j] = math.Log(x[j]) for whole groups of four, len(x) a multiple of
// four, up to the first group with a lane that is not a positive, finite,
// normal number; returns the number of elements written. dst may be x.
TEXT ·logAVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	XORQ AX, AX

log_loop:
	CMPQ      AX, CX
	JGE       log_done
	VMOVUPD   (SI)(AX*8), Y0
	VCMPPD    $13, vmMinNormal<>(SB), Y0, Y1 // x >= 2^-1022
	VCMPPD    $1, vmInf<>(SB), Y0, Y2        // x < +Inf
	VANDPD    Y1, Y2, Y1
	VMOVMSKPD Y1, BX
	CMPQ      BX, $15
	JNE       log_done

	// f1, k := frexp(x): the mantissa with exponent -1, and the biased
	// exponent less 0x3FE, converted exactly through 2^52.
	VANDPD vmMant<>(SB), Y0, Y2
	VORPD  vmHalf<>(SB), Y2, Y2         // Y2 = f1
	VPSRLQ $52, Y0, Y1
	VPOR   vmExpField<>(SB), Y1, Y1
	VSUBPD vmExpOffset<>(SB), Y1, Y1    // Y1 = k

	// CMPSD X2, X0, 5: where !(√2/2 < f1), k -= 1 and f1 *= 2.
	VMOVUPD vmHSqrt2<>(SB), Y3
	VCMPPD  $5, Y2, Y3, Y3
	VANDPD  vmOne<>(SB), Y3, Y3
	VSUBPD  Y3, Y1, Y1
	VADDPD  vmOne<>(SB), Y3, Y3
	VMULPD  Y3, Y2, Y2
	VSUBPD  vmOne<>(SB), Y2, Y2         // Y2 = f

	VADDPD vmTwo<>(SB), Y2, Y3
	VDIVPD Y3, Y2, Y3                   // Y3 = s = f/(2+f)
	VMULPD Y3, Y3, Y4                   // Y4 = s2
	VMULPD Y4, Y4, Y5                   // Y5 = s4
	VMULPD vmL7<>(SB), Y5, Y6
	VADDPD vmL5<>(SB), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD vmL3<>(SB), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD vmL1<>(SB), Y6, Y6
	VMULPD Y6, Y4, Y4                   // Y4 = t1
	VMULPD vmL6<>(SB), Y5, Y6
	VADDPD vmL4<>(SB), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD vmL2<>(SB), Y6, Y6
	VMULPD Y6, Y5, Y5                   // Y5 = t2
	VADDPD Y5, Y4, Y4                   // Y4 = R
	VMULPD vmHalf<>(SB), Y2, Y0
	VMULPD Y2, Y0, Y0                   // Y0 = hfsq
	VADDPD Y0, Y4, Y4
	VMULPD Y4, Y3, Y3                   // s*(hfsq+R)
	VMULPD vmLn2Lo<>(SB), Y1, Y4
	VADDPD Y4, Y3, Y3                   // s*(hfsq+R) + k*Ln2Lo
	VSUBPD Y3, Y0, Y0
	VSUBPD Y2, Y0, Y0                   // (hfsq - (s*(hfsq+R) + k*Ln2Lo)) - f
	VMULPD vmLn2Hi<>(SB), Y1, Y1
	VSUBPD Y0, Y1, Y1                   // k*Ln2Hi - ...
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     log_loop

log_done:
	VZEROUPPER
	MOVQ AX, ret+48(FP)
	RET

// func tanhAVX2(dst, x []float64) int
// dst[j] = math.Tanh(x[j]) for whole groups of four, len(x) a multiple of
// four, up to the first group with a NaN lane; returns the number of
// elements written. dst may be x. All three branches of math.tanh are
// computed and blended, the later taking precedence: the rational form,
// x itself where x == 0, 1 - 2/(e^{2z}+1) where z >= 0.625, and ±1 where
// z > 0.5*MAXLOG (z = |x|). The exp lanes of the other branches may be
// out of EXP4's range; they are discarded.
TEXT ·tanhAVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	XORQ AX, AX

tanh_loop:
	CMPQ      AX, CX
	JGE       tanh_done
	VMOVUPD   (SI)(AX*8), Y0
	VCMPPD    $3, Y0, Y0, Y1 // unordered: x is NaN
	VMOVMSKPD Y1, BX
	TESTQ     BX, BX
	JNZ       tanh_done
	VANDPD    vmAbs<>(SB), Y0, Y1  // Y1 = z
	VANDPD    vmSign<>(SB), Y0, Y2 // Y2 = sign of x

	// z >= 0.625: s := Exp(2*z); 1 - 2/(s+1), negated when x < 0.
	VADDPD  Y1, Y1, Y3
	EXP4(Y3, Y4, Y5, X4)
	VADDPD  vmOne<>(SB), Y3, Y3
	VMOVUPD vmTwo<>(SB), Y4
	VDIVPD  Y3, Y4, Y3
	VMOVUPD vmOne<>(SB), Y4
	VSUBPD  Y3, Y4, Y3
	VXORPD  Y2, Y3, Y3

	// Otherwise s := x*x; x + x*s*((P0*s+P1)*s+P2)/(((s+Q0)*s+Q1)*s+Q2).
	VMULPD Y0, Y0, Y4
	VMULPD Y4, Y0, Y5
	VMULPD vmP0<>(SB), Y4, Y6
	VADDPD vmP1<>(SB), Y6, Y6
	VMULPD Y4, Y6, Y6
	VADDPD vmP2<>(SB), Y6, Y6
	VMULPD Y6, Y5, Y5
	VADDPD vmQ0<>(SB), Y4, Y6
	VMULPD Y4, Y6, Y6
	VADDPD vmQ1<>(SB), Y6, Y6
	VMULPD Y4, Y6, Y6
	VADDPD vmQ2<>(SB), Y6, Y6
	VDIVPD Y6, Y5, Y5
	VADDPD Y5, Y0, Y5

	VXORPD    Y6, Y6, Y6
	VCMPPD    $0, Y6, Y0, Y6                // x == 0
	VBLENDVPD Y6, Y0, Y5, Y5
	VCMPPD    $13, vmTanhSmall<>(SB), Y1, Y6 // z >= 0.625
	VBLENDVPD Y6, Y3, Y5, Y5
	VCMPPD    $14, vmTanhBig<>(SB), Y1, Y6   // z > 0.5*MAXLOG
	VORPD     vmOne<>(SB), Y2, Y3            // ±1
	VBLENDVPD Y6, Y3, Y5, Y5
	VMOVUPD   Y5, (DI)(AX*8)
	ADDQ      $4, AX
	JMP       tanh_loop

tanh_done:
	VZEROUPPER
	MOVQ AX, ret+48(FP)
	RET
