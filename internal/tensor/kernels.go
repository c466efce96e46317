package tensor

import "math"

// The kernel layer: eight primitives through which every matmul driver in
// this package, Axpy/Scale and the elementwise Exp/Log/Tanh reach memory.
//
//	saxpy(alpha, x, y)             y[j] += alpha*x[j]
//	scale(alpha, x, y)             y[j]  = alpha*x[j]
//	axpyRows(coef, x, y, stride)   y[r*stride+j] += coef[r]*x[j]
//	mulTransB(dst, a, b, rows, n, k)
//	                               dst[i*n+j] = Σ_k a[i*k+kk]*b[j*k+kk],
//	                               summed from 0 in ascending kk
//	rowMul(dst, x, rows, w)        dst[j] = Σ_t x[t]*w[r(t)*n+j] over the
//	                               t with x[t] != 0, in ascending t, the
//	                               first assigning (r(t) = rows[t], or t
//	                               when rows is nil; n = len(dst))
//	exp(dst, x), log(dst, x), tanh(dst, x)
//	                               dst[j] = math.Exp(x[j]), math.Log(x[j]),
//	                               math.Tanh(x[j]); dst may be x
//
// This file holds their portable Go bodies, which define the semantics:
// one multiply, then one add, per element per call (rowMul: per element
// per contributing t), and for the last three the Go math package of the
// build itself. On amd64 with AVX2 (kernels_amd64.go, kernels_amd64.s)
// each of the first five has an assembler body that performs the
// identical multiply and the identical add on every element — vector
// lanes are independent output elements, never partial sums of one — so
// either body yields the same bits (DESIGN.md, "Bit-identity discipline").
// With FMA too, exp, log and tanh have assembler bodies that replay the
// instruction sequence of math's own amd64 code four lanes at a time, and
// hand any lane off that code's fast path back to math. Elsewhere, and
// under the purego build tag, the primitives are these bodies
// (kernels_noasm.go).

// saxpyGo computes y += alpha*x with a 4-way unroll. Each y[j] receives
// the same single multiply and single add per call as the naive loop, so
// results are bit-identical to it (the golden-trace tests rely on this).
func saxpyGo(alpha float64, x, y []float64) {
	n := len(x)
	y = y[:n] // hoist the bounds check out of the loops
	j := 0
	for ; j+4 <= n; j += 4 {
		y[j] += alpha * x[j]
		y[j+1] += alpha * x[j+1]
		y[j+2] += alpha * x[j+2]
		y[j+3] += alpha * x[j+3]
	}
	for ; j < n; j++ {
		y[j] += alpha * x[j]
	}
}

// scaleGo computes y = alpha*x (assignment, not accumulation), with the
// same unroll structure as saxpyGo. x and y may be the same slice.
func scaleGo(alpha float64, x, y []float64) {
	n := len(x)
	y = y[:n]
	j := 0
	for ; j+4 <= n; j += 4 {
		y[j] = alpha * x[j]
		y[j+1] = alpha * x[j+1]
		y[j+2] = alpha * x[j+2]
		y[j+3] = alpha * x[j+3]
	}
	for ; j < n; j++ {
		y[j] = alpha * x[j]
	}
}

// axpyRowsGo applies one streamed row x to len(coef) accumulator rows laid
// stride apart in y: row r gets y[r*stride+j] += coef[r]*x[j]. Every
// element update is the single expression saxpyGo performs, so results are
// bit-identical to len(coef) saxpy calls; rows are taken eight, four and
// two at a time so each x[j] is loaded once per group of independent
// multiply-add chains. Where this body is the one that runs the grouping
// pays end to end: a saxpyGo call per row instead costs dl_batch_n16
// under -tags purego 1.28 → 1.55 s (ten alternating pairs, nine lost).
func axpyRowsGo(coef, x, y []float64, stride int) {
	n := len(x)
	row := func(r int) []float64 { return y[r*stride : r*stride+n] }
	r := 0
	for ; r+8 <= len(coef); r += 8 {
		saxpy8(coef[r], coef[r+1], coef[r+2], coef[r+3], coef[r+4], coef[r+5], coef[r+6], coef[r+7], x,
			row(r), row(r+1), row(r+2), row(r+3), row(r+4), row(r+5), row(r+6), row(r+7))
	}
	if r+4 <= len(coef) {
		saxpy4(coef[r], coef[r+1], coef[r+2], coef[r+3], x, row(r), row(r+1), row(r+2), row(r+3))
		r += 4
	}
	if r+2 <= len(coef) {
		saxpy2(coef[r], coef[r+1], x, row(r), row(r+1))
		r += 2
	}
	if r < len(coef) {
		saxpyGo(coef[r], x, row(r))
	}
}

// saxpy2 computes y0 += a0*x and y1 += a1*x in one streaming pass over x.
func saxpy2(a0, a1 float64, x, y0, y1 []float64) {
	n := len(x)
	y0 = y0[:n]
	y1 = y1[:n]
	for j := 0; j < n; j++ {
		xv := x[j]
		y0[j] += a0 * xv
		y1[j] += a1 * xv
	}
}

// saxpy4 is saxpy2 over four rows.
func saxpy4(a0, a1, a2, a3 float64, x, y0, y1, y2, y3 []float64) {
	n := len(x)
	y0 = y0[:n]
	y1 = y1[:n]
	y2 = y2[:n]
	y3 = y3[:n]
	for j := 0; j < n; j++ {
		xv := x[j]
		y0[j] += a0 * xv
		y1[j] += a1 * xv
		y2[j] += a2 * xv
		y3[j] += a3 * xv
	}
}

// saxpy8 is saxpy2 over eight rows — one x load per eight multiply-add
// chains, so a full REWL window of 8 walkers is a single streaming group.
func saxpy8(a0, a1, a2, a3, a4, a5, a6, a7 float64, x, y0, y1, y2, y3, y4, y5, y6, y7 []float64) {
	n := len(x)
	y0 = y0[:n]
	y1 = y1[:n]
	y2 = y2[:n]
	y3 = y3[:n]
	y4 = y4[:n]
	y5 = y5[:n]
	y6 = y6[:n]
	y7 = y7[:n]
	for j := 0; j < n; j++ {
		xv := x[j]
		y0[j] += a0 * xv
		y1[j] += a1 * xv
		y2[j] += a2 * xv
		y3[j] += a3 * xv
		y4[j] += a4 * xv
		y5[j] += a5 * xv
		y6[j] += a6 * xv
		y7[j] += a7 * xv
	}
}

// mulTransBGo computes the rows×n block dst = a·bᵀ for row-major a
// (rows×k) and b (n×k): every dst element is one dot product accumulated
// from 0 in ascending k, with no zero-skip.
func mulTransBGo(dst, a, b []float64, rows, n, k int) {
	for i := 0; i < rows; i++ {
		arow := a[i*k : (i+1)*k]
		drow := dst[i*n : (i+1)*n]
		for j := range drow {
			brow := b[j*k : (j+1)*k][:len(arow)]
			var s float64
			for kk, av := range arow {
				s += av * brow[kk]
			}
			drow[j] = s
		}
	}
}

// rowMulGo is the batch-1 product dst = x·w of one input row x and the
// row-major weight matrix w (len(dst) columns), or, with rows non-nil,
// of the sparse row holding x[t] at column rows[t] (rows ascending, so the
// sum runs in the dense order). The first contributing t assigns
// x[t]·w[r] instead of accumulating into a zeroed row, saving the zeroing
// pass and one load-add per element. 0 + v == v under IEEE 754 (for any v
// a finite-weight network produces), so results match the
// zero-then-accumulate form bit for bit.
func rowMulGo(dst, x []float64, rows []int, w []float64) {
	n := len(dst)
	first := true
	for t, av := range x {
		if av == 0 {
			continue
		}
		r := t
		if rows != nil {
			r = rows[t]
		}
		if first {
			scaleGo(av, w[r*n:r*n+n], dst)
			first = false
		} else {
			saxpyGo(av, w[r*n:r*n+n], dst)
		}
	}
	if first {
		clear(dst)
	}
}

// expGo, logGo and tanhGo are the math package, element by element.
func expGo(dst, x []float64) {
	dst = dst[:len(x)]
	for i, v := range x {
		dst[i] = math.Exp(v)
	}
}

func logGo(dst, x []float64) {
	dst = dst[:len(x)]
	for i, v := range x {
		dst[i] = math.Log(v)
	}
}

func tanhGo(dst, x []float64) {
	dst = dst[:len(x)]
	for i, v := range x {
		dst[i] = math.Tanh(v)
	}
}
