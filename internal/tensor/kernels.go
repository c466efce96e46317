package tensor

import "math"

// The kernel layer: nine primitives through which every matmul driver in
// this package, Axpy/Scale/AddBias/ColSumsInto, Adam and the elementwise
// Exp/Log/Tanh reach memory.
//
//	saxpy(alpha, x, y)             y[j] += alpha*x[j]
//	scale(alpha, x, y)             y[j]  = alpha*x[j]
//	mulTransB(dst, a, b, rows, n, k)       dst = a·bᵀ and
//	mulTransA(dst, a, b, rows, n, k, lda)  dst = aᵀ·b, each element a dot
//	                               product summed from +0 in ascending k
//	rowMul(dst, x, rows, w)        dst[j] = Σ_t x[t]*w[r(t)*n+j] over the
//	                               t with x[t] != 0, in ascending t, the
//	                               first assigning (r(t) = rows[t], or t
//	                               when rows is nil; n = len(dst))
//	adam(val, grad, m, v, h)       one Adam update of every element (adamGo)
//	exp(dst, x), log(dst, x), tanh(dst, x)
//	                               dst[j] = math.Exp(x[j]), math.Log(x[j]),
//	                               math.Tanh(x[j]); dst may be x
//
// This file holds their portable Go bodies, which define the semantics:
// one multiply, then one add, per element per term (rowMul: per
// contributing t), adam's expression as written, and for the last three
// the Go math package of the build itself. Every product that feeds a sum
// is an explicit float64 conversion, which the Go spec forbids the
// compiler to fuse into a multiply-add. On amd64 with AVX2
// (kernels_amd64.go, kernels_amd64.s) each of the first six has an
// assembler body that performs the identical operations on every element
// — vector lanes are independent output elements, never partial sums of
// one — so either body yields the same bits (DESIGN.md, "Bit-identity
// discipline"). With FMA too, exp, log and tanh have assembler bodies
// that replay the instruction sequence of math's own amd64 code four
// lanes at a time, and hand any lane off that code's fast path back to
// math. Elsewhere, and under the purego build tag, the primitives are
// these bodies (kernels_noasm.go).

// saxpyGo computes y += alpha*x with a 4-way unroll. Each y[j] receives
// the same single multiply and single add per call as the naive loop, so
// results are bit-identical to it (the golden-trace tests rely on this).
func saxpyGo(alpha float64, x, y []float64) {
	n := len(x)
	y = y[:n] // hoist the bounds check out of the loops
	j := 0
	for ; j+4 <= n; j += 4 {
		y[j] += float64(alpha * x[j])
		y[j+1] += float64(alpha * x[j+1])
		y[j+2] += float64(alpha * x[j+2])
		y[j+3] += float64(alpha * x[j+3])
	}
	for ; j < n; j++ {
		y[j] += float64(alpha * x[j])
	}
}

// scaleGo computes y = alpha*x (assignment, not accumulation). x and y
// may be the same slice.
func scaleGo(alpha float64, x, y []float64) {
	y = y[:len(x)]
	for j, v := range x {
		y[j] = alpha * v
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
				s += float64(av * brow[kk])
			}
			drow[j] = s
		}
	}
}

// mulTransAGo computes the rows×n block dst = aᵀ·b for row-major b (k×n)
// and the first rows columns of a (k rows, lda apart), every element
// summed from +0 in ascending kk, four batch rows a pass. No term is
// skipped: a sum from +0 is never -0, so s + (±0) == s, as skipping a zero
// a would leave it. (The AVX2 body's register tile does not pay in scalar
// Go: the compiler spills its sums, and a 2×4 tile ran 1.3–1.7× slower.)
func mulTransAGo(dst, a, b []float64, rows, n, k, lda int) {
	for i := 0; i < rows; i++ {
		y := dst[i*n : i*n+n]
		clear(y)
		kk := 0
		for ; kk+4 <= k; kk += 4 {
			saxpy4Go(y, b, [4]float64{a[kk*lda+i], a[(kk+1)*lda+i], a[(kk+2)*lda+i], a[(kk+3)*lda+i]},
				[4]int{kk * n, (kk + 1) * n, (kk + 2) * n, (kk + 3) * n})
		}
		for ; kk < k; kk++ {
			saxpyGo(a[kk*lda+i], b[kk*n:kk*n+n], y)
		}
	}
}

// saxpy4Go adds c[t]·w[o[t]+j] to y[j] for t = 0..3, one term after the
// other: the operations of four saxpyGo calls, with one load and one
// store of y[j] instead of four.
func saxpy4Go(y, w []float64, c [4]float64, o [4]int) {
	n := len(y)
	c0, c1, c2, c3 := c[0], c[1], c[2], c[3]
	w0, w1, w2, w3 := w[o[0]:][:n], w[o[1]:][:n], w[o[2]:][:n], w[o[3]:][:n]
	for j, s := range y {
		y[j] = s + float64(c0*w0[j]) + float64(c1*w1[j]) + float64(c2*w2[j]) + float64(c3*w3[j])
	}
}

// adamHyper is one Adam step's coefficients: the moment decays b1, b2 and
// d1 = 1-b1, d2 = 1-b2, the rate, ε and the bias corrections c1, c2.
type adamHyper struct{ b1, d1, b2, d2, lr, eps, c1, c2 float64 }

// adamGo is the Adam update of every element, in the expression order of
// nn.Adam: m = b1·m + d1·g, v = b2·v + (d2·g)·g,
// val -= lr·(m/c1) / (√(v/c2) + ε).
func adamGo(val, grad, m, v []float64, h *adamHyper) {
	n := len(val)
	grad, m, v = grad[:n], m[:n], v[:n]
	for j, g := range grad {
		mj := float64(h.b1*m[j]) + float64(h.d1*g)
		vj := float64(h.b2*v[j]) + float64(float64(h.d2*g)*g)
		m[j], v[j] = mj, vj
		val[j] -= float64(h.lr*(mj/h.c1)) / (math.Sqrt(vj/h.c2) + h.eps)
	}
}

// rowMulGo is the batch-1 product dst = x·w of one input row x and the
// row-major weight matrix w (len(dst) columns), or, with rows non-nil,
// of the sparse row holding x[t] at column rows[t] (rows ascending, so the
// sum runs in the dense order). The first contributing t assigns
// x[t]·w[r] instead of accumulating into a zeroed row, saving the zeroing
// pass and one load-add per element. 0 + v == v under IEEE 754 (for any v
// a finite-weight network produces), so results match the
// zero-then-accumulate form bit for bit. The later terms are added four
// at a time by saxpy4Go.
func rowMulGo(dst, x []float64, rows []int, w []float64) {
	n := len(dst)
	var c [4]float64
	var o [4]int
	g, first := 0, true
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
			continue
		}
		c[g], o[g] = av, r*n
		if g++; g == 4 {
			saxpy4Go(dst, w, c, o)
			g = 0
		}
	}
	for t := range g {
		saxpyGo(c[t], w[o[t]:o[t]+n], dst)
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
