// Package tensor implements the dense linear algebra kernels that back the
// neural-network proposal models. It stands in for the GPU BLAS library of
// the original system. Every matmul driver is a loop over four primitives
// (kernels.go) — row update, row assignment, two register-tiled transposed
// products and a row product — which run as AVX2 assembler on amd64 and as
// portable Go elsewhere, with identical bits either way; nothing is
// cache-blocked (the benchmarked model is 264 KB and lives in L2).
// Products large enough to repay the hand-off fan out across goroutines by
// output row.
package tensor

import (
	"fmt"
	"runtime"
	"sync"
)

// Matrix is a dense row-major float64 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len = Rows*Cols, row-major
}

// NewMatrix returns a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimension %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps data (not copied) as a rows×cols matrix.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: %d elements for %dx%d matrix", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice view (not a copy).
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Zero sets every element to 0.
func (m *Matrix) Zero() { clear(m.Data) }

// parallelThreshold is the multiply-add count from which matmul fans out
// to goroutines. It keeps every product of the benchmarked model serial:
// below it a product allocates nothing, where a fan-out allocates its
// closure, and MatMulTransA and MatMulTransB, which it gates too, have not
// been measured with two workers. The forward alone would gain from a
// second worker at every batch shape (CHANGES.md, the FOUND line on
// parallelThreshold, has the numbers and what lowering it needs).
const parallelThreshold = 1 << 21

// serialRows reports whether a kernel over rows rows and flops total work
// should run serially: small work items, single-row shapes, or a single-P
// runtime. Every forward a sampling walker issues has one row, so the
// walkers of a run, which already occupy the machine one goroutine each,
// never fan out a second layer of goroutines. Callers check this BEFORE
// constructing the range closure, so the batch-1 hot path allocates
// nothing (a closure handed to parallelRows escapes to the heap because
// goroutines capture it).
func serialRows(rows, flops int) bool {
	return flops < parallelThreshold || rows < 2 || runtime.GOMAXPROCS(0) < 2
}

// parallelRows runs fn over row ranges [lo,hi) split across workers.
// Callers must have ruled out the serial path via serialRows first.
func parallelRows(rows int, fn func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > rows {
		workers = rows
	}
	var wg sync.WaitGroup
	chunk := (rows + workers - 1) / workers
	for lo := 0; lo < rows; lo += chunk {
		hi := lo + chunk
		if hi > rows {
			hi = rows
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// MatMul computes dst = a·b. dst must be preallocated with matching shape
// and must not alias a or b. Panics on shape mismatch.
func MatMul(dst, a, b *Matrix) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMul shapes %dx%d · %dx%d -> %dx%d", a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	if serialRows(a.Rows, a.Rows*a.Cols*b.Cols) {
		matMulRange(dst, a, b, 0, a.Rows)
		return
	}
	parallelRows(a.Rows, func(lo, hi int) { matMulRange(dst, a, b, lo, hi) })
}

// matMulRange runs rowMul on each row of [lo,hi): a tile of the output row
// stays in registers across every k, so each row streams b once. A batch
// row's operation sequence is therefore a batch-1 forward's, bit for bit.
func matMulRange(dst, a, b *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		rowMul(dst.Row(i), a.Row(i), nil, b.Data)
	}
}

// SparseRowMul computes the batch-1 product dst = x·w for the 1×w.Rows
// row x holding coef[t] at column rows[t] (rows ascending) and zero
// elsewhere, without building or scanning x: bit for bit what MatMul
// computes on the materialized row. Panics on a length mismatch or a row
// outside w.
func SparseRowMul(dst, coef []float64, rows []int, w *Matrix) {
	if len(dst) != w.Cols || len(coef) != len(rows) {
		panic(fmt.Sprintf("tensor: SparseRowMul %d coefficients, %d rows, %d·%dx%d", len(coef), len(rows), len(dst), w.Rows, w.Cols))
	}
	for _, r := range rows {
		if r < 0 || r >= w.Rows {
			panic(fmt.Sprintf("tensor: SparseRowMul row %d of a %dx%d matrix", r, w.Rows, w.Cols))
		}
	}
	rowMul(dst, coef, rows, w.Data)
}

// MatMulTransB computes dst = a·bᵀ (dst: a.Rows × b.Rows). Used in backprop
// for input gradients.
func MatMulTransB(dst, a, b *Matrix) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTransB shapes %dx%d · (%dx%d)ᵀ -> %dx%d", a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	if serialRows(a.Rows, a.Rows*a.Cols*b.Rows) {
		matMulTransBRange(dst, a, b, 0, a.Rows)
		return
	}
	parallelRows(a.Rows, func(lo, hi int) { matMulTransBRange(dst, a, b, lo, hi) })
}

func matMulTransBRange(dst, a, b *Matrix, lo, hi int) {
	mulTransB(dst.Data[lo*dst.Cols:hi*dst.Cols], a.Data[lo*a.Cols:hi*a.Cols], b.Data, hi-lo, b.Rows, a.Cols)
}

// MatMulTransA computes dst = aᵀ·b (dst: a.Cols × b.Cols). Used in backprop
// for weight gradients.
func MatMulTransA(dst, a, b *Matrix) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTransA shapes (%dx%d)ᵀ · %dx%d -> %dx%d", a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	// Parallelize over dst rows (a columns); each worker reads all of a and
	// b but writes a disjoint dst stripe, so no synchronization is needed.
	if serialRows(a.Cols, a.Rows*a.Cols*b.Cols) {
		matMulTransARange(dst, a, b, 0, a.Cols)
		return
	}
	parallelRows(a.Cols, func(lo, hi int) { matMulTransARange(dst, a, b, lo, hi) })
}

func matMulTransARange(dst, a, b *Matrix, lo, hi int) {
	mulTransA(dst.Data[lo*dst.Cols:hi*dst.Cols], a.Data[lo:], b.Data, hi-lo, b.Cols, a.Rows, a.Cols)
}

// AddBias adds the bias vector to every row of m in place.
func AddBias(m *Matrix, bias []float64) {
	if len(bias) != m.Cols {
		panic("tensor: bias length mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		saxpy(1, bias, m.Row(i)) // 1·b == b, so this is row[j] += b
	}
}

// ColSumsInto writes the per-column sums of m (bias gradients) into dst,
// each summed from +0 in ascending row, and returns it.
func ColSumsInto(dst []float64, m *Matrix) []float64 {
	if len(dst) != m.Cols {
		panic("tensor: ColSumsInto length mismatch")
	}
	clear(dst)
	for i := 0; i < m.Rows; i++ {
		saxpy(1, m.Row(i), dst)
	}
	return dst
}

// Ensure returns a matrix of exactly rows×cols for reuse as a scratch
// buffer: m is returned as-is when the shape already matches, reshaped in
// place when its backing array is large enough, and freshly allocated
// otherwise. Contents are unspecified after a reshape — callers must fully
// overwrite the buffer (all kernels in this package do).
func Ensure(m *Matrix, rows, cols int) *Matrix {
	if m != nil {
		if m.Rows == rows && m.Cols == cols {
			return m
		}
		if n := rows * cols; cap(m.Data) >= n {
			m.Rows, m.Cols, m.Data = rows, cols, m.Data[:n]
			return m
		}
	}
	return NewMatrix(rows, cols)
}

// Apply sets dst[i] = f(src[i]) elementwise; dst may alias src.
func Apply(dst, src *Matrix, f func(float64) float64) {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic("tensor: Apply shape mismatch")
	}
	for i, v := range src.Data {
		dst.Data[i] = f(v)
	}
}

// Hadamard sets dst = a ⊙ b elementwise; dst may alias either operand.
func Hadamard(dst, a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != a.Cols {
		panic("tensor: Hadamard shape mismatch")
	}
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] * b.Data[i]
	}
}

// Axpy computes y += alpha*x over raw slices. Each y[i] receives one
// multiply and one add exactly as in the naive loop (the unroll only
// restructures control flow), so results are bit-identical to it.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("tensor: Axpy length mismatch")
	}
	saxpy(alpha, x, y)
}

// Adam applies one Adam update to every element of val: m = b1·m +
// (1-b1)·g, v = b2·v + (1-b2)·g·g, val -= lr·(m/c1) / (√(v/c2) + eps), in
// that order and bit for bit, with g from grad and the bias corrections
// c1, c2 given. m and v are updated in place.
func Adam(val, grad, m, v []float64, b1, b2, lr, eps, c1, c2 float64) {
	if len(grad) != len(val) || len(m) != len(val) || len(v) != len(val) {
		panic("tensor: Adam length mismatch")
	}
	adam(val, grad, m, v, &adamHyper{b1: b1, d1: 1 - b1, b2: b2, d2: 1 - b2, lr: lr, eps: eps, c1: c1, c2: c2})
}

// Scale multiplies every element of x by alpha.
func Scale(alpha float64, x []float64) { scale(alpha, x, x) }

// Exp sets dst[i] = math.Exp(x[i]), bit for bit; dst may be x.
func Exp(dst, x []float64) {
	if len(dst) != len(x) {
		panic("tensor: Exp length mismatch")
	}
	exp(dst, x)
}

// Log sets dst[i] = math.Log(x[i]), bit for bit; dst may be x.
func Log(dst, x []float64) {
	if len(dst) != len(x) {
		panic("tensor: Log length mismatch")
	}
	log(dst, x)
}

// Tanh sets dst[i] = math.Tanh(x[i]), bit for bit; dst may be x.
func Tanh(dst, x []float64) {
	if len(dst) != len(x) {
		panic("tensor: Tanh length mismatch")
	}
	tanh(dst, x)
}
