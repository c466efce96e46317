// Package tensor implements the dense linear algebra kernels that back the
// neural-network proposal models. It stands in for the GPU BLAS library of
// the original system. Every matmul driver is a loop nest over four
// primitives (kernels.go) — row update, row assignment, grouped-row update
// and a transposed dot product — which run as AVX2 assembler on amd64 and
// as portable Go elsewhere, with identical bits either way; the loops are
// ordered so a weight row is streamed once per batch, not cache-blocked
// (the benchmarked model is 264 KB and lives in L2). Products large enough
// to repay the hand-off fan out across goroutines by output row.
package tensor

import (
	"fmt"
	"math"
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
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// parallelThreshold is the multiply-add count from which matmul fans out
// to goroutines; below it the hand-off costs more than the second worker
// returns. Sized by `go test -bench MatMul -cpu 1,2` with the AVX2 kernels
// on the two-core benchmark guest, whose host schedules the second vCPU
// only part of the time, so there are two populations. Serial → two
// workers, median of all 24 rounds (rounds two workers won):
//
//	 32×96·96     0.3 M    43 →  58 µs   (1)    a training step
//	 64×96·96     0.6 M    98 → 120 µs   (1)
//	 64×128·128   1.0 M   199 → 189 µs  (21)
//	128×128·128   2.1 M   418 → 443 µs   (5)
//	 64×256·256   4.2 M   837 → 856 µs  (12)
//	256×256·256  16.8 M  3.36 → 3.56 ms (11)
//	128×512·512  33.5 M  7.30 → 7.18 ms (12)
//
// and in the runs where both workers had a core (user/real > 1.5; 4 of 24
// separate runs): 2.1 M 375 → 308 µs, 4.2 M 809 → 696 µs, 16.8 M 3.35 →
// 2.26 ms, 33.5 M 6.77 → 3.69 ms. So from 2.1 M a second core returns
// 1.2–1.8× and its absence costs at most 6 %; at 0.6 M and below two
// workers lose either way. 1.0 M wins only because half of that shape's
// dst (32 of 64 KB) drops into L1, which is the shape, not the size. No
// product of the benchmarked model comes near the constant; the fan-out
// is for wider models and batches.
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
	// i-k-j loop order streams b rows sequentially: the inner loop is a
	// saxpy over contiguous memory.
	if serialRows(a.Rows, a.Rows*a.Cols*b.Cols) {
		matMulRange(dst, a, b, 0, a.Rows)
		return
	}
	parallelRows(a.Rows, func(lo, hi int) { matMulRange(dst, a, b, lo, hi) })
}

func matMulRange(dst, a, b *Matrix, lo, hi int) {
	if hi-lo >= 2 {
		matMulRangeKOuter(dst, a, b, lo, hi)
		return
	}
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		// The first contributing k assigns alpha*x instead of accumulating
		// into a zeroed row, saving the zeroing pass and one load-add per
		// element. 0 + v == v under IEEE 754 (for any v a finite-weight
		// network produces), so results match the zero-then-accumulate form
		// bit for bit.
		first := true
		for k, av := range arow {
			if av == 0 {
				continue
			}
			if first {
				scale(av, b.Row(k), drow)
				first = false
			} else {
				saxpy(av, b.Row(k), drow)
			}
		}
		if first {
			for j := range drow {
				drow[j] = 0
			}
		}
	}
}

// matMulRangeKOuter is the multi-row form of matMulRange with the k loop
// hoisted outside the row loop: each b row is streamed through the cache
// once and applied to every output row, instead of re-streaming all of b
// for every row as the i-outer form does. For a batch of B rows this cuts
// b's memory traffic B-fold; the training forward is its caller, since
// inference runs one row at a time. Per output row the (k, scale-vs-saxpy)
// op sequence is exactly the i-outer form's — k still ascends, the first
// contributing k still assigns — so results are bit-identical row for row
// (TestDriversMatchScalarReference pins this).
func matMulRangeKOuter(dst, a, b *Matrix, lo, hi int) {
	var firstArr [64]bool
	var first []bool
	if hi-lo <= len(firstArr) {
		first = firstArr[:hi-lo]
	} else {
		first = make([]bool, hi-lo)
	}
	for i := range first {
		first[i] = true
	}
	// a's column k is strided, so a run's coefficients are gathered here
	// for axpyRows; the array stays on this frame.
	var coef [8]float64
	acols, dcols := a.Cols, dst.Cols
	ad, dd := a.Data, dst.Data
	for k := 0; k < b.Rows; k++ {
		brow := b.Row(k)
		for i := lo; i < hi; {
			av := ad[i*acols+k]
			if av == 0 {
				i++
				continue
			}
			if first[i-lo] {
				scale(av, brow, dst.Row(i))
				first[i-lo] = false
				i++
				continue
			}
			// A run of consecutive plain-accumulate rows (nonzero
			// coefficient, past their first k) shares a single streaming
			// pass over brow. Row grouping only changes the interleaving
			// ACROSS rows — each dst element still receives the identical
			// op at the identical k — so results stay bit-for-bit. In
			// steady state (dense activations) nearly every run is full.
			n := 0
			for n < len(coef) && i+n < hi && !first[i+n-lo] {
				c := ad[(i+n)*acols+k]
				if c == 0 {
					break
				}
				coef[n] = c
				n++
			}
			axpyRows(coef[:n], brow, dd[i*dcols:], dcols)
			i += n
		}
	}
	for i, f := range first {
		if f {
			drow := dst.Row(lo + i)
			for j := range drow {
				drow[j] = 0
			}
		}
	}
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
	dst.Zero()
	// Parallelize over dst rows (a columns); each worker reads all of a and
	// b but writes a disjoint dst stripe, so no synchronization is needed.
	if serialRows(a.Cols, a.Rows*a.Cols*b.Cols) {
		matMulTransARange(dst, a, b, 0, a.Cols)
		return
	}
	parallelRows(a.Cols, func(lo, hi int) { matMulTransARange(dst, a, b, lo, hi) })
}

func matMulTransARange(dst, a, b *Matrix, lo, hi int) {
	dcols, dd := dst.Cols, dst.Data
	for k := 0; k < a.Rows; k++ {
		arow := a.Row(k)
		brow := b.Row(k)
		// Consecutive dst rows are consecutive entries of arow, so each
		// run of nonzero coefficients is one grouped-row update.
		for i := lo; i < hi; {
			if arow[i] == 0 {
				i++
				continue
			}
			n := 1
			for i+n < hi && arow[i+n] != 0 {
				n++
			}
			axpyRows(arow[i:i+n], brow, dd[i*dcols:], dcols)
			i += n
		}
	}
}

// AddBias adds the bias vector to every row of m in place.
func AddBias(m *Matrix, bias []float64) {
	if len(bias) != m.Cols {
		panic("tensor: bias length mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, b := range bias {
			row[j] += b
		}
	}
}

// ColSums returns the per-column sums of m (bias gradients).
func ColSums(m *Matrix) []float64 {
	return ColSumsInto(make([]float64, m.Cols), m)
}

// ColSumsInto accumulates the per-column sums of m into dst (which is
// zeroed first) and returns it. The allocation-free form of ColSums for
// preallocated layer caches.
func ColSumsInto(dst []float64, m *Matrix) []float64 {
	if len(dst) != m.Cols {
		panic("tensor: ColSumsInto length mismatch")
	}
	for i := range dst {
		dst[i] = 0
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			dst[j] += v
		}
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

// Scale multiplies every element of x by alpha.
func Scale(alpha float64, x []float64) { scale(alpha, x, x) }

// Dot returns the inner product of x and y.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("tensor: Dot length mismatch")
	}
	var s float64
	for i, xv := range x {
		s += xv * y[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 { return math.Sqrt(Dot(x, x)) }
