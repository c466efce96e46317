//go:build amd64 && !purego

package tensor

// useAVX2 is decided once, at package init: the CPU implements AVX2 and
// the operating system saves the YMM state. Without it the primitives are
// the portable bodies, exactly as on other architectures.
var useAVX2 = detectAVX2()

// useFMA selects the transcendental bodies: AVX2 for the vector integer
// steps, and FMA, which is what makes math.Exp take the fused path they
// replay (math's own test is AVX && FMA, both implied here).
var useFMA = useAVX2 && detectFMA()

func detectFMA() bool {
	const fma = 1 << 12
	_, _, ecx, _ := cpuid(1, 0)
	return ecx&fma != 0
}

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	const xmmState, ymmState = 1 << 1, 1 << 2
	if xcr0, _ := xgetbv(); xcr0&(xmmState|ymmState) != xmmState|ymmState {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// The assembler bodies trust their lengths; the wrappers below do the
// bounds checks the Go loops would have done. noescape keeps adam's
// coefficients on the caller's stack. An assembler call cannot be
// preempted, so none is handed a whole batch: mulTransB calls
// mulTransBAVX2 a band of rows at a time — at most 11 rows × n·k
// multiply-adds at about 10 per ns, 10 µs at the model's 96×96 and 0.3 ms
// at 512×512 — mulTransA four dst rows (4·n·k, 1.5 µs at the model's 96
// columns and batch 32), and rowMul one column tile of rowMulAVX2, at most
// 48·k (0.5 µs at k = 96). adam, exp, log and tanh hand the assembler at
// most mathChunk elements a call.

//go:noescape
func saxpyAVX2(alpha float64, x, y []float64)

//go:noescape
func scaleAVX2(alpha float64, x, y []float64)

// mulTransAAVX2 computes dst rows r0..r3 of mulTransAGo's block (a row
// index may repeat, rewriting the same bits) in tiles of 4 rows × 8, then
// 4, columns, the last 4-column tile overlapping its neighbour; a block
// narrower than 4 columns runs 4 rows × 1.
//
//go:noescape
func mulTransAAVX2(dst, a, b []float64, k, lda, n, r0, r1, r2, r3 int)

// adamAVX2 is adamGo over len(val)&^3 elements.
//
//go:noescape
func adamAVX2(val, grad, m, v []float64, h *adamHyper)

// mulTransBAVX2 computes dst = a·bᵀ over k&^3 in 4×4 tiles, the last tile
// of a row or column overlapping its neighbour. It needs rows, n >= 4.
//
//go:noescape
func mulTransBAVX2(dst, a, b []float64, rows, n, k int)

// rowMulAVX2 is rowMulGo over one tile of len(dst) = 48, 16, 12, 8, 4
// or 1 columns; w starts at the tile's first column and its rows lie stride
// apart.
//
//go:noescape
func rowMulAVX2(dst, x []float64, rows []int, w []float64, stride int)

// expAVX2, logAVX2 and tanhAVX2 write dst[j] = f(x[j]) for whole groups
// of four (len(x) a multiple of four) and return how many elements they
// wrote: all of them, or up to the first group with a lane outside the
// replay's fast path, which they leave unwritten.
//
//go:noescape
func expAVX2(dst, x []float64) int

//go:noescape
func logAVX2(dst, x []float64) int

//go:noescape
func tanhAVX2(dst, x []float64) int

// mulTransBBand is how many rows mulTransB hands the assembler at a time.
// Banding costs nothing measurable: 32×96·96ᵀ runs in 25 µs (best of six
// alternating runs) as four bands of 8, two of 16 or one call.
const mulTransBBand = 8

func saxpy(alpha float64, x, y []float64) {
	if !useAVX2 {
		saxpyGo(alpha, x, y)
		return
	}
	saxpyAVX2(alpha, x, y[:len(x)])
}

func scale(alpha float64, x, y []float64) {
	if !useAVX2 {
		scaleGo(alpha, x, y)
		return
	}
	scaleAVX2(alpha, x, y[:len(x)])
}

func mulTransA(dst, a, b []float64, rows, n, k, lda int) {
	if !useAVX2 || rows == 0 || n == 0 || k == 0 {
		mulTransAGo(dst, a, b, rows, n, k, lda)
		return
	}
	dst, a, b = dst[:rows*n], a[:(k-1)*lda+rows], b[:k*n]
	// Four dst rows a call; the last group moves back to overlap its
	// neighbour, and a block of fewer than four rows repeats its last.
	for i := 0; i < rows; i += 4 {
		i = max(min(i, rows-4), 0)
		mulTransAAVX2(dst, a, b, k, lda, n, i, min(i+1, rows-1), min(i+2, rows-1), min(i+3, rows-1))
	}
}

func adam(val, grad, m, v []float64, h *adamHyper) {
	n := len(val)
	grad, m, v = grad[:n], m[:n], v[:n]
	i := 0
	if useAVX2 {
		for n4 := n &^ 3; i < n4; {
			end := min(i+mathChunk, n4)
			adamAVX2(val[i:end], grad[i:end], m[i:end], v[i:end], h)
			i = end
		}
	}
	adamGo(val[i:], grad[i:], m[i:], v[i:], h)
}

func mulTransB(dst, a, b []float64, rows, n, k int) {
	if !useAVX2 || rows < 4 || n < 4 {
		mulTransBGo(dst, a, b, rows, n, k)
		return
	}
	dst, a, b = dst[:rows*n], a[:rows*k], b[:n*k]
	// One assembler call per band of rows, so the stretch the scheduler
	// cannot preempt grows with n·k, not with the batch. The last band
	// takes up to three extra rows rather than leave fewer than a tile.
	for lo, hi := 0, 0; lo < rows; lo = hi {
		hi = lo + mulTransBBand
		if rows-hi < 4 {
			hi = rows
		}
		mulTransBAVX2(dst[lo*n:hi*n], a[lo*k:hi*k], b, hi-lo, n, k)
	}
	k4 := k &^ 3
	if k4 == k {
		return
	}
	// The assembler stopped at the last whole group of four k; a stored
	// partial sum reloads exactly, so finishing it here keeps every
	// element's additions in ascending k.
	for i := 0; i < rows; i++ {
		arow := a[i*k : (i+1)*k]
		for j := 0; j < n; j++ {
			brow := b[j*k : (j+1)*k]
			s := dst[i*n+j]
			for kk := k4; kk < k; kk++ {
				s += float64(arow[kk] * brow[kk])
			}
			dst[i*n+j] = s
		}
	}
}

func rowMul(dst, x []float64, rows []int, w []float64) {
	n := len(dst)
	if !useAVX2 || n == 0 || len(x) == 0 {
		rowMulGo(dst, x, rows, w)
		return
	}
	if rows == nil {
		_ = w[:len(x)*n]
	} else {
		rows = rows[:len(x)]
		for _, r := range rows {
			_ = w[r*n : r*n+n]
		}
	}
	// Column tiles of 48, then 16, then one of 12, 8 or 4, then single
	// columns. A remainder narrower than the tile before it is covered by
	// one tile moved back to overlap its neighbour: dst is assigned, not
	// accumulated, so the overlap rewrites the same bits, and a wide tile
	// keeps several addition chains in flight where narrow ones would each
	// wait on one.
	for j := 0; j < n; {
		width := 48
		switch rest := n - j; {
		case rest >= 48:
		case rest >= 16:
			width = 16
		case n >= 16:
			width, j = 16, n-16
		case rest >= 4:
			width = rest &^ 3
		case n >= 4:
			width, j = 4, n-4
		default:
			width = 1
		}
		rowMulAVX2(dst[j:j+width], x, rows, w[j:], n)
		j += width
	}
}

// mathChunk bounds the elements one transcendental assembler call covers:
// 512 tanh take about 3 µs.
const mathChunk = 512

func exp(dst, x []float64)  { vmath(opExp, dst, x) }
func log(dst, x []float64)  { vmath(opLog, dst, x) }
func tanh(dst, x []float64) { vmath(opTanh, dst, x) }

type mathOp int

const (
	opExp mathOp = iota
	opLog
	opTanh
)

// vmath runs op's assembler body over x's whole groups of four, at most
// mathChunk elements a call. A group the body refuses, and a tail of
// fewer than four, go to the portable body. op is a constant, not a func
// value, so dst and x do not escape.
func vmath(op mathOp, dst, x []float64) {
	if !useFMA {
		op.portable(dst, x)
		return
	}
	dst = dst[:len(x)]
	i := 0
	for n4 := len(x) &^ 3; i < n4; {
		end := min(i+mathChunk, n4)
		i += op.avx2(dst[i:end], x[i:end])
		if i < end {
			op.portable(dst[i:i+4], x[i:i+4])
			i += 4
		}
	}
	op.portable(dst[i:], x[i:])
}

func (op mathOp) avx2(dst, x []float64) int {
	switch op {
	case opExp:
		return expAVX2(dst, x)
	case opLog:
		return logAVX2(dst, x)
	default:
		return tanhAVX2(dst, x)
	}
}

func (op mathOp) portable(dst, x []float64) {
	switch op {
	case opExp:
		expGo(dst, x)
	case opLog:
		logGo(dst, x)
	default:
		tanhGo(dst, x)
	}
}
