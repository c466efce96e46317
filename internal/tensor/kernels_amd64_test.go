//go:build amd64 && !purego

package tensor

import (
	"math"
	"testing"

	"deepthermo/internal/rng"
)

// The tests below run every assembler body against its portable body on
// the same inputs and compare math.Float64bits over the whole backing
// array, guard elements included, so a lane that rounds differently, a
// tail that is skipped and a store past the end all fail.

// TestKernelPathLogged records which kernel bodies ran, so a CI log of
// `go test -v` shows whether the goldens were checked against the
// assembler or the portable loops (kernels_noasm_test.go is its twin).
func TestKernelPathLogged(t *testing.T) {
	if useAVX2 {
		t.Log("tensor kernels: AVX2 assembler")
	} else {
		t.Log("tensor kernels: portable Go (no AVX2 on this CPU or OS)")
	}
	if useFMA {
		t.Log("tensor exp/log/tanh: AVX2+FMA replay of the math package")
	} else {
		t.Log("tensor exp/log/tanh: math package (no AVX2+FMA on this CPU or OS)")
	}
}

func needAVX2(t *testing.T) {
	t.Helper()
	if !useAVX2 {
		t.Skip("no AVX2: the portable bodies are the only ones that run here")
	}
}

// edgeValues are the operands where a fused or reordered operation would
// show first: signed zeros, the smallest and largest denormals, the
// smallest normal, values whose product overflows, and infinities (whose
// products with zero and sums with each other are NaN).
var edgeValues = []float64{
	0, math.Copysign(0, -1), 1, -1,
	5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
	1e-160, -1e-160, 1e200, -1e200, math.MaxFloat64,
	math.Inf(1), math.Inf(-1),
}

// fillMixed writes ordinary normal draws with an edge value in about one
// slot of six.
func fillMixed(x []float64, src *rng.Source) { fillWith(x, src, edgeValues) }

func fillWith(x []float64, src *rng.Source, edge []float64) {
	for i := range x {
		if src.Intn(6) == 0 {
			x[i] = edge[src.Intn(len(edge))]
		} else {
			x[i] = src.NormFloat64()
		}
	}
}

// nanEdgeValues adds NaNs with distinct payloads to edgeValues. Go leaves
// open which operand's payload a NaN result keeps — of two NaN operands
// the hardware keeps the first source's, and which operand the compiler
// makes the first source differs from one statement to the next under
// -race — so tests that draw these compare with sameValues.
var nanEdgeValues = append(edgeValues[:len(edgeValues):len(edgeValues)],
	math.NaN(), math.Float64frombits(0x7ff8_0000_0000_0001), math.Float64frombits(0xfff8_0000_0000_0abc))

func TestSaxpyScaleAVX2MatchPortable(t *testing.T) {
	needAVX2(t)
	src := rng.New(11)
	const guard = 4
	xbuf := make([]float64, 130+3+guard)
	ybuf := make([]float64, 130+3+guard)
	got := make([]float64, len(ybuf))
	want := make([]float64, len(ybuf))
	alphas := append([]float64{0.37, -1.9e3}, edgeValues...)
	for n := 0; n <= 130; n++ {
		for ox := 0; ox < 4; ox++ {
			for oy := 0; oy < 4; oy++ {
				fillMixed(xbuf, src)
				fillMixed(ybuf, src)
				alpha := alphas[(n+ox+4*oy)%len(alphas)]
				x := xbuf[ox : ox+n]

				copy(got, ybuf)
				copy(want, ybuf)
				saxpyAVX2(alpha, x, got[oy:oy+n])
				saxpyGo(alpha, x, want[oy:oy+n])
				sameBits(t, got, want, "saxpy n=%d x+%d y+%d alpha=%g", n, ox, oy, alpha)

				copy(got, ybuf)
				copy(want, ybuf)
				scaleAVX2(alpha, x, got[oy:oy+n])
				scaleGo(alpha, x, want[oy:oy+n])
				sameBits(t, got, want, "scale n=%d x+%d y+%d alpha=%g", n, ox, oy, alpha)
			}
		}
		// In place, as Scale uses it.
		fillMixed(xbuf, src)
		copy(got, xbuf)
		copy(want, xbuf)
		scaleAVX2(alphas[n%len(alphas)], got[1:1+n], got[1:1+n])
		scaleGo(alphas[n%len(alphas)], want[1:1+n], want[1:1+n])
		sameBits(t, got, want, "scale in place n=%d", n)
	}
}

// TestMulTransAAVX2MatchesPortable covers the weight-gradient tiles: dst
// widths 1–17 (8- and 4-column tiles, the overlapping last 4, single
// columns) and 1–9 rows (repeated and overlapping row groups), plus the
// model's gradient shapes, at batch 1, 3 and 32. a is a strided stripe,
// as parallelRows hands it over, with one-hot rows of exact ±0 and 1
// beside dense rows; b draws ±0 and the edge values.
func TestMulTransAAVX2MatchesPortable(t *testing.T) {
	needAVX2(t)
	src := rng.New(15)
	const guard = 4
	shapes := [][2]int{{65, 96}, {96, 96}, {96, 12}, {7, 96}, {96, 64}}
	for rows := 1; rows <= 9; rows++ {
		for n := 1; n <= 17; n++ {
			shapes = append(shapes, [2]int{rows, n})
		}
	}
	for _, k := range []int{1, 3, 32} {
		for _, s := range shapes {
			rows, n := s[0], s[1]
			lda, oa := rows+(n+k)%3, (rows+n)%3
			abuf := make([]float64, oa+k*lda+guard)
			bbuf := make([]float64, n*k+guard)
			dbuf := make([]float64, rows*n+guard)
			fillMixed(abuf, src)
			for kk := 0; kk < k; kk++ {
				if kk%2 == 0 {
					for i := range abuf[oa+kk*lda : oa+(kk+1)*lda] {
						abuf[oa+kk*lda+i] = [3]float64{1, 0, math.Copysign(0, -1)}[src.Intn(3)]
					}
				}
			}
			fillMixed(bbuf, src)
			fillMixed(dbuf, src) // stale contents must be overwritten, not added to
			got := append([]float64(nil), dbuf...)
			want := append([]float64(nil), dbuf...)
			mulTransA(got, abuf[oa:], bbuf, rows, n, k, lda)
			mulTransAGo(want, abuf[oa:], bbuf, rows, n, k, lda)
			sameBits(t, got, want, "mulTransA rows=%d n=%d k=%d lda=%d", rows, n, k, lda)
		}
	}
}

// TestAdamAVX2MatchesPortable runs the vector Adam step against adamGo on
// lengths that end on every lane and cross mathChunk, with ±0 and the
// edge values in the gradient, over three steps' bias corrections.
func TestAdamAVX2MatchesPortable(t *testing.T) {
	needAVX2(t)
	src := rng.New(16)
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 13, 64, 97, mathChunk + 5, 2*mathChunk + 3} {
		val, grad := make([]float64, n), make([]float64, n)
		m, v := make([]float64, n), make([]float64, n)
		fillMixed(val, src)
		for i := range m {
			m[i], v[i] = src.NormFloat64(), math.Abs(src.NormFloat64())
		}
		gotVal, gotM, gotV := append([]float64(nil), val...), append([]float64(nil), m...), append([]float64(nil), v...)
		for step := 1; step <= 3; step++ {
			fillMixed(grad, src)
			for i := range grad {
				if src.Intn(5) == 0 {
					grad[i] = math.Copysign(0, float64(src.Intn(2))-0.5)
				}
			}
			h := &adamHyper{b1: 0.9, d1: 1 - 0.9, b2: 0.999, d2: 1 - 0.999, lr: 3e-3, eps: 1e-8,
				c1: 1 - math.Pow(0.9, float64(step)), c2: 1 - math.Pow(0.999, float64(step))}
			adam(gotVal, grad, gotM, gotV, h)
			adamGo(val, grad, m, v, h)
			sameBits(t, gotVal, val, "adam val n=%d step %d", n, step)
			sameBits(t, gotM, m, "adam m n=%d step %d", n, step)
			sameBits(t, gotV, v, "adam v n=%d step %d", n, step)
		}
	}
}

func TestMulTransBAVX2MatchesPortable(t *testing.T) {
	needAVX2(t)
	src := rng.New(13)
	const guard = 4
	dims := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 13, 20, 33} // 12 and up span several row bands
	ks := []int{0, 1, 2, 3, 4, 5, 7, 8, 11, 12, 13, 64, 65, 130}
	for _, rows := range dims {
		for _, n := range dims {
			for _, k := range ks {
				od, oa, ob := (rows+k)%4, (n+k)%4, (rows+n)%4
				dbuf := make([]float64, od+rows*n+guard)
				abuf := make([]float64, oa+rows*k+guard)
				bbuf := make([]float64, ob+n*k+guard)
				fillMixed(dbuf, src) // stale contents must be overwritten, not added to
				fillMixed(abuf, src)
				fillMixed(bbuf, src)
				got := append([]float64(nil), dbuf...)
				want := append([]float64(nil), dbuf...)
				// mulTransB, not mulTransBAVX2: the wrapper owns the k tail
				// and the fallback below four rows or columns.
				mulTransB(got[od:], abuf[oa:], bbuf[ob:], rows, n, k)
				mulTransBGo(want[od:], abuf[oa:], bbuf[ob:], rows, n, k)
				sameBits(t, got, want, "mulTransB rows=%d n=%d k=%d dst+%d a+%d b+%d", rows, n, k, od, oa, ob)
			}
		}
	}
}

// TestRowMulAVX2MatchesPortable runs the tiled batch-1 row kernel against
// rowMulGo over every k 0–130 and n 1–130, which crosses each tile width
// and every overlapping remainder. For each shape x's first nonzero entry
// sits first, in the middle and last, and x is once all zeros; zeros
// elsewhere are signed, and x and w draw the edge values and NaNs. One of
// the four also runs gathered, over ascending rows of a w up to twice as
// tall.
func TestRowMulAVX2MatchesPortable(t *testing.T) {
	needAVX2(t)
	src := rng.New(14)
	const guard = 4
	dbuf := make([]float64, 130+2*guard)
	got := make([]float64, len(dbuf))
	want := make([]float64, len(dbuf))
	x := make([]float64, 130)
	rows := make([]int, 130)
	w := make([]float64, (2*130+1)*130+guard)
	fillWith(w, src, nanEdgeValues)
	for k := 0; k <= 130; k++ {
		for n := 1; n <= 130; n++ {
			fillWith(dbuf, src, nanEdgeValues) // stale contents must be overwritten, not added to
			for pattern, firstNZ := range []int{0, k / 2, k - 1, k} {
				x := x[:k]
				fillWith(x, src, nanEdgeValues)
				for t := range x {
					if t < firstNZ || src.Intn(5) == 0 {
						x[t] = math.Copysign(0, float64(src.Intn(2))-0.5)
					}
				}
				if 0 <= firstNZ && firstNZ < k && x[firstNZ] == 0 {
					x[firstNZ] = -2.5
				}
				ow, od := src.Intn(n+guard), (k+n+firstNZ)%guard
				copy(got, dbuf)
				copy(want, dbuf)
				rowMul(got[od:od+n], x, nil, w[ow:])
				rowMulGo(want[od:od+n], x, nil, w[ow:])
				sameValues(t, got, want, "rowMul k=%d n=%d first nonzero %d dst+%d w+%d", k, n, firstNZ, od, ow)

				if pattern != (k+n)%4 {
					continue
				}
				rows := rows[:k]
				for t, r := 0, 0; t < k; t, r = t+1, r+1 {
					r += src.Intn(2)
					rows[t] = r
				}
				copy(got, dbuf)
				copy(want, dbuf)
				rowMul(got[od:od+n], x, rows, w[ow:])
				rowMulGo(want[od:od+n], x, rows, w[ow:])
				sameValues(t, got, want, "rowMul gathered k=%d n=%d first nonzero %d dst+%d w+%d", k, n, firstNZ, od, ow)
			}
		}
	}
}
