package tensor

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"deepthermo/internal/rng"
)

func randomMatrix(rows, cols int, src *rng.Source) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = src.NormFloat64()
	}
	return m
}

// naiveMatMul is the reference triple loop.
func naiveMatMul(a, b *Matrix) *Matrix {
	c := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			c.Set(i, j, s)
		}
	}
	return c
}

func matricesClose(t *testing.T, got, want *Matrix, tol float64) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("shape %dx%d vs %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range got.Data {
		if math.Abs(got.Data[i]-want.Data[i]) > tol {
			t.Fatalf("element %d: %g vs %g", i, got.Data[i], want.Data[i])
		}
	}
}

// sameBits requires got and want to agree in every bit of every element.
func sameBits(t *testing.T, got, want []float64, format string, args ...any) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf(format+": element %d is %x (%g), want %x (%g)",
				append(args, i, math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])...)
		}
	}
}

func TestMatMulMatchesNaive(t *testing.T) {
	src := rng.New(1)
	for _, dims := range [][3]int{{1, 1, 1}, {3, 5, 7}, {16, 16, 16}, {33, 7, 12}} {
		a := randomMatrix(dims[0], dims[1], src)
		b := randomMatrix(dims[1], dims[2], src)
		got := NewMatrix(dims[0], dims[2])
		MatMul(got, a, b)
		matricesClose(t, got, naiveMatMul(a, b), 1e-10)
	}
}

// parallelVsSerial runs mul into two drows×dcols matrices on a shape
// large enough to fan out — once as is, once on a single P, which forces
// the serial path — and requires identical bits: a row range
// changes which goroutine computes a row, never the row's operation
// order. rows and flops are what the driver hands to serialRows.
func parallelVsSerial(t *testing.T, rows, flops, drows, dcols int, mul func(dst *Matrix)) *Matrix {
	t.Helper()
	if runtime.GOMAXPROCS(0) >= 2 && serialRows(rows, flops) {
		t.Fatalf("%d rows, %d multiply-adds no longer reach the parallel path", rows, flops)
	}
	got, want := NewMatrix(drows, dcols), NewMatrix(drows, dcols)
	mul(got)
	prev := runtime.GOMAXPROCS(1)
	mul(want)
	runtime.GOMAXPROCS(prev)
	sameBits(t, got.Data, want.Data, "parallel against serial")
	return got
}

// TestMatMulParallelPath forces the goroutine fan-out path (large flops)
// and compares against the serial path and the naive result.
func TestMatMulParallelPath(t *testing.T) {
	src := rng.New(2)
	a := randomMatrix(160, 180, src)
	b := randomMatrix(180, 150, src)
	got := parallelVsSerial(t, 160, 160*180*150, 160, 150, func(dst *Matrix) { MatMul(dst, a, b) })
	matricesClose(t, got, naiveMatMul(a, b), 1e-9)

	w := randomMatrix(150, 180, src)
	parallelVsSerial(t, 160, 160*180*150, 160, 150, func(dst *Matrix) { MatMulTransB(dst, a, w) })
}

func TestMatMulTransB(t *testing.T) {
	src := rng.New(3)
	a := randomMatrix(7, 5, src)
	b := randomMatrix(9, 5, src) // bᵀ is 5×9
	got := NewMatrix(7, 9)
	MatMulTransB(got, a, b)
	bt := NewMatrix(5, 9)
	for i := 0; i < 9; i++ {
		for j := 0; j < 5; j++ {
			bt.Set(j, i, b.At(i, j))
		}
	}
	matricesClose(t, got, naiveMatMul(a, bt), 1e-10)
}

func TestMatMulTransA(t *testing.T) {
	src := rng.New(4)
	a := randomMatrix(6, 8, src) // aᵀ is 8×6
	b := randomMatrix(6, 5, src)
	got := NewMatrix(8, 5)
	MatMulTransA(got, a, b)
	at := NewMatrix(8, 6)
	for i := 0; i < 6; i++ {
		for j := 0; j < 8; j++ {
			at.Set(j, i, a.At(i, j))
		}
	}
	matricesClose(t, got, naiveMatMul(at, b), 1e-10)
}

func TestMatMulTransALargeParallel(t *testing.T) {
	src := rng.New(5)
	a := randomMatrix(128, 200, src)
	b := randomMatrix(128, 180, src)
	got := parallelVsSerial(t, 200, 128*200*180, 200, 180, func(dst *Matrix) { MatMulTransA(dst, a, b) })
	at := NewMatrix(200, 128)
	for i := 0; i < 128; i++ {
		for j := 0; j < 200; j++ {
			at.Set(j, i, a.At(i, j))
		}
	}
	matricesClose(t, got, naiveMatMul(at, b), 1e-9)
}

func TestShapePanics(t *testing.T) {
	a := NewMatrix(2, 3)
	b := NewMatrix(4, 5)
	c := NewMatrix(2, 5)
	for name, fn := range map[string]func(){
		"MatMul":       func() { MatMul(c, a, b) },
		"MatMulTransB": func() { MatMulTransB(c, a, b) },
		"MatMulTransA": func() { MatMulTransA(c, a, b) },
		"AddBias":      func() { AddBias(a, []float64{1}) },
		"Hadamard":     func() { Hadamard(c, a, b) },
		"Apply":        func() { Apply(c, a, math.Abs) },
		"Axpy":         func() { Axpy(1, []float64{1}, []float64{1, 2}) },
		"Dot":          func() { Dot([]float64{1}, []float64{1, 2}) },
		"FromSlice":    func() { FromSlice(2, 2, []float64{1}) },
		"NewMatrix":    func() { NewMatrix(-1, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: shape mismatch did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestAddBiasAndColSums(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	AddBias(m, []float64{10, 20, 30})
	want := []float64{11, 22, 33, 14, 25, 36}
	for i, v := range want {
		if m.Data[i] != v {
			t.Fatalf("AddBias: %v", m.Data)
		}
	}
	sums := ColSums(m)
	if sums[0] != 25 || sums[1] != 47 || sums[2] != 69 {
		t.Fatalf("ColSums = %v", sums)
	}
}

func TestApplyHadamard(t *testing.T) {
	a := FromSlice(1, 3, []float64{-1, 2, -3})
	b := FromSlice(1, 3, []float64{2, 3, 4})
	out := NewMatrix(1, 3)
	Apply(out, a, math.Abs)
	if out.Data[0] != 1 || out.Data[2] != 3 {
		t.Fatalf("Apply: %v", out.Data)
	}
	Hadamard(out, a, b)
	if out.Data[0] != -2 || out.Data[1] != 6 || out.Data[2] != -12 {
		t.Fatalf("Hadamard: %v", out.Data)
	}
	// Aliasing allowed.
	Apply(a, a, func(v float64) float64 { return v * 2 })
	if a.Data[0] != -2 {
		t.Fatal("aliased Apply failed")
	}
}

func TestBlas1(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	Axpy(2, x, y)
	if y[0] != 6 || y[1] != 9 || y[2] != 12 {
		t.Fatalf("Axpy: %v", y)
	}
	if d := Dot(x, x); d != 14 {
		t.Fatalf("Dot = %g", d)
	}
	if n := Norm2([]float64{3, 4}); math.Abs(n-5) > 1e-12 {
		t.Fatalf("Norm2 = %g", n)
	}
	Scale(0.5, y)
	if y[0] != 3 {
		t.Fatalf("Scale: %v", y)
	}
}

func TestCloneRowZero(t *testing.T) {
	m := FromSlice(2, 2, []float64{1, 2, 3, 4})
	c := m.Clone()
	c.Data[0] = 99
	if m.Data[0] != 1 {
		t.Error("Clone shares storage")
	}
	r := m.Row(1)
	if r[0] != 3 || r[1] != 4 {
		t.Errorf("Row = %v", r)
	}
	m.Zero()
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("Zero failed")
		}
	}
}

// TestMatMulLinearity: (αA)·B = α(A·B) — a cheap algebraic property check
// over random shapes.
func TestMatMulLinearity(t *testing.T) {
	src := rng.New(6)
	err := quick.Check(func(r1, c1, c2 uint8) bool {
		m, k, n := int(r1)%6+1, int(c1)%6+1, int(c2)%6+1
		a := randomMatrix(m, k, src)
		b := randomMatrix(k, n, src)
		ab := NewMatrix(m, n)
		MatMul(ab, a, b)
		a2 := a.Clone()
		Scale(3, a2.Data)
		ab2 := NewMatrix(m, n)
		MatMul(ab2, a2, b)
		for i := range ab.Data {
			if math.Abs(ab2.Data[i]-3*ab.Data[i]) > 1e-9 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

// sparseRows fills m so that the drivers' per-row cases all occur: rows
// that are all zero, rows whose first nonzero coefficient sits at k = 0,
// 1 or the last k, rows with scattered exact zeros, and dense rows.
func sparseRows(m *Matrix, src *rng.Source) {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for k := range row {
			row[k] = src.NormFloat64()
		}
		switch src.Intn(6) {
		case 0:
			clear(row)
		case 1:
			clear(row[:1])
		case 2:
			clear(row[:len(row)-1])
		case 3:
			for k := range row {
				if src.Intn(3) == 0 {
					row[k] = 0
				}
			}
		}
	}
}

// TestDriversMatchScalarReference pins the three matmul drivers, bit for
// bit, to scalar loops that spell out each dst element's operation
// sequence: MatMul assigns at the first nonzero a[i][k] and accumulates
// at later ones in ascending k (a row with none is zero), MatMulTransA
// accumulates onto zero skipping zero coefficients, MatMulTransB sums
// every k from zero. The i-outer, k-outer and row-run groupings may only
// change which elements are updated together, never an element's own
// sequence.
func TestDriversMatchScalarReference(t *testing.T) {
	src := rng.New(7)
	for rows := 1; rows <= 19; rows++ {
		for _, k := range []int{1, 2, 5, 12} {
			for _, n := range []int{1, 4, 7, 21} {
				a, b := NewMatrix(rows, k), randomMatrix(k, n, src)
				sparseRows(a, src)
				got, want := randomMatrix(rows, n, src), NewMatrix(rows, n)
				for i := 0; i < rows; i++ {
					for j := 0; j < n; j++ {
						var s float64
						first := true
						for kk := 0; kk < k; kk++ {
							switch av := a.At(i, kk); {
							case av == 0:
							case first:
								s, first = av*b.At(kk, j), false
							default:
								s += av * b.At(kk, j)
							}
						}
						want.Set(i, j, s)
					}
				}
				MatMul(got, a, b)
				sameBits(t, got.Data, want.Data, "MatMul %dx%d·%d", rows, k, n)

				// aᵀ·g with a as the (sparse) layer input: dst is k×n.
				g := randomMatrix(rows, n, src)
				got, want = randomMatrix(k, n, src), NewMatrix(k, n)
				for kk := 0; kk < rows; kk++ {
					for i := 0; i < k; i++ {
						if av := a.At(kk, i); av != 0 {
							for j := 0; j < n; j++ {
								want.Data[i*n+j] += av * g.At(kk, j)
							}
						}
					}
				}
				MatMulTransA(got, a, g)
				sameBits(t, got.Data, want.Data, "MatMulTransA (%dx%d)ᵀ·%d", rows, k, n)

				// a·wᵀ with w n×k: dst is rows×n.
				w := randomMatrix(n, k, src)
				got, want = randomMatrix(rows, n, src), NewMatrix(rows, n)
				for i := 0; i < rows; i++ {
					for j := 0; j < n; j++ {
						var s float64
						for kk := 0; kk < k; kk++ {
							s += a.At(i, kk) * w.At(j, kk)
						}
						want.Set(i, j, s)
					}
				}
				MatMulTransB(got, a, w)
				sameBits(t, got.Data, want.Data, "MatMulTransB %dx%d·(%dx%d)ᵀ", rows, k, n, k)
			}
		}
	}
}

// TestMatMulZeroAllocs holds the serial drivers to the stack: the first-k
// flags and the coefficient array the k-outer driver hands to axpyRows
// must not escape through the kernel call.
func TestMatMulZeroAllocs(t *testing.T) {
	src := rng.New(8)
	x1, x8, w := randomMatrix(1, 96, src), randomMatrix(8, 96, src), randomMatrix(96, 96, src)
	y1, y8, gw := NewMatrix(1, 96), NewMatrix(8, 96), NewMatrix(96, 96)
	for name, mul := range map[string]func(){
		"MatMul batch 1": func() { MatMul(y1, x1, w) },
		"MatMul batch 8": func() { MatMul(y8, x8, w) },
		"MatMulTransA":   func() { MatMulTransA(gw, x8, y8) },
		"MatMulTransB":   func() { MatMulTransB(y8, x8, w) },
	} {
		if allocs := testing.AllocsPerRun(20, mul); allocs != 0 {
			t.Errorf("%s: %.1f allocations per call, want 0", name, allocs)
		}
	}
}

// benchShapes are batch × k · k × n products: the three batch-1 layer
// shapes of the benchmarked model (65 → 96 → 96 encoder, 96 → 64 decoder
// head), a batch-8 product, its batch-32 training step, and two
// larger products, twice and sixteen times parallelThreshold.
var benchShapes = [][3]int{
	{1, 65, 96}, {1, 96, 96}, {1, 96, 64}, {8, 96, 96}, {32, 96, 96},
	{64, 256, 256}, {128, 512, 512},
}

// benchMul times mul(dst, x, y) and reports GFLOP/s at 2 flops per
// multiply-add.
func benchMul(b *testing.B, macs int, mul func(dst, x, y *Matrix), dst, x, y *Matrix) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mul(dst, x, y)
	}
	b.ReportMetric(2*float64(macs)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

func BenchmarkMatMul(b *testing.B) {
	for _, s := range benchShapes {
		m, k, n := s[0], s[1], s[2]
		b.Run(fmt.Sprintf("%dx%d·%d", m, k, n), func(b *testing.B) {
			src := rng.New(1)
			benchMul(b, m*k*n, MatMul, NewMatrix(m, n), randomMatrix(m, k, src), randomMatrix(k, n, src))
		})
	}
}

// BenchmarkMatMulTransA is the weight gradient xᵀ·g of a batch-32 step.
func BenchmarkMatMulTransA(b *testing.B) {
	for _, s := range [][2]int{{65, 96}, {96, 96}, {96, 64}} {
		in, out := s[0], s[1]
		b.Run(fmt.Sprintf("32x%dᵀ·%d", in, out), func(b *testing.B) {
			src := rng.New(1)
			benchMul(b, 32*in*out, MatMulTransA, NewMatrix(in, out), randomMatrix(32, in, src), randomMatrix(32, out, src))
		})
	}
}

// BenchmarkMatMulTransB is the input gradient g·Wᵀ of a batch-32 step.
func BenchmarkMatMulTransB(b *testing.B) {
	for _, s := range [][2]int{{65, 96}, {96, 96}, {96, 64}} {
		in, out := s[0], s[1]
		b.Run(fmt.Sprintf("32x%d·%dᵀ", out, in), func(b *testing.B) {
			src := rng.New(1)
			benchMul(b, 32*in*out, MatMulTransB, NewMatrix(32, in), randomMatrix(32, out, src), randomMatrix(in, out, src))
		})
	}
}
