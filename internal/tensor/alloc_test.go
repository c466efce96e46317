package tensor_test

import (
	"testing"

	"deepthermo/internal/nn"
	"deepthermo/internal/rng"
	"deepthermo/internal/tensor"
)

func randomMatrix(rows, cols int, src *rng.Source) *tensor.Matrix {
	m := tensor.NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = src.NormFloat64()
	}
	return m
}

// TestMatMulZeroAllocs holds the serial drivers to the stack: the first-k
// flags and the coefficient array the k-outer driver hands to axpyRows
// must not escape through the kernel call. The batch-1 layer passes of
// package nn, which every DL proposal runs, are held to it too.
func TestMatMulZeroAllocs(t *testing.T) {
	src := rng.New(8)
	x1, x8, w := randomMatrix(1, 96, src), randomMatrix(8, 96, src), randomMatrix(96, 96, src)
	y1, y8, gw := tensor.NewMatrix(1, 96), tensor.NewMatrix(8, 96), tensor.NewMatrix(96, 96)
	dense, first := nn.NewDense(96, 96, src), nn.NewDense(65, 96, src)
	ones := []int{3, 5, 10, 12, 17, 22, 24, 30, 33, 36, 42, 47, 48, 53, 58, 63}
	for name, mul := range map[string]func(){
		"MatMul batch 1":        func() { tensor.MatMul(y1, x1, w) },
		"MatMul batch 8":        func() { tensor.MatMul(y8, x8, w) },
		"MatMulTransA":          func() { tensor.MatMulTransA(gw, x8, y8) },
		"MatMulTransB":          func() { tensor.MatMulTransB(y8, x8, w) },
		"Dense.Forward batch 1": func() { dense.Forward(x1) },
		"Dense.ForwardOneHot":   func() { first.ForwardOneHot(ones, 0.3) },
	} {
		if allocs := testing.AllocsPerRun(20, mul); allocs != 0 {
			t.Errorf("%s: %.1f allocations per call, want 0", name, allocs)
		}
	}
}
