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

// TestMatMulZeroAllocs holds the serial drivers to the stack: a batch
// forward is a rowMul per row, and the weight gradient hands mulTransA
// its row groups by value, so neither may allocate. The batch-1 layer
// passes of package nn, which every DL proposal runs, and the Adam step,
// whose coefficients the kernel reads through a pointer, are held to it
// too.
func TestMatMulZeroAllocs(t *testing.T) {
	src := rng.New(8)
	x1, x8, w := randomMatrix(1, 96, src), randomMatrix(8, 96, src), randomMatrix(96, 96, src)
	y1, y8, gw := tensor.NewMatrix(1, 96), tensor.NewMatrix(8, 96), tensor.NewMatrix(96, 96)
	dense, first := nn.NewDense(96, 96, src), nn.NewDense(65, 96, src)
	am, av := make([]float64, 96*96), make([]float64, 96*96)
	ones := []int{3, 5, 10, 12, 17, 22, 24, 30, 33, 36, 42, 47, 48, 53, 58, 63}
	for name, mul := range map[string]func(){
		"MatMul batch 1":        func() { tensor.MatMul(y1, x1, w) },
		"MatMul batch 8":        func() { tensor.MatMul(y8, x8, w) },
		"MatMulTransA":          func() { tensor.MatMulTransA(gw, x8, y8) },
		"MatMulTransB":          func() { tensor.MatMulTransB(y8, x8, w) },
		"Adam":                  func() { tensor.Adam(gw.Data, w.Data, am, av, 0.9, 0.999, 1e-3, 1e-8, 0.1, 0.001) },
		"Dense.Forward batch 1": func() { dense.Forward(x1) },
		"Dense.ForwardOneHot":   func() { first.ForwardOneHot(ones, 0.3) },
	} {
		if allocs := testing.AllocsPerRun(20, mul); allocs != 0 {
			t.Errorf("%s: %.1f allocations per call, want 0", name, allocs)
		}
	}
}
