package tensor_test

import (
	"testing"

	"deepthermo/internal/lattice"
	"deepthermo/internal/nn"
	"deepthermo/internal/rng"
	"deepthermo/internal/tensor"
	"deepthermo/internal/vae"
)

func randomMatrix(rows, cols int, src *rng.Source) *tensor.Matrix {
	m := tensor.NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = src.NormFloat64()
	}
	return m
}

// TestMatMulZeroAllocs holds the drivers to the stack, serial or fanned
// out: a batch forward is a rowMul per row, the weight gradient hands
// mulTransA its row groups by value, and a fan-out writes the helper's
// one job slot instead of building a closure, so none may allocate. The
// batch-1 layer passes of package nn, which every DL proposal runs, a
// whole-model Adam step, whose coefficients the kernel reads through a
// pointer, and a steady-state training step of the benchmarked model are
// held to it too. The batch-32 rows fan out when GOMAXPROCS is 2 or more;
// run it at -cpu 1,2 to cover both paths.
func TestMatMulZeroAllocs(t *testing.T) {
	src := rng.New(8)
	x1, x8, x32, w := randomMatrix(1, 96, src), randomMatrix(8, 96, src), randomMatrix(32, 96, src), randomMatrix(96, 96, src)
	y1, y8, y32, gw := tensor.NewMatrix(1, 96), tensor.NewMatrix(8, 96), tensor.NewMatrix(32, 96), tensor.NewMatrix(96, 96)
	dense, first := nn.NewDense(96, 96, src), nn.NewDense(65, 96, src)
	ones := []int{3, 5, 10, 12, 17, 22, 24, 30, 33, 36, 42, 47, 48, 53, 58, 63}

	model, err := vae.New(vae.Config{Sites: 16, Species: 4, Latent: 6, Hidden: 96, BetaKL: 1}, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	params := model.Params()
	for _, p := range params {
		for i := range p.Grad {
			p.Grad[i] = 1e-3 * src.NormFloat64()
		}
	}
	opt := nn.NewAdam(1e-3)
	batch, cond, targets := tensor.NewMatrix(32, 64), make([]float64, 32), make([]lattice.Config, 32)
	for i := range targets {
		targets[i] = make(lattice.Config, 16)
		for s := range targets[i] {
			targets[i][s] = uint8(src.Intn(4))
		}
		model.OneHot(targets[i], batch.Row(i))
		cond[i] = src.Float64()
	}
	stepSrc := rng.New(10)

	for name, mul := range map[string]func(){
		"MatMul batch 1":        func() { tensor.MatMul(y1, x1, w) },
		"MatMul batch 8":        func() { tensor.MatMul(y8, x8, w) },
		"MatMul batch 32":       func() { tensor.MatMul(y32, x32, w) },
		"MatMulTransA batch 8":  func() { tensor.MatMulTransA(gw, x8, y8) },
		"MatMulTransA batch 32": func() { tensor.MatMulTransA(gw, x32, y32) },
		"MatMulTransB batch 8":  func() { tensor.MatMulTransB(y8, x8, w) },
		"MatMulTransB batch 32": func() { tensor.MatMulTransB(y32, x32, w) },
		"Tanh batch 32":         func() { tensor.Tanh(y32, x32) },
		"nn.Adam.Step":          func() { opt.Step(params) },
		"vae.Model.Step":        func() { nn.ZeroGrads(params); model.Step(batch, cond, targets, stepSrc) },
		"Dense.Forward batch 1": func() { dense.Forward(x1) },
		"Dense.ForwardOneHot":   func() { first.ForwardOneHot(ones, 0.3) },
	} {
		if allocs := testing.AllocsPerRun(20, mul); allocs != 0 {
			t.Errorf("%s: %.1f allocations per call, want 0", name, allocs)
		}
	}
}
