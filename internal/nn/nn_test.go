package nn

import (
	"math"
	"testing"

	"deepthermo/internal/rng"
	"deepthermo/internal/tensor"
)

// mseLossAndGrad returns ½‖y−target‖² summed over the batch and its
// gradient with respect to y.
func mseLossAndGrad(y, target *tensor.Matrix) (float64, *tensor.Matrix) {
	var loss float64
	grad := tensor.NewMatrix(y.Rows, y.Cols)
	for i := range y.Data {
		d := y.Data[i] - target.Data[i]
		loss += 0.5 * d * d
		grad.Data[i] = d
	}
	return loss, grad
}

// TestDenseGradients checks every Dense parameter gradient against central
// finite differences through a two-layer network — the canonical backprop
// correctness test.
func TestDenseGradients(t *testing.T) {
	for _, act := range []ActivationKind{Tanh, ReLU, Sigmoid} {
		src := rng.New(1)
		net := NewSequential(
			NewDense(4, 6, src),
			NewActivation(act),
			NewDense(6, 3, src),
		)
		x := tensor.NewMatrix(5, 4)
		target := tensor.NewMatrix(5, 3)
		for i := range x.Data {
			x.Data[i] = src.NormFloat64()
		}
		for i := range target.Data {
			target.Data[i] = src.NormFloat64()
		}

		loss := func() float64 {
			y := net.Forward(x)
			l, _ := mseLossAndGrad(y, target)
			return l
		}

		params := net.Params()
		ZeroGrads(params)
		y := net.Forward(x)
		_, grad := mseLossAndGrad(y, target)
		net.Backward(grad)

		const h = 1e-6
		for pi, p := range params {
			for j := 0; j < len(p.Value); j += 7 { // spot check every 7th
				orig := p.Value[j]
				p.Value[j] = orig + h
				lPlus := loss()
				p.Value[j] = orig - h
				lMinus := loss()
				p.Value[j] = orig
				fd := (lPlus - lMinus) / (2 * h)
				if math.Abs(fd-p.Grad[j]) > 1e-4*(1+math.Abs(fd)) {
					t.Errorf("act %d param %d[%d]: backprop %g vs fd %g", act, pi, j, p.Grad[j], fd)
				}
			}
		}
	}
}

// TestInputGradient checks ∂L/∂x against finite differences.
func TestInputGradient(t *testing.T) {
	src := rng.New(2)
	net := NewSequential(NewDense(3, 5, src), NewActivation(Tanh), NewDense(5, 2, src))
	x := tensor.NewMatrix(2, 3)
	target := tensor.NewMatrix(2, 2)
	for i := range x.Data {
		x.Data[i] = src.NormFloat64()
	}
	ZeroGrads(net.Params())
	y := net.Forward(x)
	_, grad := mseLossAndGrad(y, target)
	gx := net.Backward(grad)

	const h = 1e-6
	for j := range x.Data {
		orig := x.Data[j]
		x.Data[j] = orig + h
		lp, _ := mseLossAndGrad(net.Forward(x), target)
		x.Data[j] = orig - h
		lm, _ := mseLossAndGrad(net.Forward(x), target)
		x.Data[j] = orig
		fd := (lp - lm) / (2 * h)
		if math.Abs(fd-gx.Data[j]) > 1e-4*(1+math.Abs(fd)) {
			t.Errorf("input grad [%d]: %g vs fd %g", j, gx.Data[j], fd)
		}
	}
}

func TestGradientAccumulation(t *testing.T) {
	src := rng.New(3)
	d := NewDense(2, 2, src)
	x := tensor.FromSlice(1, 2, []float64{1, 2})
	g := tensor.FromSlice(1, 2, []float64{1, 1})
	d.Forward(x)
	d.Backward(g)
	first := append([]float64(nil), d.Params()[0].Grad...)
	d.Forward(x)
	d.Backward(g)
	for i, v := range d.Params()[0].Grad {
		if math.Abs(v-2*first[i]) > 1e-12 {
			t.Fatal("gradients do not accumulate")
		}
	}
	ZeroGrads(d.Params())
	for _, v := range d.Params()[0].Grad {
		if v != 0 {
			t.Fatal("ZeroGrads failed")
		}
	}
}

// TestBackwardParamsMatchesBackward holds Sequential.BackwardParams to
// Backward's parameter gradients, bit for bit, and checks that it leaves
// the first layer's input gradient uncomputed.
func TestBackwardParamsMatchesBackward(t *testing.T) {
	src := rng.New(4)
	net := NewSequential(NewDense(5, 7, src), NewActivation(Tanh), NewDense(7, 3, src))
	x, g := tensor.NewMatrix(6, 5), tensor.NewMatrix(6, 3)
	for i := range x.Data {
		x.Data[i] = src.NormFloat64()
	}
	for i := range g.Data {
		g.Data[i] = src.NormFloat64()
	}
	net.Forward(x)
	net.Backward(g)
	want := FlattenGrads(net.Params(), nil)
	fresh := NewSequential(NewDense(5, 7, rng.New(0)), NewActivation(Tanh), NewDense(7, 3, rng.New(0)))
	SetValues(fresh.Params(), FlattenValues(net.Params(), nil))
	fresh.Forward(x)
	fresh.BackwardParams(g)
	for i, v := range FlattenGrads(fresh.Params(), nil) {
		if math.Float64bits(v) != math.Float64bits(want[i]) {
			t.Fatalf("gradient %d: %v, Backward gives %v", i, v, want[i])
		}
	}
	if fresh.Layers[0].(*Dense).gx != nil {
		t.Error("BackwardParams computed the input gradient")
	}
}

func TestSGDConvergesOnQuadratic(t *testing.T) {
	// Minimize ‖Wx−b‖² for fixed x: a linear least squares SGD sanity run.
	src := rng.New(4)
	d := NewDense(3, 2, src)
	x := tensor.FromSlice(4, 3, []float64{1, 0, 0, 0, 1, 0, 0, 0, 1, 1, 1, 1})
	target := tensor.FromSlice(4, 2, []float64{1, 2, 3, 4, 5, 6, 9, 12})
	opt := NewSGD(0.05, 0.9)
	var last float64
	for it := 0; it < 500; it++ {
		ZeroGrads(d.Params())
		y := d.Forward(x)
		l, g := mseLossAndGrad(y, target)
		d.Backward(g)
		opt.Step(d.Params())
		last = l
	}
	if last > 1e-3 {
		t.Errorf("SGD failed to converge: loss %g", last)
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	src := rng.New(5)
	d := NewDense(3, 2, src)
	x := tensor.FromSlice(4, 3, []float64{1, 0, 0, 0, 1, 0, 0, 0, 1, 1, 1, 1})
	target := tensor.FromSlice(4, 2, []float64{1, 2, 3, 4, 5, 6, 9, 12})
	opt := NewAdam(0.05)
	var last float64
	for it := 0; it < 800; it++ {
		ZeroGrads(d.Params())
		y := d.Forward(x)
		l, g := mseLossAndGrad(y, target)
		d.Backward(g)
		opt.Step(d.Params())
		last = l
	}
	if last > 1e-3 {
		t.Errorf("Adam failed to converge: loss %g", last)
	}
}

func TestClipGradNorm(t *testing.T) {
	p := []Param{{Value: make([]float64, 2), Grad: []float64{3, 4}}}
	norm := ClipGradNorm(p, 1)
	if math.Abs(norm-5) > 1e-12 {
		t.Errorf("pre-clip norm = %g", norm)
	}
	if got := math.Hypot(p[0].Grad[0], p[0].Grad[1]); math.Abs(got-1) > 1e-12 {
		t.Errorf("post-clip norm = %g", got)
	}
	// Below the threshold: untouched.
	p[0].Grad = []float64{0.1, 0.1}
	ClipGradNorm(p, 1)
	if p[0].Grad[0] != 0.1 {
		t.Error("clip modified small gradient")
	}
}

func TestFlattenSetRoundTrip(t *testing.T) {
	src := rng.New(6)
	net := NewSequential(NewDense(3, 4, src), NewActivation(Tanh), NewDense(4, 2, src))
	ps := net.Params()
	n := NumParams(ps)
	if n != 3*4+4+4*2+2 {
		t.Fatalf("NumParams = %d", n)
	}
	vals := FlattenValues(ps, nil)
	// Mutate then restore.
	ps[0].Value[0] += 100
	SetValues(ps, vals)
	again := FlattenValues(ps, nil)
	for i := range vals {
		if vals[i] != again[i] {
			t.Fatal("value round trip failed")
		}
	}
	// Gradient round trip.
	for _, p := range ps {
		for j := range p.Grad {
			p.Grad[j] = float64(j) + 0.5
		}
	}
	gs := FlattenGrads(ps, nil)
	ZeroGrads(ps)
	SetGrads(ps, gs)
	gs2 := FlattenGrads(ps, nil)
	for i := range gs {
		if gs[i] != gs2[i] {
			t.Fatal("grad round trip failed")
		}
	}
}

func TestFlattenSizeMismatchPanics(t *testing.T) {
	src := rng.New(7)
	ps := NewDense(2, 2, src).Params()
	for name, fn := range map[string]func(){
		"FlattenValues": func() { FlattenValues(ps, make([]float64, 3)) },
		"SetValues":     func() { SetValues(ps, make([]float64, 3)) },
		"FlattenGrads":  func() { FlattenGrads(ps, make([]float64, 3)) },
		"SetGrads":      func() { SetGrads(ps, make([]float64, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestBackwardBeforeForwardPanics(t *testing.T) {
	src := rng.New(8)
	d := NewDense(2, 2, src)
	defer func() {
		if recover() == nil {
			t.Fatal("Backward before Forward did not panic")
		}
	}()
	d.Backward(tensor.NewMatrix(1, 2))
}

func TestActivationShapes(t *testing.T) {
	a := NewActivation(ReLU)
	x := tensor.FromSlice(1, 3, []float64{-1, 0, 2})
	y := a.Forward(x)
	if y.Data[0] != 0 || y.Data[1] != 0 || y.Data[2] != 2 {
		t.Errorf("ReLU: %v", y.Data)
	}
	if a.Params() != nil {
		t.Error("activation has params")
	}
	s := NewActivation(Sigmoid)
	y = s.Forward(tensor.FromSlice(1, 1, []float64{0}))
	if math.Abs(y.Data[0]-0.5) > 1e-12 {
		t.Errorf("sigmoid(0) = %g", y.Data[0])
	}
}

func TestXavierInitScale(t *testing.T) {
	src := rng.New(9)
	d := NewDense(100, 100, src)
	limit := math.Sqrt(6.0 / 200)
	for _, w := range d.W.Data {
		if w < -limit || w > limit {
			t.Fatalf("weight %g outside Xavier limit ±%g", w, limit)
		}
	}
	// Bias starts at zero.
	for _, b := range d.B {
		if b != 0 {
			t.Fatal("bias not zero-initialized")
		}
	}
}

// BenchmarkAdamStep is one optimizer step over the benchmarked proposal
// model's 33,100 parameters: the 65→96→96→12 encoder and 7→96→96→64
// decoder layers of a 16-site, 4-species VAE with hidden 96, latent 6.
func BenchmarkAdamStep(b *testing.B) {
	src := rng.New(1)
	var ps []Param
	for _, s := range [][2]int{{65, 96}, {96, 96}, {96, 12}, {7, 96}, {96, 96}, {96, 64}} {
		ps = append(ps, NewDense(s[0], s[1], src).Params()...)
	}
	for _, p := range ps {
		for i := range p.Grad {
			p.Grad[i] = 1e-3 * src.NormFloat64()
		}
	}
	if n := NumParams(ps); n != 33100 {
		b.Fatalf("%d parameters", n)
	}
	opt := NewAdam(1e-3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Step(ps)
	}
}
