// Package nn is a minimal deep-learning stack: dense layers with manual
// backpropagation, standard activations, and the Adam optimizer. It is the
// pure-Go substitute for the paper's GPU deep-learning framework; the
// DeepThermo proposal model (package vae) is built entirely from these
// pieces. Parameters and gradients expose flat views so the distributed
// data-parallel trainer (package train) can broadcast and allreduce them
// through package transport exactly like the original's NCCL/RCCL path.
package nn

import (
	"fmt"
	"math"

	"deepthermo/internal/cacheline"
	"deepthermo/internal/rng"
	"deepthermo/internal/tensor"
)

// Layer is one differentiable stage of a network.
//
// Forward consumes a batch (rows = samples) and returns the batch output;
// the layer may retain references to its input for the backward pass.
// Backward consumes ∂L/∂output and returns ∂L/∂input, accumulating
// parameter gradients internally. Layers are not safe for concurrent use;
// each data-parallel worker owns a replica.
type Layer interface {
	Forward(x *tensor.Matrix) *tensor.Matrix
	Backward(gradOut *tensor.Matrix) *tensor.Matrix
	Params() []Param
}

// Param is a view of one parameter tensor and its gradient accumulator.
type Param struct {
	Value []float64
	Grad  []float64
}

// Dense is a fully connected layer: y = x·W + b.
//
// Forward and Backward return layer-owned scratch matrices that are reused
// (and overwritten) by the next Forward/Backward of the same layer. Within
// one forward/backward pass of a Sequential this is invisible — each layer
// owns distinct buffers — but callers must copy out anything they need to
// survive the layer's next call. This is what makes steady-state inference
// allocation-free (see DESIGN.md, "Performance architecture").
type Dense struct {
	In, Out int
	W       *tensor.Matrix // In × Out
	B       []float64
	gradW   *tensor.Matrix
	gradB   []float64
	lastX   *tensor.Matrix

	// Reused scratch: forward output, input gradient, per-call weight
	// gradient, and column sums. Sized on first use, resized on batch
	// changes.
	out, gx, gwScratch *tensor.Matrix
	colSums            []float64

	// ForwardOneHot's sparse input row: its coefficients and their
	// columns, on whole cache lines of their own. Sized on first use.
	hotCoef []float64
	hotRows []int

	// Forward writes lastX and out, so a replica (ShareWeights) fills
	// whole cache lines and shares none with another walker's replica.
	_ [3*cacheline.Size - 184]byte
}

// NewDense returns a Dense layer with Xavier/Glorot-uniform initialized
// weights drawn from src and zero bias.
func NewDense(in, out int, src *rng.Source) *Dense {
	d := &Dense{
		In: in, Out: out,
		W:     tensor.NewMatrix(in, out),
		B:     make([]float64, out),
		gradW: tensor.NewMatrix(in, out),
		gradB: make([]float64, out),
	}
	limit := math.Sqrt(6 / float64(in+out))
	for i := range d.W.Data {
		d.W.Data[i] = (2*src.Float64() - 1) * limit
	}
	return d
}

// ShareWeights returns an inference replica of d: a layer over the same W
// and B (not copied) with forward scratch of its own, pre-sized for one row
// on whole cache lines. Replicas of one layer may run Forward and
// ForwardOneHot concurrently while nothing writes the weights, and they see
// an in-place weight update at their next call. A replica has no gradient
// accumulators: Backward and Params panic on it.
func (d *Dense) ShareWeights() *Dense {
	return &Dense{In: d.In, Out: d.Out, W: d.W, B: d.B, out: lineRow(d.Out)}
}

// lineRow returns a 1×n matrix whose data fills whole cache lines.
func lineRow(n int) *tensor.Matrix {
	return tensor.FromSlice(1, n, cacheline.Make[float64](n))
}

// Forward computes x·W + b.
func (d *Dense) Forward(x *tensor.Matrix) *tensor.Matrix {
	if x.Cols != d.In {
		panic(fmt.Sprintf("nn: Dense(%d→%d) got input with %d features", d.In, d.Out, x.Cols))
	}
	d.lastX = x
	d.out = tensor.Ensure(d.out, x.Rows, d.Out)
	tensor.MatMul(d.out, x, d.W)
	tensor.AddBias(d.out, d.B)
	return d.out
}

// ForwardOneHot computes the batch-1 forward pass y = x·W + b for the
// implicit sparse input x with x[idx] = 1 for each idx in ones, x[In-1] =
// cond, and 0 elsewhere — the inference fast path for one-hot-plus-scalar
// encoder inputs. ones must be sorted ascending with every idx < In-1.
// The weight rows are accumulated in exactly the order the dense kernel
// visits the same input's nonzero entries, so the result is bit-identical
// to Forward on the materialized vector, without building or scanning it.
// Inference-only: it does not retain an input for Backward. Like Forward,
// it returns layer-owned reused scratch.
func (d *Dense) ForwardOneHot(ones []int, cond float64) *tensor.Matrix {
	d.lastX = nil
	d.out = tensor.Ensure(d.out, 1, d.Out)
	if d.hotRows == nil {
		d.hotCoef = cacheline.Make[float64](d.In)
		d.hotRows = cacheline.Make[int](d.In)
	}
	n := len(ones)
	coef, rows := d.hotCoef[:n+1], d.hotRows[:n+1]
	// A one-hot row enters at coefficient 1, and 1·w is w bit for bit for
	// every w but a signalling NaN, which no weight is: arithmetic makes
	// only quiet NaNs, and vae.Load refuses non-finite weights.
	for i := range ones {
		coef[i] = 1
	}
	copy(rows, ones)
	coef[n], rows[n] = cond, d.In-1
	tensor.SparseRowMul(d.out.Row(0), coef, rows, d.W)
	tensor.AddBias(d.out, d.B)
	return d.out
}

// Backward accumulates ∂L/∂W = xᵀ·g and ∂L/∂b = Σrows g, and returns
// ∂L/∂x = g·Wᵀ.
func (d *Dense) Backward(gradOut *tensor.Matrix) *tensor.Matrix {
	d.backwardParams(gradOut)
	d.gx = tensor.Ensure(d.gx, gradOut.Rows, d.In)
	tensor.MatMulTransB(d.gx, gradOut, d.W)
	return d.gx
}

// backwardParams is Backward without ∂L/∂x.
func (d *Dense) backwardParams(gradOut *tensor.Matrix) {
	if d.lastX == nil {
		panic("nn: Dense.Backward before Forward")
	}
	d.gwScratch = tensor.Ensure(d.gwScratch, d.In, d.Out)
	tensor.MatMulTransA(d.gwScratch, d.lastX, gradOut)
	tensor.Axpy(1, d.gwScratch.Data, d.gradW.Data)
	if d.colSums == nil {
		d.colSums = make([]float64, d.Out)
	}
	tensor.Axpy(1, tensor.ColSumsInto(d.colSums, gradOut), d.gradB)
}

// Params exposes weights and bias with their gradient accumulators.
func (d *Dense) Params() []Param {
	return []Param{
		{Value: d.W.Data, Grad: d.gradW.Data},
		{Value: d.B, Grad: d.gradB},
	}
}

// ActivationKind selects a pointwise nonlinearity.
type ActivationKind int

// Supported activations.
const (
	Tanh ActivationKind = iota
	ReLU
	Sigmoid
)

// Activation is a parameter-free pointwise nonlinearity layer. Like Dense,
// its Forward/Backward results are layer-owned reused buffers.
type Activation struct {
	Kind    ActivationKind
	lastOut *tensor.Matrix
	gx      *tensor.Matrix

	// Forward writes lastOut; see Dense's pad.
	_ [cacheline.Size - 24]byte
}

// NewActivation returns an activation layer of the given kind.
func NewActivation(kind ActivationKind) *Activation { return &Activation{Kind: kind} }

// Forward applies the nonlinearity elementwise.
func (a *Activation) Forward(x *tensor.Matrix) *tensor.Matrix {
	y := tensor.Ensure(a.lastOut, x.Rows, x.Cols)
	switch a.Kind {
	case Tanh:
		// math.Tanh per element, bit for bit, four lanes at a time where
		// the CPU has AVX2 and FMA.
		tensor.Tanh(y, x)
	case ReLU:
		tensor.Apply(y, x, func(v float64) float64 {
			if v > 0 {
				return v
			}
			return 0
		})
	case Sigmoid:
		tensor.Apply(y, x, func(v float64) float64 { return 1 / (1 + math.Exp(-v)) })
	default:
		panic(fmt.Sprintf("nn: unknown activation %d", a.Kind))
	}
	a.lastOut = y
	return y
}

// Backward multiplies the upstream gradient by the activation derivative,
// computed from the cached output (all three activations admit this form).
func (a *Activation) Backward(gradOut *tensor.Matrix) *tensor.Matrix {
	if a.lastOut == nil {
		panic("nn: Activation.Backward before Forward")
	}
	gx := tensor.Ensure(a.gx, gradOut.Rows, gradOut.Cols)
	a.gx = gx
	out := a.lastOut
	switch a.Kind {
	case Tanh:
		for i, g := range gradOut.Data {
			y := out.Data[i]
			gx.Data[i] = g * (1 - y*y)
		}
	case ReLU:
		// gx is a reused buffer, so the masked-out entries must be written
		// explicitly (a fresh matrix arrived zeroed; scratch does not).
		for i, g := range gradOut.Data {
			if out.Data[i] > 0 {
				gx.Data[i] = g
			} else {
				gx.Data[i] = 0
			}
		}
	case Sigmoid:
		for i, g := range gradOut.Data {
			y := out.Data[i]
			gx.Data[i] = g * y * (1 - y)
		}
	}
	return gx
}

// Params returns nil: activations are parameter-free.
func (a *Activation) Params() []Param { return nil }

// Sequential chains layers.
type Sequential struct {
	Layers []Layer
}

// NewSequential builds a Sequential from layers.
func NewSequential(layers ...Layer) *Sequential { return &Sequential{Layers: layers} }

// ShareWeights returns an inference replica of s: each Dense layer is
// replaced by its Dense.ShareWeights replica and each Activation by a fresh
// one whose output row is pre-sized like the Dense rows, so the replica
// reads s's parameters in place and writes only buffers of its own.
func (s *Sequential) ShareWeights() *Sequential {
	layers := make([]Layer, len(s.Layers))
	width := 0
	for i, l := range s.Layers {
		switch l := l.(type) {
		case *Dense:
			layers[i], width = l.ShareWeights(), l.Out
		case *Activation:
			layers[i] = &Activation{Kind: l.Kind, lastOut: lineRow(width)}
		default:
			panic(fmt.Sprintf("nn: ShareWeights over a %T layer", l))
		}
	}
	return &Sequential{Layers: layers}
}

// Forward runs the chain front to back.
func (s *Sequential) Forward(x *tensor.Matrix) *tensor.Matrix {
	for _, l := range s.Layers {
		x = l.Forward(x)
	}
	return x
}

// Backward runs the chain back to front.
func (s *Sequential) Backward(gradOut *tensor.Matrix) *tensor.Matrix {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		gradOut = s.Layers[i].Backward(gradOut)
	}
	return gradOut
}

// BackwardParams is Backward for a chain whose first layer is Dense and
// whose input gradient nobody reads: it accumulates the same parameter
// gradients and skips computing ∂L/∂x.
func (s *Sequential) BackwardParams(gradOut *tensor.Matrix) {
	for i := len(s.Layers) - 1; i > 0; i-- {
		gradOut = s.Layers[i].Backward(gradOut)
	}
	s.Layers[0].(*Dense).backwardParams(gradOut)
}

// Params concatenates all layer parameters.
func (s *Sequential) Params() []Param {
	var ps []Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ZeroGrads clears the gradient accumulators of ps.
func ZeroGrads(ps []Param) {
	for _, p := range ps {
		clear(p.Grad)
	}
}

// NumParams returns the total scalar parameter count of ps.
func NumParams(ps []Param) int {
	n := 0
	for _, p := range ps {
		n += len(p.Value)
	}
	return n
}

// FlattenValues copies all parameter values into dst (allocating if nil)
// and returns it. Used to broadcast a replica's weights.
func FlattenValues(ps []Param, dst []float64) []float64 {
	n := NumParams(ps)
	if dst == nil {
		dst = make([]float64, n)
	}
	if len(dst) != n {
		panic("nn: FlattenValues size mismatch")
	}
	o := 0
	for _, p := range ps {
		copy(dst[o:], p.Value)
		o += len(p.Value)
	}
	return dst
}

// SetValues copies flat src back into the parameter tensors.
func SetValues(ps []Param, src []float64) {
	if len(src) != NumParams(ps) {
		panic("nn: SetValues size mismatch")
	}
	o := 0
	for _, p := range ps {
		copy(p.Value, src[o:o+len(p.Value)])
		o += len(p.Value)
	}
}

// FlattenGrads copies all gradients into dst (allocating if nil). Used for
// the data-parallel allreduce.
func FlattenGrads(ps []Param, dst []float64) []float64 {
	n := NumParams(ps)
	if dst == nil {
		dst = make([]float64, n)
	}
	if len(dst) != n {
		panic("nn: FlattenGrads size mismatch")
	}
	o := 0
	for _, p := range ps {
		copy(dst[o:], p.Grad)
		o += len(p.Grad)
	}
	return dst
}

// SetGrads copies flat src back into the gradient accumulators.
func SetGrads(ps []Param, src []float64) {
	if len(src) != NumParams(ps) {
		panic("nn: SetGrads size mismatch")
	}
	o := 0
	for _, p := range ps {
		copy(p.Grad, src[o:o+len(p.Grad)])
		o += len(p.Grad)
	}
}
