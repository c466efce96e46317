package nn

import (
	"math"

	"deepthermo/internal/tensor"
)

// Optimizer updates parameters from their accumulated gradients.
type Optimizer interface {
	Step(ps []Param)
}

// SGD is plain stochastic gradient descent with optional momentum.
type SGD struct {
	LR       float64
	Momentum float64
	vel      [][]float64
}

// NewSGD returns an SGD optimizer.
func NewSGD(lr, momentum float64) *SGD { return &SGD{LR: lr, Momentum: momentum} }

// Step applies one update: v = μv − lr·g; θ += v.
func (o *SGD) Step(ps []Param) {
	if o.vel == nil {
		o.vel = make([][]float64, len(ps))
		for i, p := range ps {
			o.vel[i] = make([]float64, len(p.Value))
		}
	}
	for i, p := range ps {
		v := o.vel[i]
		for j := range p.Value {
			v[j] = o.Momentum*v[j] - o.LR*p.Grad[j]
			p.Value[j] += v[j]
		}
	}
}

// Adam is the Adam optimizer (Kingma & Ba), the paper-standard choice for
// VAE training.
type Adam struct {
	LR           float64
	Beta1, Beta2 float64
	Eps          float64
	t            int
	// state holds each parameter's moments, and its value and gradient
	// views as of the last Step, in the list form tensor.Adam takes.
	state []tensor.AdamParam
}

// NewAdam returns Adam with the conventional β₁=0.9, β₂=0.999, ε=1e-8.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step applies one bias-corrected Adam update to every parameter, as one
// tensor.Adam call over the whole list.
func (o *Adam) Step(ps []Param) {
	if o.state == nil {
		o.state = make([]tensor.AdamParam, len(ps))
		for i, p := range ps {
			o.state[i].M = make([]float64, len(p.Value))
			o.state[i].V = make([]float64, len(p.Value))
		}
	}
	for i, p := range ps {
		o.state[i].Val, o.state[i].Grad = p.Value, p.Grad
	}
	o.t++
	c1 := 1 - math.Pow(o.Beta1, float64(o.t))
	c2 := 1 - math.Pow(o.Beta2, float64(o.t))
	tensor.Adam(o.state, o.Beta1, o.Beta2, o.LR, o.Eps, c1, c2)
}

// ClipGradNorm rescales all gradients so their global L2 norm is at most
// maxNorm, returning the pre-clip norm. Gradient clipping keeps early VAE
// training stable at the large KL spikes of the warmup phase.
func ClipGradNorm(ps []Param, maxNorm float64) float64 {
	var ss float64
	for _, p := range ps {
		for _, g := range p.Grad {
			ss += g * g
		}
	}
	norm := math.Sqrt(ss)
	if norm > maxNorm && norm > 0 {
		scale := maxNorm / norm
		for _, p := range ps {
			tensor.Scale(scale, p.Grad)
		}
	}
	return norm
}
