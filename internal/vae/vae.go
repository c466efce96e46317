// Package vae implements DeepThermo's deep-learning MC proposal model: a
// conditional variational autoencoder over lattice configurations.
//
// Configurations are one-hot encoded (N sites × k species) and conditioned
// on a scalar (normalized temperature or energy level). The encoder maps a
// configuration to a diagonal Gaussian over a low-dimensional latent space;
// the decoder maps a latent vector back to per-site categorical
// distributions. Sampling the decoder yields a global configuration update
// — every site can change at once — which is the paper's answer to the
// non-scalability of local-swap proposals.
//
// Crucially for exactness, the decoder's factorized-categorical form gives
// a closed-form proposal density, so the Metropolis-Hastings correction in
// package mc can be computed exactly (see mc.GlobalProposal for the
// auxiliary-variable construction).
package vae

import (
	"fmt"
	"math"

	"deepthermo/internal/cacheline"
	"deepthermo/internal/lattice"
	"deepthermo/internal/nn"
	"deepthermo/internal/rng"
	"deepthermo/internal/tensor"
)

// Config holds the VAE hyperparameters.
type Config struct {
	Sites   int // N lattice sites
	Species int // k alloy components
	Latent  int // latent dimension L
	Hidden  int // width of the two hidden layers in encoder and decoder
	BetaKL  float64
}

func (c Config) valid() bool {
	return c.Sites > 0 && c.Species >= 2 && c.Latent > 0 && c.Hidden > 0
}

// Model is a conditional VAE. It is not safe for concurrent training; for
// concurrent proposal generation, give each walker its own replica —
// CloneWeights (a private weight copy) or ShareWeights (the same weights)
// — because the inference path mutates layer caches and the model-owned
// scratch below.
type Model struct {
	cfg Config
	enc *nn.Sequential // (N·k + 1) → hidden → hidden → 2L
	dec *nn.Sequential // (L + 1)   → hidden → hidden → N·k

	// Inference scratch: batch-1 input matrices reused across
	// Encode/DecodeProbs calls so steady-state proposal generation does
	// not allocate. Owned by the model, hence the per-walker replica rule.
	decIn *tensor.Matrix // 1 × (L+1)
	ones  []int          // nonzero one-hot indices for the sparse encoder path

	// Training scratch: batch-sized intermediates reused across Step
	// calls (resized when the batch size changes).
	trEncIn, trDecIn, trEps, trZ, trSigma *tensor.Matrix
	trGradLogits, trGradEncOut            *tensor.Matrix

	// DecodeProbsInto stores decIn on every call, so a replica
	// (ShareWeights) fills whole cache lines and shares none with another
	// walker's replica.
	_ [3*cacheline.Size - 144]byte
}

// New constructs a VAE with Xavier-initialized weights from src.
func New(cfg Config, src *rng.Source) (*Model, error) {
	if !cfg.valid() {
		return nil, fmt.Errorf("vae: invalid config %+v", cfg)
	}
	if cfg.BetaKL <= 0 {
		cfg.BetaKL = 1
	}
	in := cfg.Sites*cfg.Species + 1
	enc := nn.NewSequential(
		nn.NewDense(in, cfg.Hidden, src),
		nn.NewActivation(nn.Tanh),
		nn.NewDense(cfg.Hidden, cfg.Hidden, src),
		nn.NewActivation(nn.Tanh),
		nn.NewDense(cfg.Hidden, 2*cfg.Latent, src),
	)
	dec := nn.NewSequential(
		nn.NewDense(cfg.Latent+1, cfg.Hidden, src),
		nn.NewActivation(nn.Tanh),
		nn.NewDense(cfg.Hidden, cfg.Hidden, src),
		nn.NewActivation(nn.Tanh),
		nn.NewDense(cfg.Hidden, cfg.Sites*cfg.Species, src),
	)
	return &Model{cfg: cfg, enc: enc, dec: dec}, nil
}

// Config returns the hyperparameters.
func (m *Model) Config() Config { return m.cfg }

// SetBetaKL changes the KL weight (used for warmup schedules during
// training; it does not affect inference).
func (m *Model) SetBetaKL(beta float64) { m.cfg.BetaKL = beta }

// Params returns all trainable parameters (encoder then decoder).
func (m *Model) Params() []nn.Param {
	return append(m.enc.Params(), m.dec.Params()...)
}

// NumParams returns the scalar parameter count.
func (m *Model) NumParams() int { return nn.NumParams(m.Params()) }

// CloneWeights returns a new Model with copied weights, for concurrent
// inference by independent walkers.
func (m *Model) CloneWeights(src *rng.Source) *Model {
	clone, err := New(m.cfg, src)
	if err != nil {
		panic(err) // unreachable: m.cfg was already validated
	}
	nn.SetValues(clone.Params(), nn.FlattenValues(m.Params(), nil))
	return clone
}

// OneHot encodes cfg into dst (allocating if nil) as N·k one-hot blocks.
func (m *Model) OneHot(cfg lattice.Config, dst []float64) []float64 {
	n, k := m.cfg.Sites, m.cfg.Species
	if len(cfg) != n {
		panic("vae: configuration size mismatch")
	}
	if dst == nil {
		dst = make([]float64, n*k)
	} else {
		for i := range dst {
			dst[i] = 0
		}
	}
	for site, sp := range cfg {
		dst[site*k+int(sp)] = 1
	}
	return dst
}

// Losses reports the terms of one training step.
type Losses struct {
	Recon float64 // mean per-sample reconstruction cross-entropy (nats)
	KL    float64 // mean per-sample KL divergence to the prior
	// Accuracy is the fraction of sites whose argmax reconstruction
	// matches the input.
	Accuracy float64
}

// Total returns the β-weighted ELBO loss.
func (l Losses) Total(betaKL float64) float64 { return l.Recon + betaKL*l.KL }

const logvarClamp = 10 // |log σ²| clamp for numerical stability

// Step runs one forward/backward pass on a batch and accumulates gradients
// (callers zero them between optimizer steps). x is B × N·k one-hot rows,
// cond is one condition scalar per row, targets the species per site.
func (m *Model) Step(x *tensor.Matrix, cond []float64, targets []lattice.Config, src *rng.Source) Losses {
	b := x.Rows
	n, k, l := m.cfg.Sites, m.cfg.Species, m.cfg.Latent
	if len(cond) != b || len(targets) != b {
		panic("vae: batch size mismatch")
	}

	// Encoder: concat condition column.
	m.trEncIn = tensor.Ensure(m.trEncIn, b, n*k+1)
	encIn := m.trEncIn
	for i := 0; i < b; i++ {
		copy(encIn.Row(i), x.Row(i))
		encIn.Row(i)[n*k] = cond[i]
	}
	encOut := m.enc.Forward(encIn) // B × 2L: [mu | logvar]

	// Reparameterize.
	m.trEps = tensor.Ensure(m.trEps, b, l)
	m.trZ = tensor.Ensure(m.trZ, b, l)
	m.trSigma = tensor.Ensure(m.trSigma, b, l)
	eps, z, sigma := m.trEps, m.trZ, m.trSigma
	var kl float64
	for i := 0; i < b; i++ {
		row := encOut.Row(i)
		for j := 0; j < l; j++ {
			mu := row[j]
			lv := clamp(row[l+j], -logvarClamp, logvarClamp)
			s := math.Exp(0.5 * lv)
			e := src.NormFloat64()
			eps.Set(i, j, e)
			sigma.Set(i, j, s)
			z.Set(i, j, mu+s*e)
			kl += 0.5 * (math.Exp(lv) + mu*mu - 1 - lv)
		}
	}

	// Decoder: concat condition column.
	m.trDecIn = tensor.Ensure(m.trDecIn, b, l+1)
	decIn := m.trDecIn
	for i := 0; i < b; i++ {
		copy(decIn.Row(i), z.Row(i))
		decIn.Row(i)[l] = cond[i]
	}
	logits := m.dec.Forward(decIn) // B × N·k

	// Per-site softmax cross-entropy; gradient wrt logits is p − onehot.
	// The probabilities are written straight into the gradient rows.
	m.trGradLogits = tensor.Ensure(m.trGradLogits, b, n*k)
	gradLogits := m.trGradLogits
	var recon float64
	correct := 0
	expShifted(logits.Data, k)
	for i := 0; i < b; i++ {
		erow := logits.Row(i)
		grow := gradLogits.Row(i)
		for site := 0; site < n; site++ {
			probs := grow[site*k : (site+1)*k]
			normalize(erow[site*k:(site+1)*k], probs)
			t := int(targets[i][site])
			recon += -math.Log(math.Max(probs[t], 1e-300))
			argmax := 0
			for a := 1; a < k; a++ {
				if probs[a] > probs[argmax] {
					argmax = a
				}
			}
			if argmax == t {
				correct++
			}
			probs[t]--
		}
	}
	// Mean over batch.
	tensor.Scale(1/float64(b), gradLogits.Data)
	recon /= float64(b)
	kl /= float64(b)

	// Backward through decoder.
	gradDecIn := m.dec.Backward(gradLogits)

	// Backward through reparameterization + KL into encoder output.
	m.trGradEncOut = tensor.Ensure(m.trGradEncOut, b, 2*l)
	gradEncOut := m.trGradEncOut
	bkl := m.cfg.BetaKL / float64(b)
	for i := 0; i < b; i++ {
		gz := gradDecIn.Row(i) // first l entries are ∂L/∂z
		row := encOut.Row(i)
		grow := gradEncOut.Row(i)
		for j := 0; j < l; j++ {
			mu := row[j]
			lv := clamp(row[l+j], -logvarClamp, logvarClamp)
			// ∂L/∂mu = ∂L/∂z + βKL·mu
			grow[j] = gz[j] + bkl*mu
			// ∂L/∂logvar = ∂L/∂z · ε · ½σ + βKL·½(e^lv − 1)
			grow[l+j] = gz[j]*eps.At(i, j)*0.5*sigma.At(i, j) + bkl*0.5*(math.Exp(lv)-1)
		}
	}
	m.enc.BackwardParams(gradEncOut) // nothing reads the encoder input's gradient

	return Losses{
		Recon:    recon,
		KL:       kl,
		Accuracy: float64(correct) / float64(b*n),
	}
}

// expShifted overwrites each k-wide site block of logits with
// exp(logit − the block's max), the exps in one tensor.Exp call over the
// whole buffer. normalize then completes a site's softmax.
func expShifted(logits []float64, k int) {
	for s := 0; s < len(logits); s += k {
		seg := logits[s : s+k]
		max := seg[0]
		for _, v := range seg[1:] {
			if v > max {
				max = v
			}
		}
		for a, v := range seg {
			seg[a] = v - max
		}
	}
	tensor.Exp(logits, logits)
}

// normalize writes e[a]/Σe into out, the sum taken in ascending a
// (((e0+e1)+e2)+e3 at k = 4).
func normalize(e, out []float64) {
	var sum float64
	for _, v := range e {
		sum += v
	}
	for a, v := range e {
		out[a] = v / sum
	}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// NewProbs allocates an n-site × k-species probability table backed by a
// single flat array — one allocation plus the row headers, and contiguous
// rows for cache-friendly constrained sampling.
func NewProbs(n, k int) [][]float64 {
	back := make([]float64, n*k)
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = back[i*k : (i+1)*k]
	}
	return rows
}

// DecodeProbs decodes latent z under condition cond into per-site
// categorical distributions probs[site][species]. The returned table is a
// fresh allocation owned by the caller; the hot path uses DecodeProbsInto
// with a reused table instead.
func (m *Model) DecodeProbs(z []float64, cond float64) [][]float64 {
	return m.DecodeProbsInto(z, cond, nil)
}

// DecodeProbsInto is DecodeProbs writing into dst (allocated via NewProbs
// when nil). dst rows must each hold Species entries. The decode reuses
// model-owned input scratch and layer caches, so a steady-state call
// performs no allocations.
func (m *Model) DecodeProbsInto(z []float64, cond float64, dst [][]float64) [][]float64 {
	n, k, l := m.cfg.Sites, m.cfg.Species, m.cfg.Latent
	if len(z) != l {
		panic("vae: latent size mismatch")
	}
	m.decIn = tensor.Ensure(m.decIn, 1, l+1)
	row := m.decIn.Row(0)
	copy(row, z)
	row[l] = cond
	logits := m.dec.Forward(m.decIn).Row(0)
	if dst == nil {
		dst = NewProbs(n, k)
	} else if len(dst) != n {
		panic("vae: DecodeProbsInto dst size mismatch")
	}
	// The decoder's output row is this model's layer buffer, read by
	// nothing after this call, so the exps overwrite it.
	expShifted(logits, k)
	for site := 0; site < n; site++ {
		normalize(logits[site*k:(site+1)*k], dst[site])
	}
	return dst
}

// Encode returns the posterior mean and log-variance for cfg under cond as
// fresh allocations; the hot path uses EncodeInto with reused buffers.
func (m *Model) Encode(cfg lattice.Config, cond float64) (mu, logvar []float64) {
	return m.EncodeInto(cfg, cond, nil, nil)
}

// EncodeInto is Encode writing into mu and logvar (allocated when nil;
// both must have length Latent otherwise). A steady-state call performs no
// allocations.
func (m *Model) EncodeInto(cfg lattice.Config, cond float64, mu, logvar []float64) ([]float64, []float64) {
	n, k, l := m.cfg.Sites, m.cfg.Species, m.cfg.Latent
	if len(cfg) != n {
		panic("vae: configuration size mismatch")
	}
	// Sparse first layer: the encoder input is a one-hot block per site plus
	// the conditioning scalar, so instead of materializing and re-scanning
	// the (N·k+1)-wide vector, feed the nonzero indices (ascending in site,
	// hence ascending in one-hot index) straight to the layer. Bit-identical
	// to the dense forward (see nn.Dense.ForwardOneHot).
	if m.ones == nil {
		m.ones = make([]int, n)
	}
	for site, a := range cfg {
		m.ones[site] = site*k + int(a)
	}
	first := m.enc.Layers[0].(*nn.Dense)
	x := first.ForwardOneHot(m.ones, cond)
	for _, layer := range m.enc.Layers[1:] {
		x = layer.Forward(x)
	}
	out := x.Row(0)
	if mu == nil {
		mu = make([]float64, l)
	}
	if logvar == nil {
		logvar = make([]float64, l)
	}
	copy(mu, out[:l])
	for j := 0; j < l; j++ {
		logvar[j] = clamp(out[l+j], -logvarClamp, logvarClamp)
	}
	return mu, logvar
}
