package vae

import (
	"math"

	"deepthermo/internal/cacheline"
	"deepthermo/internal/lattice"
	"deepthermo/internal/tensor"
)

// ShareWeights returns an inference replica of m: a Model over the same
// weight and bias slices (not copied) with inference scratch of its own —
// fresh layer buffers, decoder input and one-hot indices, each on whole
// cache lines. Replicas of one model may run EncodeInto, DecodeProbsInto
// and EncodeSampleDecode concurrently on separate goroutines while nothing
// writes the weights, and each sees an in-place weight update (Step plus
// an optimizer, nn.SetValues) at its next call. A replica computes exactly
// the base model's forwards, bit for bit: it runs the same code over the
// same numbers. It has no gradient accumulators, so Step, Params and
// CloneWeights panic on it.
func (m *Model) ShareWeights() *Model {
	n, l := m.cfg.Sites, m.cfg.Latent
	return &Model{
		cfg:   m.cfg,
		enc:   m.enc.ShareWeights(),
		dec:   m.dec.ShareWeights(),
		decIn: tensor.FromSlice(1, l+1, cacheline.Make[float64](l+1)),
		ones:  cacheline.Make[int](n),
	}
}

// SampleLatent draws the reparameterized latent z = mu + eps·exp(lv/2)
// elementwise. It is THE latent-sampling formula of the DL proposal: the
// proposal's unfused path and the fused Model pass both call it, so a z
// computed from the same (mu, lv, eps) is bit-identical everywhere.
func SampleLatent(z, mu, lv, eps []float64) {
	for i := range z {
		z[i] = mu[i] + eps[i]*math.Exp(0.5*lv[i])
	}
}

// EncodeSampleDecode runs the full walk-posterior proposal forward —
// encode cfg, reparameterize with the caller's pre-drawn standard normals
// eps, decode the resulting z — in one call, writing into the
// caller-allocated mu, lv, z, and probs. Results are bit-identical to the
// unfused EncodeInto + SampleLatent + DecodeProbsInto sequence.
func (m *Model) EncodeSampleDecode(cfg lattice.Config, cond float64, eps, mu, lv, z []float64, probs [][]float64) {
	m.EncodeInto(cfg, cond, mu, lv)
	SampleLatent(z, mu, lv, eps)
	m.DecodeProbsInto(z, cond, probs)
}

// WeightDraws returns the number of rng.Source.Float64 draws New consumes
// initializing a model with this config: one per weight of each of the six
// Dense layers (biases start at zero and draw nothing). Every factory that
// gives a walker a ShareWeights replica — deepthermo.System.WalkerModel, and
// the infer engine path that only the benchmark harness (bench/) still
// runs — burns exactly this many draws from the walker's stream in place
// of the CloneWeights it replaces, keeping every downstream draw of the
// walker bit-identical to the clone path.
func WeightDraws(cfg Config) int {
	in := cfg.Sites*cfg.Species + 1
	h, l, nk := cfg.Hidden, cfg.Latent, cfg.Sites*cfg.Species
	enc := in*h + h*h + h*2*l
	dec := (l+1)*h + h*h + h*nk
	return enc + dec
}
