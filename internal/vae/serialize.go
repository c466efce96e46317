package vae

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"math/bits"

	"deepthermo/internal/nn"
	"deepthermo/internal/rng"
)

// modelFile is the on-disk representation of a trained model.
type modelFile struct {
	Magic   string // format guard
	Version int
	Config  Config
	Weights []float64
}

const (
	modelMagic   = "deepthermo-vae"
	modelVersion = 1
)

// Save writes the model's hyperparameters and weights to w. The format is
// self-describing; Load reconstructs an identical model, which lets long
// REWL campaigns reuse proposal models across restarts and lets the
// active-learning loop hand trained models between stages.
func (m *Model) Save(w io.Writer) error {
	f := modelFile{
		Magic:   modelMagic,
		Version: modelVersion,
		Config:  m.cfg,
		Weights: nn.FlattenValues(m.Params(), nil),
	}
	if err := gob.NewEncoder(w).Encode(&f); err != nil {
		return fmt.Errorf("vae: saving model: %w", err)
	}
	return nil
}

// Load reads a model previously written by Save. It is the trust boundary
// for uploaded models (dtserve's POST /v1/artifacts?kind=model), so it
// allocates nothing the file does not pay for: the architecture's
// parameter count is computed from the file's Config, with overflow
// checks, and must equal the number of weights the file carries before
// New runs. Every weight, and the KL weight, must be finite.
func Load(r io.Reader) (*Model, error) {
	var f modelFile
	if err := gob.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("vae: loading model: %w", err)
	}
	if f.Magic != modelMagic {
		return nil, fmt.Errorf("vae: not a DeepThermo model file")
	}
	if f.Version != modelVersion {
		return nil, fmt.Errorf("vae: unsupported model version %d", f.Version)
	}
	want, ok := paramCount(f.Config)
	if !ok {
		return nil, fmt.Errorf("vae: invalid config %+v", f.Config)
	}
	if want != len(f.Weights) {
		return nil, fmt.Errorf("vae: model file has %d weights, architecture needs %d", len(f.Weights), want)
	}
	if !finite(f.Config.BetaKL) {
		return nil, fmt.Errorf("vae: model file has KL weight %g", f.Config.BetaKL)
	}
	for i, v := range f.Weights {
		if !finite(v) {
			return nil, fmt.Errorf("vae: model file has weight %d = %g", i, v)
		}
	}
	// Weight initialization is immediately overwritten; the seed is
	// irrelevant but must be deterministic.
	m, err := New(f.Config, rng.New(0))
	if err != nil {
		return nil, err
	}
	nn.SetValues(m.Params(), f.Weights)
	return m, nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// paramCount returns the number of weights and biases New builds for cfg,
// and false when New would refuse cfg or the count does not fit an int.
func paramCount(cfg Config) (int, bool) {
	if !cfg.valid() {
		return 0, false
	}
	var carry uint64
	mul := func(a, b uint64) uint64 {
		hi, lo := bits.Mul64(a, b)
		carry |= hi
		return lo
	}
	add := func(a, b uint64) uint64 {
		sum, c := bits.Add64(a, b, 0)
		carry |= c
		return sum
	}
	nk, l, h := mul(uint64(cfg.Sites), uint64(cfg.Species)), uint64(cfg.Latent), uint64(cfg.Hidden)
	var total uint64
	for _, layer := range [][2]uint64{
		{add(nk, 1), h}, {h, h}, {h, add(l, l)}, // encoder
		{add(l, 1), h}, {h, h}, {h, nk}, // decoder
	} {
		in, out := layer[0], layer[1]
		total = add(total, add(mul(in, out), out))
	}
	if carry != 0 || total > math.MaxInt {
		return 0, false
	}
	return int(total), true
}
