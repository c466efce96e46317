package vae

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"

	"deepthermo/internal/nn"
	"deepthermo/internal/rng"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	m, err := New(Config{Sites: 8, Species: 3, Latent: 4, Hidden: 16, BetaKL: 0.7}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Config() != m.Config() {
		t.Errorf("config %+v != %+v", loaded.Config(), m.Config())
	}
	// Identical inference.
	z := []float64{0.3, -0.1, 0.7, 0.2}
	a := m.DecodeProbs(z, 0.5)
	b := loaded.DecodeProbs(z, 0.5)
	for site := range a {
		for k := range a[site] {
			if a[site][k] != b[site][k] {
				t.Fatalf("loaded model decodes differently at site %d", site)
			}
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a model"))); err == nil {
		t.Error("garbage accepted")
	}
	// Wrong magic via a valid gob of the wrong struct shape.
	var buf bytes.Buffer
	m, _ := New(Config{Sites: 4, Species: 2, Latent: 2, Hidden: 4, BetaKL: 1}, rng.New(2))
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)/2] ^= 0xFF // corrupt the payload
	if _, err := Load(bytes.NewReader(data)); err == nil {
		t.Error("corrupted model accepted")
	}
	for name, data := range malformedModels(t) {
		if _, err := Load(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// malformedModels are well-formed gobs of model files Load must refuse:
// configs whose architecture would need terabytes (allocated, before the
// weight count was checked first, until the process died) or more
// parameters than an int holds, and weights or a KL weight that are not
// finite.
func malformedModels(t testing.TB) map[string][]byte {
	encode := func(f modelFile) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&f); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	cfg := Config{Sites: 4, Species: 2, Latent: 2, Hidden: 4, BetaKL: 1}
	m, err := New(cfg, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	weights := func(i int, v float64) []float64 {
		w := nn.FlattenValues(m.Params(), nil)
		w[i] = v
		return w
	}
	n := m.NumParams()
	return map[string][]byte{
		"terabyte config": encode(modelFile{Magic: modelMagic, Version: modelVersion,
			Config: Config{Sites: 1 << 20, Species: 255, Latent: 2, Hidden: 1 << 12, BetaKL: 1}}),
		"overflowing config": encode(modelFile{Magic: modelMagic, Version: modelVersion,
			Config: Config{Sites: math.MaxInt / 2, Species: 255, Latent: 2, Hidden: 1 << 40, BetaKL: 1}}),
		"negative latent": encode(modelFile{Magic: modelMagic, Version: modelVersion,
			Config: Config{Sites: 4, Species: 2, Latent: -2, Hidden: 4, BetaKL: 1}, Weights: make([]float64, n)}),
		"too few weights": encode(modelFile{Magic: modelMagic, Version: modelVersion, Config: cfg, Weights: make([]float64, n-1)}),
		"NaN weight":      encode(modelFile{Magic: modelMagic, Version: modelVersion, Config: cfg, Weights: weights(7, math.NaN())}),
		"+Inf weight":     encode(modelFile{Magic: modelMagic, Version: modelVersion, Config: cfg, Weights: weights(0, math.Inf(1))}),
		"-Inf bias":       encode(modelFile{Magic: modelMagic, Version: modelVersion, Config: cfg, Weights: weights(n-1, math.Inf(-1))}),
		"NaN KL weight": encode(modelFile{Magic: modelMagic, Version: modelVersion,
			Config: Config{Sites: 4, Species: 2, Latent: 2, Hidden: 4, BetaKL: math.NaN()}, Weights: weights(0, 0.5)}),
	}
}

// TestParamCountMatchesNew holds Load's up-front count to the architecture
// New builds.
func TestParamCountMatchesNew(t *testing.T) {
	for _, cfg := range []Config{
		{Sites: 1, Species: 2, Latent: 1, Hidden: 1},
		{Sites: 4, Species: 2, Latent: 2, Hidden: 4},
		{Sites: 16, Species: 4, Latent: 6, Hidden: 96},
		{Sites: 54, Species: 5, Latent: 3, Hidden: 17},
	} {
		m, err := New(cfg, rng.New(1))
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := paramCount(cfg); !ok || got != m.NumParams() {
			t.Errorf("%+v: paramCount %d, %v; New builds %d", cfg, got, ok, m.NumParams())
		}
	}
}

// FuzzModelLoad holds Load, the trust boundary for uploaded models, to
// its contract on arbitrary bytes: it refuses them, or it returns a model
// whose weights are all finite and which survives Save and Load again bit
// for bit. The seeds are a real model file and the malformed ones.
func FuzzModelLoad(f *testing.F) {
	m, err := New(Config{Sites: 4, Species: 3, Latent: 2, Hidden: 5, BetaKL: 0.5}, rng.New(4))
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	for _, data := range malformedModels(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		weights := nn.FlattenValues(m.Params(), nil)
		for i, v := range weights {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("weight %d is %g", i, v)
			}
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		again, err := Load(&buf)
		if err != nil {
			t.Fatalf("a saved model does not load: %v", err)
		}
		if math.Float64bits(again.Config().BetaKL) != math.Float64bits(m.Config().BetaKL) || again.Config() != m.Config() {
			t.Fatalf("config %+v came back as %+v", m.Config(), again.Config())
		}
		for i, v := range nn.FlattenValues(again.Params(), nil) {
			if math.Float64bits(v) != math.Float64bits(weights[i]) {
				t.Fatalf("weight %d: %x came back as %x", i, math.Float64bits(weights[i]), math.Float64bits(v))
			}
		}
	})
}
