package stats

import (
	"math"
	"testing"

	"deepthermo/internal/rng"
)

func TestMeanVariance(t *testing.T) {
	if !math.IsNaN(Mean(nil)) {
		t.Error("empty mean not NaN")
	}
	if v := Variance([]float64{5}); v != 0 {
		t.Errorf("singleton variance = %g", v)
	}
	if v := Variance([]float64{1, 2, 3, 4}); math.Abs(v-5.0/3) > 1e-12 {
		t.Errorf("variance = %g, want 5/3", v)
	}
}

func TestAutocorrTimeWhiteNoise(t *testing.T) {
	src := rng.New(2)
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = src.NormFloat64()
	}
	tau := AutocorrTime(xs)
	if tau < 0.3 || tau > 1.0 {
		t.Errorf("white-noise τ = %g, want ≈0.5", tau)
	}
}

func TestAutocorrTimeAR1(t *testing.T) {
	// AR(1) with coefficient ρ has τ = ½(1+ρ)/(1−ρ); ρ=0.9 → τ = 9.5.
	src := rng.New(3)
	const rho = 0.9
	xs := make([]float64, 200000)
	x := 0.0
	for i := range xs {
		x = rho*x + src.NormFloat64()
		xs[i] = x
	}
	tau := AutocorrTime(xs)
	if tau < 6 || tau > 13 {
		t.Errorf("AR(1) τ = %g, want ≈9.5", tau)
	}
}

func TestAutocorrTimeDegenerate(t *testing.T) {
	if tau := AutocorrTime([]float64{1, 1}); tau != 0.5 {
		t.Errorf("short series τ = %g", tau)
	}
	if tau := AutocorrTime([]float64{3, 3, 3, 3, 3, 3}); tau != 0.5 {
		t.Errorf("constant series τ = %g", tau)
	}
}
