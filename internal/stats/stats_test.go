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

func TestJackknifeMean(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	est, se := Jackknife(xs, Mean)
	if math.Abs(est-4.5) > 1e-12 {
		t.Errorf("jackknife estimate = %g", est)
	}
	// For the mean, jackknife SE equals the standard error of the mean.
	want := math.Sqrt(Variance(xs) / 8)
	if math.Abs(se-want) > 1e-9 {
		t.Errorf("jackknife SE = %g, want %g", se, want)
	}
}

func TestJackknifeShort(t *testing.T) {
	est, se := Jackknife([]float64{7}, Mean)
	if est != 7 || se != 0 {
		t.Error("singleton jackknife wrong")
	}
}

func TestHistogramBasics(t *testing.T) {
	h, err := NewHistogram(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0, 1.9, 2, 5, 9.99, -1, 10, 11} {
		h.Add(x)
	}
	if h.Total() != 5 {
		t.Errorf("in-range total = %d", h.Total())
	}
	under, over := h.Outliers()
	if under != 1 || over != 2 {
		t.Errorf("outliers = %d, %d", under, over)
	}
	if h.Counts[0] != 2 { // 0 and 1.9
		t.Errorf("bin 0 = %d", h.Counts[0])
	}
	if c := h.BinCenter(0); math.Abs(c-1) > 1e-12 {
		t.Errorf("BinCenter(0) = %g", c)
	}
	if h.Bin(-0.5) != -1 || h.Bin(10.0) != -1 {
		t.Error("out-of-range Bin not -1")
	}
}

func TestHistogramValidation(t *testing.T) {
	if _, err := NewHistogram(5, 5, 3); err == nil {
		t.Error("empty range accepted")
	}
	if _, err := NewHistogram(0, 1, 0); err == nil {
		t.Error("zero bins accepted")
	}
}
