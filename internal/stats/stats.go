// Package stats provides Monte Carlo error-analysis estimators: integrated
// autocorrelation times, effective sample size, blocking error bars and
// the Gelman-Rubin diagnostic. No production package imports it.
package stats

import "math"

// Mean returns the arithmetic mean of xs (NaN for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}

// AutocorrTime estimates the integrated autocorrelation time τ of the
// series xs using the standard self-consistent window (sum ρ(t) until
// t > c·τ, c = 5). The effective number of independent samples is
// N / (2τ). Returns 0.5 (uncorrelated lower bound) for degenerate input.
func AutocorrTime(xs []float64) float64 {
	n := len(xs)
	if n < 4 {
		return 0.5
	}
	m := Mean(xs)
	var c0 float64
	d := make([]float64, n)
	for i, x := range xs {
		d[i] = x - m
		c0 += d[i] * d[i]
	}
	c0 /= float64(n)
	if c0 == 0 {
		return 0.5
	}
	tau := 0.5
	for t := 1; t < n/2; t++ {
		var ct float64
		for i := 0; i+t < n; i++ {
			ct += d[i] * d[i+t]
		}
		ct /= float64(n - t)
		rho := ct / c0
		tau += rho
		if float64(t) > 5*tau {
			break
		}
	}
	if tau < 0.5 {
		tau = 0.5
	}
	return tau
}
