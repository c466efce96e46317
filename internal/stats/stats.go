// Package stats provides Monte Carlo error-analysis estimators: integrated
// autocorrelation times, effective sample size, blocking and jackknife
// error bars, the Gelman-Rubin diagnostic, and fixed-width histograms.
// No production package imports it.
package stats

import (
	"fmt"
	"math"
)

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

// Jackknife returns the estimate and standard error of f applied to the
// dataset xs using delete-1 jackknife resampling. f receives a view of the
// data it must not retain.
func Jackknife(xs []float64, f func([]float64) float64) (est, stderr float64) {
	n := len(xs)
	if n < 2 {
		return f(xs), 0
	}
	full := f(xs)
	buf := make([]float64, 0, n-1)
	partials := make([]float64, n)
	for i := range xs {
		buf = buf[:0]
		buf = append(buf, xs[:i]...)
		buf = append(buf, xs[i+1:]...)
		partials[i] = f(buf)
	}
	pm := Mean(partials)
	var v float64
	for _, p := range partials {
		d := p - pm
		v += d * d
	}
	v *= float64(n-1) / float64(n)
	return full, math.Sqrt(v)
}

// Histogram is a fixed-width histogram over [Lo, Hi).
type Histogram struct {
	Lo, Hi float64
	Counts []int64
	under  int64
	over   int64
}

// NewHistogram creates a histogram with bins uniform bins over [lo, hi).
func NewHistogram(lo, hi float64, bins int) (*Histogram, error) {
	if !(hi > lo) || bins <= 0 {
		return nil, fmt.Errorf("stats: invalid histogram range [%g,%g) with %d bins", lo, hi, bins)
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int64, bins)}, nil
}

// Bin returns the bin index of x, or -1 if x is out of range.
func (h *Histogram) Bin(x float64) int {
	if x < h.Lo || x >= h.Hi {
		return -1
	}
	i := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
	if i >= len(h.Counts) { // fp rounding at the upper edge
		i = len(h.Counts) - 1
	}
	return i
}

// Add records x, tracking out-of-range samples separately.
func (h *Histogram) Add(x float64) {
	i := h.Bin(x)
	switch {
	case i >= 0:
		h.Counts[i]++
	case x < h.Lo:
		h.under++
	default:
		h.over++
	}
}

// Total returns the number of in-range samples.
func (h *Histogram) Total() int64 {
	var t int64
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// Outliers returns the number of samples below and above the range.
func (h *Histogram) Outliers() (under, over int64) { return h.under, h.over }

// BinCenter returns the center of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + (float64(i)+0.5)*w
}
