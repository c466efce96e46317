// Package dos represents densities of states in log domain.
//
// The headline claim of the DeepThermo paper is the direct evaluation of a
// density of states spanning ~e^10,000 for a real material. Such a g(E) is
// representable only as ln g(E); every operation here (normalization,
// window merging, canonical averages in package thermo) therefore works in
// log space with log-sum-exp reductions.
package dos

import (
	"fmt"
	"math"
	"sort"
)

// LogDOS is a binned density of states over an energy range, stored as the
// natural log of the number of states per bin. Unvisited bins carry
// math.Inf(-1) so that exp(logG) = 0 for them.
type LogDOS struct {
	EMin     float64   // lower edge of bin 0
	BinWidth float64   // uniform bin width (eV)
	LogG     []float64 // ln g per bin; -Inf for unvisited bins
}

// New creates a LogDOS with all bins unvisited.
func New(eMin, eMax float64, bins int) (*LogDOS, error) {
	if !(eMax > eMin) || bins <= 0 {
		return nil, fmt.Errorf("dos: invalid range [%g,%g) with %d bins", eMin, eMax, bins)
	}
	d := &LogDOS{EMin: eMin, BinWidth: (eMax - eMin) / float64(bins), LogG: make([]float64, bins)}
	for i := range d.LogG {
		d.LogG[i] = math.Inf(-1)
	}
	return d, nil
}

// Bins returns the number of energy bins.
func (d *LogDOS) Bins() int { return len(d.LogG) }

// EMax returns the upper edge of the energy range.
func (d *LogDOS) EMax() float64 { return d.EMin + d.BinWidth*float64(len(d.LogG)) }

// Bin returns the bin index containing energy e, or -1 if out of range
// (NaN included). The range is checked on the float before it is converted:
// Go leaves the int conversion of a float beyond the int range to the
// implementation.
func (d *LogDOS) Bin(e float64) int {
	if !(e >= d.EMin) {
		return -1
	}
	if x := (e - d.EMin) / d.BinWidth; x < float64(len(d.LogG)) {
		return int(x)
	}
	if e < d.EMax()+1e-9*d.BinWidth { // tolerate fp at the top edge
		return len(d.LogG) - 1
	}
	return -1
}

// BinEnergy returns the center energy of bin i.
func (d *LogDOS) BinEnergy(i int) float64 {
	return d.EMin + (float64(i)+0.5)*d.BinWidth
}

// Visited reports whether bin i has a finite entry.
func (d *LogDOS) Visited(i int) bool { return !math.IsInf(d.LogG[i], -1) }

// VisitedRange returns the first and last visited bin indices, or ok=false
// if no bin is visited.
func (d *LogDOS) VisitedRange() (lo, hi int, ok bool) {
	lo, hi = -1, -1
	for i := range d.LogG {
		if d.Visited(i) {
			if lo < 0 {
				lo = i
			}
			hi = i
		}
	}
	return lo, hi, lo >= 0
}

// Span returns max ln g − min ln g over visited bins: the "range" of the
// density of states in the paper's sense (a span of ~10,000 means g spans
// ~e^10,000). Returns 0 if fewer than one bin is visited.
func (d *LogDOS) Span() float64 {
	min, max := math.Inf(1), math.Inf(-1)
	for i, lg := range d.LogG {
		if !d.Visited(i) {
			continue
		}
		if lg < min {
			min = lg
		}
		if lg > max {
			max = lg
		}
	}
	if math.IsInf(max, -1) {
		return 0
	}
	return max - min
}

// Clone returns a deep copy.
func (d *LogDOS) Clone() *LogDOS {
	out := &LogDOS{EMin: d.EMin, BinWidth: d.BinWidth, LogG: make([]float64, len(d.LogG))}
	copy(out.LogG, d.LogG)
	return out
}

// Shift adds c to every visited bin. Shifting ln g is the gauge freedom of
// Wang-Landau sampling: only differences of ln g are determined.
func (d *LogDOS) Shift(c float64) {
	for i := range d.LogG {
		if d.Visited(i) {
			d.LogG[i] += c
		}
	}
}

// LogTotal returns ln Σ_i g_i over visited bins (log-sum-exp).
func (d *LogDOS) LogTotal() float64 {
	return LogSumExp(d.LogG)
}

// NormalizeTo shifts the DOS so its log-total equals logTotal, typically
// ln(number of states), e.g. N·ln k for a k-species semi-grand ensemble or
// the log multinomial coefficient at fixed composition.
func (d *LogDOS) NormalizeTo(logTotal float64) {
	cur := d.LogTotal()
	if math.IsInf(cur, -1) {
		return
	}
	d.Shift(logTotal - cur)
}

// LogSumExp returns ln Σ exp(xs[i]), ignoring -Inf entries; it returns
// -Inf when all entries are -Inf.
func LogSumExp(xs []float64) float64 {
	max := math.Inf(-1)
	for _, x := range xs {
		if x > max {
			max = x
		}
	}
	if math.IsInf(max, -1) {
		return max
	}
	var s float64
	for _, x := range xs {
		if !math.IsInf(x, -1) {
			s += math.Exp(x - max)
		}
	}
	return max + math.Log(s)
}

// LogMultinomial returns ln(n! / Π counts[i]!), the log of the number of
// distinct arrangements at fixed composition; it validates Σcounts == n.
func LogMultinomial(n int, counts []int) (float64, error) {
	sum := 0
	for _, c := range counts {
		if c < 0 {
			return 0, fmt.Errorf("dos: negative count %d", c)
		}
		sum += c
	}
	if sum != n {
		return 0, fmt.Errorf("dos: counts sum to %d, want %d", sum, n)
	}
	lg := logFactorial(n)
	for _, c := range counts {
		lg -= logFactorial(c)
	}
	return lg, nil
}

func logFactorial(n int) float64 {
	lg, _ := math.Lgamma(float64(n) + 1)
	return lg
}

// Merge stitches DOS windows with overlapping energy ranges into one DOS.
// All windows must share the same bin width and have bin edges on a common
// grid. In each pairwise overlap the windows are aligned by the average
// difference of ln g over jointly visited bins (the standard replica-
// exchange Wang-Landau merge), then jointly visited bins are averaged.
func Merge(windows []*LogDOS) (*LogDOS, error) {
	if len(windows) == 0 {
		return nil, fmt.Errorf("dos: no windows to merge")
	}
	w := windows[0].BinWidth
	for _, d := range windows {
		if math.Abs(d.BinWidth-w) > 1e-12*w {
			return nil, fmt.Errorf("dos: bin width mismatch: %g vs %g", d.BinWidth, w)
		}
		off := (d.EMin - windows[0].EMin) / w
		if math.Abs(off-math.Round(off)) > 1e-6 {
			return nil, fmt.Errorf("dos: window grids misaligned (offset %g bins)", off)
		}
	}
	// Sort by EMin so overlaps are between consecutive windows.
	sorted := make([]*LogDOS, len(windows))
	copy(sorted, windows)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].EMin < sorted[j].EMin })

	eMin, eMax := sorted[0].EMin, sorted[0].EMax()
	for _, d := range sorted[1:] {
		if d.EMin < eMin {
			eMin = d.EMin
		}
		if d.EMax() > eMax {
			eMax = d.EMax()
		}
	}
	bins := int(math.Round((eMax - eMin) / w))
	out, err := New(eMin, eMax, bins)
	if err != nil {
		return nil, err
	}
	counts := make([]int, bins)

	shift := 0.0 // cumulative alignment of the current window chain
	var prev *LogDOS
	prevShift := 0.0
	for wi, d := range sorted {
		if wi > 0 {
			delta, n := overlapShift(prev, d)
			if n == 0 {
				return nil, fmt.Errorf("dos: windows %d and %d share no visited bins; cannot align", wi-1, wi)
			}
			shift = prevShift + delta
		}
		base := int(math.Round((d.EMin - eMin) / w))
		for i, lg := range d.LogG {
			if !d.Visited(i) {
				continue
			}
			gi := base + i
			v := lg + shift
			if counts[gi] == 0 {
				out.LogG[gi] = v
			} else {
				out.LogG[gi] = (out.LogG[gi]*float64(counts[gi]) + v) / float64(counts[gi]+1)
			}
			counts[gi]++
		}
		prev, prevShift = d, shift
	}
	return out, nil
}

// overlapShift returns the mean of (a − b) over bins visited in both
// windows, i.e. the constant to add to b to align it with a, and the number
// of overlapping visited bins.
func overlapShift(a, b *LogDOS) (delta float64, n int) {
	// Walk the overlap in b's coordinates.
	w := a.BinWidth
	offset := int(math.Round((b.EMin - a.EMin) / w))
	for i := range b.LogG {
		ai := i + offset
		if ai < 0 || ai >= len(a.LogG) {
			continue
		}
		if a.Visited(ai) && b.Visited(i) {
			delta += a.LogG[ai] - b.LogG[i]
			n++
		}
	}
	if n > 0 {
		delta /= float64(n)
	}
	return delta, n
}
