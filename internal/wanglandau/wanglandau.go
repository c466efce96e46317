// Package wanglandau implements Wang-Landau sampling of the density of
// states, the flat-histogram method DeepThermo parallelizes.
//
// Wang-Landau walks configuration space with acceptance min{1, g(E)/g(E′)}
// against the running estimate of the density of states, multiplying
// g(bin) by e^{ln f} at every visit. When the visit histogram is flat the
// modification factor is reduced (ln f → ln f / 2) and the histogram
// reset; the estimate converges as ln f → 0. Because the acceptance is a
// pure function of energy, any Metropolis proposal — including the
// deep-learning global proposal — plugs in unchanged, which is how the
// paper accelerates the notoriously slow low-energy convergence of WL.
package wanglandau

import (
	"fmt"
	"math"

	"deepthermo/internal/alloy"
	"deepthermo/internal/cacheline"
	"deepthermo/internal/dos"
	"deepthermo/internal/lattice"
	"deepthermo/internal/mc"
	"deepthermo/internal/rng"
)

// Window is an energy range with a bin resolution, the unit of work
// distribution in replica-exchange Wang-Landau.
type Window struct {
	EMin, EMax float64
	Bins       int
}

// Options controls a Wang-Landau run. Zero values select the defaults
// noted on each field.
type Options struct {
	Flatness          float64 // histogram flatness criterion (default 0.8)
	LnFInit           float64 // initial modification factor (default 1.0)
	LnFFinal          float64 // terminate when ln f < this (default 1e-6)
	MaxSweepsPerStage int64   // per-stage safety cutoff (default 200000)
	MaxTotalSweeps    int64   // overall safety cutoff (default 10M)
	// OneOverT enables the Belardinelli-Pereyra 1/t schedule: once the
	// halving schedule would push ln f below bins/steps, the walker
	// switches to ln f = bins/steps updated continuously, which removes
	// the saturation error of pure flatness-driven halving.
	OneOverT bool
	// MinCoverage, when positive, additionally gates flatness on window
	// coverage: the histogram does not count as flat until the walker has
	// visited at least MinCoverage·Bins bins. The historical criterion
	// evaluates flatness over visited bins only, so a walker that has
	// touched a sliver of its window can halve ln f prematurely; the gate
	// closes that hole. Zero (the default) preserves the historical
	// behavior bit-for-bit.
	MinCoverage float64
}

func (o *Options) setDefaults() {
	if o.Flatness == 0 {
		o.Flatness = 0.8
	}
	if o.LnFInit == 0 {
		o.LnFInit = 1
	}
	if o.LnFFinal == 0 {
		o.LnFFinal = 1e-6
	}
	if o.MaxSweepsPerStage == 0 {
		o.MaxSweepsPerStage = 200000
	}
	if o.MaxTotalSweeps == 0 {
		o.MaxTotalSweeps = 10_000_000
	}
}

// StageStat records the convergence of one ln f stage — the per-stage
// sweep counts are the paper's WL convergence metric (experiment E2).
type StageStat struct {
	LnF        float64
	Sweeps     int64
	AcceptRate float64
}

// Result is a completed (or cut off) Wang-Landau run.
type Result struct {
	DOS         *dos.LogDOS
	Stages      []StageStat
	TotalSweeps int64
	Converged   bool // false if a safety cutoff fired first
}

// Walker is a single Wang-Landau walker confined to an energy window. Use
// NewWalker then Run, or drive stages manually with RunStage for the
// replica-exchange driver in package rewl.
//
// A walker owns the cache lines it writes on the step path (package
// cacheline): the sampler and the ln g header live inside the Walker, which
// is a whole number of lines, and ln g, hist, visited and the configuration
// are arrays of whole lines that newWalker allocates and nothing re-points
// afterwards. Walkers of a parallel run are built back to back from one
// goroutine, so without this their state would interleave line by line.
type Walker struct {
	sampler  Sampler
	dosEst   dos.LogDOS
	hist     []int64
	visited  []bool
	lnF      float64
	opts     Options
	sweeps   int64
	steps    int64
	oneOverT bool // in the 1/t phase of the Belardinelli-Pereyra schedule

	// The fields above come to 304 bytes; the pad makes five whole lines.
	// The rewl layout test fails when a new field outgrows it.
	_ [5*cacheline.Size - 304]byte
}

// Sampler aliases mc.Sampler to keep the public surface of this package
// self-describing.
type Sampler = mc.Sampler

// NewWalker creates a walker over window w starting from a copy of cfg,
// whose energy must lie inside the window (see PrepareInWindow).
func NewWalker(m *alloy.Model, cfg lattice.Config, prop mc.Proposal, src *rng.Source, w Window, opts Options) (*Walker, error) {
	wk, err := newWalker(m, len(cfg), prop, src, w, opts)
	if err != nil {
		return nil, err
	}
	copy(wk.sampler.Cfg, cfg)
	wk.sampler.E = m.Energy(wk.sampler.Cfg)
	if wk.dosEst.Bin(wk.sampler.E) < 0 {
		return nil, fmt.Errorf("wanglandau: initial energy %g outside window [%g,%g)", wk.sampler.E, w.EMin, w.EMax)
	}
	wk.lnF = wk.opts.LnFInit
	return wk, nil
}

// newWalker allocates everything a walker owns — the Walker itself and its
// four arrays, each a whole number of cache lines — with ln g unvisited and
// the configuration, energy and schedule left for the caller to fill in.
func newWalker(m *alloy.Model, sites int, prop mc.Proposal, src *rng.Source, w Window, opts Options) (*Walker, error) {
	opts.setDefaults()
	d, err := dos.New(w.EMin, w.EMax, w.Bins)
	if err != nil {
		return nil, err
	}
	wk := &Walker{
		sampler: mc.Sampler{Model: m, Cfg: cacheline.Make[lattice.Species](sites), Src: src, Proposal: prop},
		dosEst:  *d,
		hist:    cacheline.Make[int64](w.Bins),
		visited: cacheline.Make[bool](w.Bins),
		opts:    opts,
	}
	wk.dosEst.LogG = cacheline.Make[float64](w.Bins)
	copy(wk.dosEst.LogG, d.LogG)
	return wk, nil
}

// LnF returns the current modification factor.
func (w *Walker) LnF() float64 { return w.lnF }

// Converged reports whether ln f has reached its final value.
func (w *Walker) Converged() bool { return w.lnF < w.opts.LnFFinal }

// DOS returns the walker's current density-of-states estimate (live; clone
// before mutating).
func (w *Walker) DOS() *dos.LogDOS { return &w.dosEst }

// Energy returns the walker's current configuration energy.
func (w *Walker) Energy() float64 { return w.sampler.E }

// Config returns the walker's live configuration.
func (w *Walker) Config() lattice.Config { return w.sampler.Cfg }

// Sampler returns the underlying Metropolis sampler.
func (w *Walker) Sampler() *mc.Sampler { return &w.sampler }

// Sweep performs one sweep: NumSites Metropolis steps against the
// Wang-Landau weight 1/g(E), each followed by the visit update of the bin
// the walker then sits in.
//
// The current energy is binned once here and carried from step to step, so
// a step bins only its candidate: a rejected move stays in the bin and an
// accepted one moves to the candidate's bin, whose energy E + ΔE is now
// the walker's to the bit (energies are exact). Both ln g values are read
// from LogG at the step, after the previous step's update. A candidate
// outside the window has log acceptance −Inf and is rejected. The walker's
// energy must be inside the window when the sweep starts; NewWalker,
// RestoreWalker and every caller that moves a configuration between
// walkers keep it there.
func (w *Walker) Sweep() {
	s := &w.sampler
	logG := w.dosEst.LogG
	cur := w.dosEst.Bin(s.E)
	if cur < 0 {
		panic(fmt.Sprintf("wanglandau: sweep starts at energy %g outside window [%g,%g)", s.E, w.dosEst.EMin, w.dosEst.EMax()))
	}
	for n := 0; n < len(s.Cfg); n++ {
		dE, lqr := s.Propose()
		newE := s.E + dE
		next := w.dosEst.Bin(newE)
		logA := math.Inf(-1)
		if next >= 0 {
			logA = binLogWeight(logG[next]) - binLogWeight(logG[cur]) + lqr
		}
		if s.Settle(dE, logA) {
			cur = next
		}
		w.steps++
		if w.oneOverT {
			lnF := float64(len(logG)) / float64(w.steps)
			if lnF < w.lnF {
				w.lnF = lnF
			}
		}
		if math.IsInf(logG[cur], -1) {
			logG[cur] = w.lnF
		} else {
			logG[cur] += w.lnF
		}
		w.hist[cur]++
		w.visited[cur] = true
	}
	w.sweeps++
}

// binLogWeight is the Wang-Landau stationary log-density −ln g of a bin
// whose estimate is lg. An unvisited bin counts as g = 1, maximally
// attractive.
func binLogWeight(lg float64) float64 {
	if math.IsInf(lg, -1) {
		return 0
	}
	return -lg
}

// flat reports whether the visit histogram satisfies the flatness
// criterion over the bins visited so far: min(h) ≥ flatness · mean(h).
func (w *Walker) flat() bool {
	var sum int64
	min := int64(math.MaxInt64)
	n := 0
	for i, v := range w.visited {
		if !v {
			continue
		}
		h := w.hist[i]
		sum += h
		if h < min {
			min = h
		}
		n++
	}
	if n < 2 {
		return false
	}
	if w.opts.MinCoverage > 0 && float64(n) < w.opts.MinCoverage*float64(len(w.visited)) {
		return false
	}
	mean := float64(sum) / float64(n)
	return float64(min) >= w.opts.Flatness*mean
}

// FlatnessRatio returns min(h)/mean(h) over the bins visited so far, the
// quantity the flatness criterion thresholds. It is 0 while fewer than two
// bins are visited. Exposed as convergence telemetry for the adaptive
// replica-exchange controller.
func (w *Walker) FlatnessRatio() float64 {
	var sum int64
	min := int64(math.MaxInt64)
	n := 0
	for i, v := range w.visited {
		if !v {
			continue
		}
		h := w.hist[i]
		sum += h
		if h < min {
			min = h
		}
		n++
	}
	if n < 2 || sum == 0 {
		return 0
	}
	return float64(min) * float64(n) / float64(sum)
}

// Coverage returns the fraction of the window's bins the walker has ever
// visited.
func (w *Walker) Coverage() float64 {
	return float64(w.VisitedBins()) / float64(len(w.visited))
}

// Steps returns the total WL steps taken, the clock of the 1/t schedule.
func (w *Walker) Steps() int64 { return w.steps }

// InOneOverTPhase reports whether the walker has switched to the terminal
// 1/t phase of the Belardinelli-Pereyra schedule.
func (w *Walker) InOneOverTPhase() bool { return w.oneOverT }

// Flat reports whether the current-stage visit histogram satisfies the
// flatness criterion. Exposed for the replica-exchange driver.
func (w *Walker) Flat() bool { return w.flat() }

// VisitedBins returns how many energy bins the walker has ever visited —
// the coverage its density-of-states estimate rests on.
func (w *Walker) VisitedBins() int {
	n := 0
	for _, v := range w.visited {
		if v {
			n++
		}
	}
	return n
}

// Sweeps returns the total sweeps performed so far.
func (w *Walker) Sweeps() int64 { return w.sweeps }

// EndStage halves ln f and resets the visit histogram. Exposed for the
// replica-exchange driver, which coordinates stage transitions itself.
// Under the 1/t option, the stage at which halving would undershoot
// bins/steps switches the walker permanently to the 1/t schedule.
func (w *Walker) EndStage() {
	if w.oneOverT {
		// ln f follows 1/t continuously; stages only reset the histogram.
		for i := range w.hist {
			w.hist[i] = 0
		}
		return
	}
	half := w.lnF / 2
	if w.opts.OneOverT {
		if invT := float64(w.dosEst.Bins()) / float64(w.steps+1); half <= invT {
			w.oneOverT = true
		}
	}
	w.lnF = half
	for i := range w.hist {
		w.hist[i] = 0
	}
}

// AdoptConsensus seeds the walker from a window consensus: ln g is
// overwritten with logG, the modification factor set to lnF, and the 1/t
// schedule clock aligned with the window's (steps, oneOverT). The visit
// histogram is reset, and bins with known ln g are marked visited so the
// flatness criterion demands the migrant re-cover the consensus support
// before the window's next stage transition. Used when the adaptive
// replica-exchange controller migrates a walker into a straggler window:
// the migrant inherits the window's progress instead of relearning from a
// flat estimate.
func (w *Walker) AdoptConsensus(logG []float64, lnF float64, steps int64, oneOverT bool) error {
	if len(logG) != w.dosEst.Bins() {
		return fmt.Errorf("wanglandau: consensus has %d bins, window has %d", len(logG), w.dosEst.Bins())
	}
	copy(w.dosEst.LogG, logG)
	for i := range w.hist {
		w.hist[i] = 0
		w.visited[i] = !math.IsInf(logG[i], -1)
	}
	w.lnF = lnF
	w.steps = steps
	w.oneOverT = oneOverT
	return nil
}

// checkInterval is the number of sweeps RunStage runs between flatness
// checks.
const checkInterval = 10

// RunStage sweeps until the histogram is flat or the per-stage cutoff
// fires, then ends the stage. It returns the stage statistics.
func (w *Walker) RunStage() StageStat {
	w.sampler.ResetCounters()
	start := w.sweeps
	for {
		for i := 0; i < checkInterval; i++ {
			w.Sweep()
		}
		if w.flat() || w.sweeps-start >= w.opts.MaxSweepsPerStage {
			break
		}
	}
	stat := StageStat{LnF: w.lnF, Sweeps: w.sweeps - start, AcceptRate: w.sampler.AcceptanceRate()}
	w.EndStage()
	return stat
}

// Run drives the walker to convergence and returns the result.
func (w *Walker) Run() *Result {
	res := &Result{Converged: true}
	for !w.Converged() {
		if w.sweeps >= w.opts.MaxTotalSweeps {
			res.Converged = false
			break
		}
		if w.oneOverT {
			// Terminal 1/t phase: sweep until ln f decays below the
			// target; flatness no longer gates progress.
			start := w.sweeps
			w.sampler.ResetCounters()
			for !w.Converged() && w.sweeps < w.opts.MaxTotalSweeps {
				w.Sweep()
			}
			res.Stages = append(res.Stages, StageStat{
				LnF:        w.lnF,
				Sweeps:     w.sweeps - start,
				AcceptRate: w.sampler.AcceptanceRate(),
			})
			continue
		}
		res.Stages = append(res.Stages, w.RunStage())
	}
	res.DOS = w.dosEst.Clone()
	res.TotalSweeps = w.sweeps
	return res
}

// PrepareInWindow drives cfg (mutating it) until its energy lies within
// [w.EMin, w.EMax): simulated annealing on the distance to the window,
// with a geometric temperature schedule from the initial distance down to
// a fraction of a bin width. Returns the final energy or an error if
// maxSweeps was insufficient (low-energy windows may be unreachable from a
// random start; seed from an annealed configuration in that case). A nil
// error guarantees NewWalker accepts cfg for w.
func PrepareInWindow(m *alloy.Model, cfg lattice.Config, w Window, src *rng.Source, maxSweeps int) (float64, error) {
	if _, err := dos.New(w.EMin, w.EMax, w.Bins); err != nil {
		return 0, err
	}
	e := m.Energy(cfg)
	dist := func(e float64) float64 {
		switch {
		case e < w.EMin:
			return w.EMin - e
		case e >= w.EMax:
			return e - w.EMax
		default:
			return 0
		}
	}
	d := dist(e)
	if d == 0 {
		return e, nil
	}
	n := len(cfg)
	t0 := d
	tEnd := (w.EMax - w.EMin) / float64(w.Bins) / 10
	if tEnd >= t0 {
		tEnd = t0 / 10
	}
	for sweep := 0; sweep < maxSweeps; sweep++ {
		temp := t0 * math.Pow(tEnd/t0, float64(sweep)/float64(maxSweeps))
		for step := 0; step < n; step++ {
			i, j := src.Intn(n), src.Intn(n)
			dE := m.SwapDeltaE(cfg, i, j)
			nd := dist(e + dE)
			if nd <= d || src.Float64() < math.Exp((d-nd)/temp) {
				cfg[i], cfg[j] = cfg[j], cfg[i]
				e += dE // exact: e is m.Energy(cfg), which NewWalker bins
				d = nd
				if d == 0 {
					return e, nil
				}
			}
		}
	}
	return e, fmt.Errorf("wanglandau: failed to reach window [%g,%g) after %d sweeps (E=%g)", w.EMin, w.EMax, maxSweeps, e)
}
