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

// This file implements ablation A6, the ln f-driven mixture schedule. The
// latent-draw mode (A2) needs no function of its own: it is E1's dl-walk
// and dl-jump columns. A1 (VAE KL weight), A3 (DL fraction), A4 (WL
// schedule) and A5 (allreduce schedule) are recorded in EXPERIMENTS.md;
// their drivers were removed.

// A6Row is one mixture policy's Wang-Landau outcome.
type A6Row struct {
	Policy string
	Sweeps int64 // total sweeps over the timed stages
	Bins   float64
}

// A6Result is the mixture-schedule ablation: E2 showed the DL gain is
// front-loaded (exploration) while late refinement favors cheap local
// moves; a ln f-driven weight schedule should capture both regimes.
type A6Result struct {
	Rows    []A6Row
	Speedup float64 // fixed-0.2 sweeps / scheduled sweeps
}

// AblationScheduledMixture compares fixed DL weights against a schedule
// that decays the DL fraction as ln f shrinks (w = wHi while ln f ≥ 0.1,
// then wLo), all over the same low-energy window and stage count.
func AblationScheduledMixture(sys *deepthermo.System, stages int) (*A6Result, error) {
	if stages == 0 {
		stages = 8
	}
	win, err := e2Window(sys.Dataset(), 0.55)
	if err != nil {
		return nil, err
	}
	wlOpts := wanglandau.Options{Flatness: 0.8, LnFFinal: 1e-12, MaxSweepsPerStage: 100000}
	const repeats = 3

	run := func(policy string, seed uint64) (int64, float64, error) {
		var total int64
		var bins float64
		for rep := 0; rep < repeats; rep++ {
			src := rng.New(seed + uint64(rep)*0x2000)
			cfg := lattice.QuotaConfig(sys.Quota, src)
			if _, err := wanglandau.PrepareInWindow(sys.Ham, cfg, win, src, 5000); err != nil {
				return 0, 0, err
			}
			var prop mc.Proposal
			var mix *mc.Mixture
			switch policy {
			case "swap-only":
				prop = mc.NewSwapProposal(sys.Ham)
			default:
				mix = newMixtureProposal(sys, 500, 0.2, mc.WalkPosterior, src)
				prop = mix
			}
			w, err := wanglandau.NewWalker(sys.Ham, cfg, prop, src, win, wlOpts)
			if err != nil {
				return 0, 0, err
			}
			for s := 0; s < stages; s++ {
				if mix != nil {
					dl := 0.2
					switch policy {
					case "fixed-0.4":
						dl = 0.4
					case "scheduled":
						if w.LnF() >= 0.1 {
							dl = 0.5 // exploration: DL-heavy
						} else {
							dl = 0.05 // refinement: local-heavy
						}
					}
					mix.SetWeights([]float64{1 - dl, dl})
				}
				st := w.RunStage()
				total += st.Sweeps
			}
			bins += float64(w.VisitedBins())
		}
		return total / repeats, bins / repeats, nil
	}

	res := &A6Result{}
	var fixed02 int64
	for i, policy := range []string{"swap-only", "fixed-0.2", "fixed-0.4", "scheduled"} {
		sweeps, bins, err := run(policy, sys.Seed()+980+uint64(i)*23)
		if err != nil {
			return nil, fmt.Errorf("experiments: A6 %s: %w", policy, err)
		}
		res.Rows = append(res.Rows, A6Row{Policy: policy, Sweeps: sweeps, Bins: bins})
		if policy == "fixed-0.2" {
			fixed02 = sweeps
		}
		if policy == "scheduled" && sweeps > 0 {
			res.Speedup = float64(fixed02) / float64(sweeps)
		}
	}
	return res, nil
}

// e2Window reproduces the E2 window construction (lower windowFrac of the
// training data's energy range, padded).
func e2Window(ds *deepthermo.Dataset, windowFrac float64) (wanglandau.Window, error) {
	if ds == nil || len(ds.Energies) == 0 {
		return wanglandau.Window{}, fmt.Errorf("experiments: the system has no training data")
	}
	lo, hi := ds.Energies[0], ds.Energies[0]
	for _, e := range ds.Energies {
		if e < lo {
			lo = e
		}
		if e > hi {
			hi = e
		}
	}
	pad := 0.02 * (hi - lo)
	hi = lo + (hi-lo)*windowFrac
	return wanglandau.Window{EMin: lo - pad, EMax: hi + pad, Bins: 24}, nil
}

// Format renders the A6 table.
func (r *A6Result) Format() string {
	var b strings.Builder
	b.WriteString(fmtHeader("A6", "ablation: mixture weight schedule over WL stages"))
	fmt.Fprintf(&b, "%12s %12s %10s\n", "policy", "sweeps", "coverage")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%12s %12d %10.1f\n", row.Policy, row.Sweeps, row.Bins)
	}
	fmt.Fprintf(&b, "scheduled vs fixed-0.2: %.2fx\n", r.Speedup)
	return b.String()
}
