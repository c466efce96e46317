package experiments

import (
	"fmt"
	"strings"

	"deepthermo"
	"deepthermo/internal/alloy"
	"deepthermo/internal/lattice"
	"deepthermo/internal/mc"
	"deepthermo/internal/rng"
)

// E1Options configures the acceptance-vs-temperature study.
type E1Options struct {
	Temps       []float64 // default 300..3000 in 6 points
	StepsPerT   int       // Metropolis decisions per proposal kind (default 400)
	EquilSweeps int       // swap equilibration before measuring (default 300)
	KSwap       int       // K for the unguided global baseline (default N/4)
	IncludeJump bool      // also measure the JumpPrior DL mode
	Seed        uint64
}

// E1Row is one temperature's acceptance rates and effective update sizes.
type E1Row struct {
	T float64
	// Acceptance per proposal.
	Swap, KSwap, DLWalk, DLJump float64
	// SitesPerStep is acceptance × sites changed per accepted move: the
	// effective configuration turnover each proposal achieves per
	// Metropolis decision.
	SwapSites, KSwapSites, DLWalkSites float64
}

// E1Result is the acceptance-vs-temperature table (reconstructed Fig. E1).
type E1Result struct {
	Sites int
	KSwap int
	Rows  []E1Row
}

// AcceptanceVsTemperature measures, at each temperature, the Metropolis
// acceptance rate of the local swap baseline, the unguided K-site global
// swap, and the DL global proposal. The paper's claim (2): learned global
// updates retain usable acceptance where unguided global updates collapse.
func AcceptanceVsTemperature(sys *deepthermo.System, opts E1Options) (*E1Result, error) {
	if opts.Temps == nil {
		opts.Temps = []float64{300, 600, 1000, 1500, 2000, 3000}
	}
	if opts.StepsPerT == 0 {
		opts.StepsPerT = 400
	}
	if opts.EquilSweeps == 0 {
		opts.EquilSweeps = 300
	}
	n := sys.Lat.NumSites()
	if opts.KSwap == 0 {
		opts.KSwap = n / 4
	}
	if opts.Seed == 0 {
		opts.Seed = sys.Seed() + 100
	}

	res := &E1Result{Sites: n, KSwap: opts.KSwap}
	for ti, t := range opts.Temps {
		src := rng.New(opts.Seed + uint64(ti)*0x51)
		beta := 1 / (alloy.KB * t)

		// Equilibrate one configuration with local swaps, then measure
		// every proposal from clones of it.
		cfg := lattice.QuotaConfig(sys.Quota, src)
		eq := mc.NewSampler(sys.Ham, cfg, mc.NewSwapProposal(sys.Ham), src)
		for i := 0; i < opts.EquilSweeps; i++ {
			eq.Sweep(t)
		}

		row := E1Row{T: t}

		measure := func(prop mc.Proposal) (acc float64, sites float64) {
			s := mc.NewSampler(sys.Ham, eq.Cfg.Clone(), prop, rng.New(opts.Seed+uint64(ti)*0x97+1))
			hamBefore := int64(0)
			if gp, ok := prop.(*mc.GlobalProposal); ok {
				hamBefore = gp.AcceptedSiteChanges()
			}
			for i := 0; i < opts.StepsPerT; i++ {
				s.StepCanonical(beta)
			}
			acc = s.AcceptanceRate()
			switch p := prop.(type) {
			case *mc.GlobalProposal:
				sites = float64(p.AcceptedSiteChanges()-hamBefore) / float64(opts.StepsPerT)
			case *mc.SwapProposal:
				sites = 2 * acc
			case *mc.KSwapProposal:
				sites = 2 * float64(p.K) * acc
			}
			return acc, sites
		}

		row.Swap, row.SwapSites = measure(mc.NewSwapProposal(sys.Ham))
		row.KSwap, row.KSwapSites = measure(mc.NewKSwapProposal(sys.Ham, opts.KSwap))
		row.DLWalk, row.DLWalkSites = measure(newDLProposal(sys, t, mc.WalkPosterior, src))
		if opts.IncludeJump {
			row.DLJump, _ = measure(newDLProposal(sys, t, mc.JumpPrior, src))
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Format renders the E1 table.
func (r *E1Result) Format() string {
	var b strings.Builder
	b.WriteString(fmtHeader("E1", fmt.Sprintf("proposal acceptance vs temperature (N=%d, K-swap K=%d)", r.Sites, r.KSwap)))
	fmt.Fprintf(&b, "%8s %12s %12s %12s %12s | %14s %14s %14s\n",
		"T(K)", "swap", "k-swap", "dl-walk", "dl-jump", "swap sites/st", "kswap sites/st", "dl sites/st")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%8.0f %12.3f %12.3f %12.3f %12.3f | %14.3f %14.3f %14.3f\n",
			row.T, row.Swap, row.KSwap, row.DLWalk, row.DLJump,
			row.SwapSites, row.KSwapSites, row.DLWalkSites)
	}
	return b.String()
}
