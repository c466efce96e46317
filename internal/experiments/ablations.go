package experiments

import (
	"fmt"
	"strings"

	"deepthermo/internal/alloy"
	"deepthermo/internal/dos"
	"deepthermo/internal/hpcsim"
	"deepthermo/internal/lattice"
	"deepthermo/internal/mc"
	"deepthermo/internal/rng"
	"deepthermo/internal/train"
	"deepthermo/internal/vae"
	"deepthermo/internal/wanglandau"
)

// This file implements the ablation studies DESIGN.md calls out for the
// reproduction's own design choices: the KL weight of the proposal VAE
// (A1), the DL fraction in the production mixture (A3), the Wang-Landau
// schedule (A4), the allreduce schedule of the machine model (A5), and the
// ln f-driven mixture schedule (A6). The latent-draw mode (A2) needs no
// function of its own: it is E1's dl-walk and dl-jump columns.

// A1Row is one KL weight's outcome.
type A1Row struct {
	BetaKL  float64
	Recon   float64
	KL      float64
	Acc300  float64 // DL acceptance at 300 K
	Acc1000 float64
}

// A1Result is the KL-weight ablation: reconstruction quality trades off
// against proposal acceptance, because an over-informative latent space
// makes the decoder sharp on states the walker is not in.
type A1Result struct{ Rows []A1Row }

// AblationKLWeight retrains the proposal VAE at several KL weights on the
// testbed dataset and measures acceptance at a cold and a warm temperature.
func AblationKLWeight(tb *Testbed, betas []float64, epochs int) (*A1Result, error) {
	if betas == nil {
		betas = []float64{1.0, 0.5, 0.2}
	}
	if epochs == 0 {
		epochs = 30
	}
	res := &A1Result{}
	for bi, beta := range betas {
		vcfg := tb.Model.Config()
		vcfg.BetaKL = beta
		model, err := vae.New(vcfg, rng.New(tb.Seed+900+uint64(bi)))
		if err != nil {
			return nil, err
		}
		stats, err := train.Fit(model, tb.Dataset, train.Options{
			Epochs: epochs, BatchSize: 32, LR: 2e-3, Seed: tb.Seed + 901, KLWarmupEpochs: epochs / 3,
		})
		if err != nil {
			return nil, err
		}
		last := stats[len(stats)-1]
		row := A1Row{BetaKL: beta, Recon: last.Recon, KL: last.KL}
		row.Acc300 = measureAcceptance(tb, model, 300, tb.Seed+902)
		row.Acc1000 = measureAcceptance(tb, model, 1000, tb.Seed+903)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// measureAcceptance equilibrates with swaps, then measures the DL
// proposal's acceptance over 300 decisions.
func measureAcceptance(tb *Testbed, model *vae.Model, tKelvin float64, seed uint64) float64 {
	src := rng.New(seed)
	cfg := QuotaConfig(tb.Quota, src)
	eq := mc.NewSampler(tb.Ham, cfg, mc.NewSwapProposal(tb.Ham), src)
	for i := 0; i < 300; i++ {
		eq.Sweep(tKelvin)
	}
	prop := mc.NewGlobalProposal(model.CloneWeights(src), tb.Ham, tb.Quota, mc.CondForT(tKelvin))
	s := mc.NewSampler(tb.Ham, eq.Cfg, prop, src)
	beta := 1 / (alloy.KB * tKelvin)
	for i := 0; i < 300; i++ {
		s.StepCanonical(beta)
	}
	return s.AcceptanceRate()
}

// Format renders the A1 table.
func (r *A1Result) Format() string {
	var b strings.Builder
	b.WriteString(fmtHeader("A1", "ablation: VAE KL weight vs proposal acceptance"))
	fmt.Fprintf(&b, "%8s %10s %8s %12s %12s\n", "βKL", "recon", "KL", "acc@300K", "acc@1000K")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%8.2f %10.2f %8.2f %12.3f %12.3f\n", row.BetaKL, row.Recon, row.KL, row.Acc300, row.Acc1000)
	}
	return b.String()
}

// A3Row is one DL-mixture-weight outcome of the WL convergence study.
type A3Row struct {
	DLWeight float64
	Speedup  float64
	MixBins  float64 // final coverage
}

// A3Result is the DL-fraction ablation for the production mixture.
type A3Result struct{ Rows []A3Row }

// AblationDLWeight reruns the E2 convergence comparison at several mixture
// weights.
func AblationDLWeight(tb *Testbed, weights []float64) (*A3Result, error) {
	if weights == nil {
		weights = []float64{0.05, 0.2, 0.4}
	}
	res := &A3Result{}
	for wi, w := range weights {
		conv, err := WLConvergence(tb, E2Options{
			Stages:   6,
			DLWeight: w,
			Repeats:  2,
			Seed:     tb.Seed + 950 + uint64(wi)*17,
		})
		if err != nil {
			return nil, err
		}
		last := conv.Rows[len(conv.Rows)-1]
		res.Rows = append(res.Rows, A3Row{DLWeight: w, Speedup: conv.Speedup, MixBins: last.MixBins})
	}
	return res, nil
}

// Format renders the A3 table.
func (r *A3Result) Format() string {
	var b strings.Builder
	b.WriteString(fmtHeader("A3", "ablation: DL fraction in the proposal mixture (WL convergence)"))
	fmt.Fprintf(&b, "%10s %10s %12s\n", "dl weight", "speedup", "coverage")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%10.2f %10.2f %12.1f\n", row.DLWeight, row.Speedup, row.MixBins)
	}
	return b.String()
}

// A4Row is one WL schedule's validation outcome.
type A4Row struct {
	Schedule string
	RMS      float64
	Sweeps   int64
}

// A4Result is the Wang-Landau schedule ablation (halving vs 1/t) on the
// exactly enumerable 16-site system.
type A4Result struct{ Rows []A4Row }

// AblationWLSchedule compares the flatness-halving and 1/t schedules
// against exact enumeration at equal final ln f.
func AblationWLSchedule(lnFFinal float64, seed uint64) (*A4Result, error) {
	if lnFFinal == 0 {
		lnFFinal = 1e-5
	}
	if seed == 0 {
		seed = 61
	}
	lat := lattice.MustNew(lattice.BCC, 2, 2, 2)
	m := alloy.BinaryOrdering(lat, 0.04)
	exact, err := dos.EnumerateFixedComposition(m, []int{8, 8})
	if err != nil {
		return nil, err
	}
	exDOS, err := exact.ToLogDOS(0.04)
	if err != nil {
		return nil, err
	}

	res := &A4Result{}
	for _, mode := range []struct {
		name     string
		oneOverT bool
	}{{"halving", false}, {"1/t", true}} {
		src := rng.New(seed)
		cfg := lattice.EquiatomicConfig(lat, 2, src)
		w, err := wanglandau.NewWalker(m, cfg, mc.NewSwapProposal(m), src,
			wanglandau.Window{EMin: exDOS.EMin, EMax: exDOS.EMax(), Bins: exDOS.Bins()},
			wanglandau.Options{LnFFinal: lnFFinal, OneOverT: mode.oneOverT})
		if err != nil {
			return nil, err
		}
		run := w.Run()
		rms, _, err := dos.RMSLogError(run.DOS, exDOS)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, A4Row{Schedule: mode.name, RMS: rms, Sweeps: run.TotalSweeps})
	}
	return res, nil
}

// Format renders the A4 table.
func (r *A4Result) Format() string {
	var b strings.Builder
	b.WriteString(fmtHeader("A4", "ablation: Wang-Landau schedule vs exact enumeration (16-site binary)"))
	fmt.Fprintf(&b, "%10s %12s %12s\n", "schedule", "rms ln g", "sweeps")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%10s %12.4f %12d\n", row.Schedule, row.RMS, row.Sweeps)
	}
	return b.String()
}

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
func AblationScheduledMixture(tb *Testbed, stages int) (*A6Result, error) {
	if stages == 0 {
		stages = 8
	}
	win, err := e2Window(tb, 0.55)
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
			cfg := QuotaConfig(tb.Quota, src)
			if _, err := wanglandau.PrepareInWindow(tb.Ham, cfg, win, src, 5000); err != nil {
				return 0, 0, err
			}
			var prop mc.Proposal
			var mix *mc.Mixture
			switch policy {
			case "swap-only":
				prop = mc.NewSwapProposal(tb.Ham)
			default:
				mix = mc.NewMixture(
					[]mc.Proposal{mc.NewSwapProposal(tb.Ham), tb.NewDLProposal(500, mc.WalkPosterior, src)},
					[]float64{0.8, 0.2},
				)
				prop = mix
			}
			w, err := wanglandau.NewWalker(tb.Ham, cfg, prop, src, win, wlOpts)
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
		sweeps, bins, err := run(policy, tb.Seed+980+uint64(i)*23)
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
func e2Window(tb *Testbed, windowFrac float64) (wanglandau.Window, error) {
	if len(tb.Dataset.Energies) == 0 {
		return wanglandau.Window{}, fmt.Errorf("experiments: testbed has no dataset")
	}
	lo, hi := tb.Dataset.Energies[0], tb.Dataset.Energies[0]
	for _, e := range tb.Dataset.Energies {
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

// A5Row is one device count's allreduce comparison.
type A5Row struct {
	Devices      int
	FlatRing     float64 // seconds
	Hierarchical float64 // seconds
}

// A5Result is the allreduce-schedule ablation of the machine model: the
// hierarchical schedule is why gradient allreduce stays affordable at
// 3,072 devices.
type A5Result struct {
	Machine string
	Bytes   float64
	Rows    []A5Row
}

// AblationAllreduce compares flat-ring and hierarchical allreduce times
// for the paper-scale gradient payload.
func AblationAllreduce(m hpcsim.Machine, payloadBytes float64, deviceCounts []int) *A5Result {
	if deviceCounts == nil {
		deviceCounts = []int{8, 96, 768, 3072}
	}
	if payloadBytes == 0 {
		payloadBytes = 2 * float64(VAEModelForSites(8192))
	}
	res := &A5Result{Machine: m.Name, Bytes: payloadBytes}
	for _, n := range deviceCounts {
		res.Rows = append(res.Rows, A5Row{
			Devices:      n,
			FlatRing:     m.RingAllreduceTime(n, payloadBytes),
			Hierarchical: m.HierarchicalAllreduceTime(n, payloadBytes),
		})
	}
	return res
}

// Format renders the A5 table.
func (r *A5Result) Format() string {
	var b strings.Builder
	b.WriteString(fmtHeader("A5", fmt.Sprintf("ablation: allreduce schedule, %.0f MB payload on %s", r.Bytes/1e6, r.Machine)))
	fmt.Fprintf(&b, "%8s %14s %14s %8s\n", "devices", "flat ring (s)", "hierarch (s)", "ratio")
	for _, row := range r.Rows {
		ratio := 0.0
		if row.Hierarchical > 0 {
			ratio = row.FlatRing / row.Hierarchical
		}
		fmt.Fprintf(&b, "%8d %14.5f %14.5f %8.2f\n", row.Devices, row.FlatRing, row.Hierarchical, ratio)
	}
	return b.String()
}
