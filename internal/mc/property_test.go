package mc

import (
	"fmt"
	"math"
	"testing"

	"deepthermo/internal/alloy"
	"deepthermo/internal/lattice"
	"deepthermo/internal/rng"
	"deepthermo/internal/vae"
)

// Property-based proposal-correctness tests: randomized (but seeded and
// fully reproducible) detailed-balance checks across skewed compositions.
// Symmetric proposals (Swap, KSwap) are checked statistically — the
// empirical forward and reverse transition frequencies between sampled
// state pairs must agree — and the DL proposal is checked exactly: the MH
// correction Propose returns must equal the forward/reverse density ratio
// recomputed from first principles with a fresh model and the unfused
// density primitives.

// skewedQuota draws a random skewed composition of k species over n sites:
// every species gets at least one atom, the rest multinomial-ish via random
// cuts, so rare-species corner cases appear regularly.
func skewedQuota(n, k int, src *rng.Source) []int {
	quota := make([]int, k)
	for a := range quota {
		quota[a] = 1
	}
	for i := k; i < n; i++ {
		quota[src.Intn(k)]++
	}
	return quota
}

func quotaConfig(quota []int, src *rng.Source) lattice.Config {
	cfg := make(lattice.Config, 0)
	for sp, q := range quota {
		for i := 0; i < q; i++ {
			cfg = append(cfg, lattice.Species(sp))
		}
	}
	src.Shuffle(len(cfg), func(i, j int) { cfg[i], cfg[j] = cfg[j], cfg[i] })
	return cfg
}

func cfgKey(cfg lattice.Config) string { return string(fmt.Append(nil, cfg)) }

// sampleTransitionCount draws trials proposals from base and counts how
// many land exactly on target (proposals are rolled back after each draw).
func sampleTransitionCount(p Proposal, base, target lattice.Config, src *rng.Source, trials int) int {
	cfg := make(lattice.Config, len(base))
	copy(cfg, base)
	hits := 0
	for i := 0; i < trials; i++ {
		p.Propose(cfg, 0, src)
		if cfgKey(cfg) == cfgKey(target) {
			hits++
		}
		p.Reject(cfg)
	}
	return hits
}

// checkSymmetricTransitions verifies q(x→y) == q(y→x) empirically for a
// proposal that claims a zero MH correction: y is itself drawn from x, so
// the checked transition always has mass in both directions.
func checkSymmetricTransitions(t *testing.T, mk func() Proposal, quota []int, seed uint64, trials int) {
	t.Helper()
	src := rng.New(seed)
	x := quotaConfig(quota, src)

	// Draw a reachable y ≠ x.
	p := mk()
	y := make(lattice.Config, len(x))
	copy(y, x)
	for tries := 0; cfgKey(y) == cfgKey(x); tries++ {
		if tries > 100 {
			t.Fatal("proposal never left the initial state")
		}
		copy(y, x)
		p.Propose(y, 0, src)
		p.Accept()
	}

	fwd := sampleTransitionCount(mk(), x, y, rng.New(seed+1), trials)
	rev := sampleTransitionCount(mk(), y, x, rng.New(seed+2), trials)
	if fwd == 0 || rev == 0 {
		t.Fatalf("vacuous symmetry check: fwd=%d rev=%d hits in %d trials", fwd, rev, trials)
	}
	// Binomial comparison: under symmetry both counts estimate the same
	// probability; 5σ on the difference keeps the seeded test deterministic
	// while catching the asymmetries this suite exists for (the PR 5
	// SwapProposal retry bug skewed rare-species pair rates by >10%).
	diff := math.Abs(float64(fwd - rev))
	sigma := math.Sqrt(float64(fwd + rev))
	if diff > 5*sigma+1 {
		t.Errorf("asymmetric transitions: %d forward vs %d reverse hits (Δ=%g > 5σ=%g)", fwd, rev, diff, 5*sigma)
	}
}

// TestSwapDetailedBalanceProperty checks Swap's claimed symmetry across
// randomized skewed binary/ternary/quaternary compositions.
func TestSwapDetailedBalanceProperty(t *testing.T) {
	lat := lattice.MustNew(lattice.SC, 2, 2, 2)
	m := alloy.NbMoTaW(lat) // 4-species EPI covers every k below
	for iter := 0; iter < 6; iter++ {
		seed := uint64(9000 + iter*17)
		k := 2 + iter%3
		quota := skewedQuota(8, k, rng.New(seed))
		t.Run(fmt.Sprintf("seed%d_quota%v", seed, quota), func(t *testing.T) {
			checkSymmetricTransitions(t, func() Proposal { return NewSwapProposal(m) }, quota, seed, 60000)
		})
	}
}

// TestKSwapDetailedBalanceProperty does the same for the K-simultaneous
// swap across K ∈ {2, 3}.
func TestKSwapDetailedBalanceProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical transition sampling skipped in -short mode")
	}
	lat := lattice.MustNew(lattice.SC, 2, 2, 2)
	m := alloy.NbMoTaW(lat)
	for iter := 0; iter < 4; iter++ {
		seed := uint64(9500 + iter*13)
		k := 2 + iter%2
		quota := skewedQuota(8, 2+iter%2, rng.New(seed))
		t.Run(fmt.Sprintf("seed%d_k%d_quota%v", seed, k, quota), func(t *testing.T) {
			checkSymmetricTransitions(t, func() Proposal { return NewKSwapProposal(m, k) }, quota, seed, 80000)
		})
	}
}

// dlPropertyCase pins one randomized DL-proposal scenario.
type dlPropertyCase struct {
	mode      GlobalMode
	tKelvin   float64 // the proposal's conditioning temperature
	modelSeed uint64
	chainSeed uint64
}

// TestDLProposalCorrectionExact recomputes the DL proposal's MH correction
// from first principles after every move of a running chain and requires
// bit-equality with what Propose returned. The recomputation uses a FRESH
// model (same weights, no shared scratch or caches) and the allocating
// reference density (vae.LogProbConstrained), so it independently
// validates the fused sample-and-reverse pass, the encoder-posterior
// cache, and the scratch-arena reuse — across skewed compositions and both
// latent modes.
func TestDLProposalCorrectionExact(t *testing.T) {
	lat := lattice.MustNew(lattice.BCC, 3, 3, 3)
	ham := alloy.NbMoTaW(lat)
	const n = 54

	cases := []dlPropertyCase{
		{WalkPosterior, 1000, 301, 401},
		{JumpPrior, 1400, 305, 405},
	}
	for _, pc := range cases {
		pc := pc
		t.Run(pc.mode.String(), func(t *testing.T) {
			qsrc := rng.New(pc.chainSeed + 7)
			quota := skewedQuota(n, 4, qsrc)
			vcfg := vae.Config{Sites: n, Species: 4, Latent: 4, Hidden: 16, BetaKL: 1}
			model, err := vae.New(vcfg, rng.New(pc.modelSeed))
			if err != nil {
				t.Fatal(err)
			}
			fresh, _ := vae.New(vcfg, rng.New(pc.modelSeed)) // independent verifier
			p := NewGlobalProposal(model, ham, quota, CondForT(pc.tKelvin))
			p.SetMode(pc.mode)

			src := rng.New(pc.chainSeed)
			dec := rng.New(pc.chainSeed + 1)
			cfg := quotaConfig(quota, src)
			curE := ham.Energy(cfg)
			beta := 1 / (alloy.KB * 1200)

			for step := 0; step < 30; step++ {
				dE, logQ := p.Propose(cfg, curE, src)

				// Recompute every term of the correction independently.
				probs := fresh.DecodeProbs(p.z, p.cond)
				logFwd, err := vae.LogProbConstrained(probs, p.cand, quota, p.order)
				if err != nil {
					t.Fatal(err)
				}
				logRev, err := vae.LogProbConstrained(probs, p.backup, quota, p.order)
				if err != nil {
					t.Fatal(err)
				}
				var latent float64
				if pc.mode == WalkPosterior {
					muX, lvX := fresh.Encode(p.backup, p.cond)
					muC, lvC := fresh.Encode(p.cand, p.cond)
					latent = vae.LogNormalPDF(p.z, muC, lvC) - vae.LogNormalPDF(p.z, muX, lvX)
				}
				want := logRev - logFwd + latent
				if math.Float64bits(logQ) != math.Float64bits(want) {
					t.Fatalf("step %d: Propose correction %x != first-principles %x (Δ=%g)",
						step, logQ, want, logQ-want)
				}
				if wantDE := ham.Energy(cfg) - curE; math.Float64bits(dE) != math.Float64bits(wantDE) {
					t.Fatalf("step %d: dE %x != recomputed %x", step, dE, wantDE)
				}

				// Advance the chain with a standard MH decision so later
				// steps exercise the Accept/Reject posterior-cache paths.
				logA := -beta*dE + logQ
				if logA >= 0 || math.Log(dec.Float64()+1e-300) < logA {
					p.Accept()
					curE += dE
				} else {
					p.Reject(cfg)
				}
			}
		})
	}
}

// TestEncoderCacheInvalidation pins the posterior-cache contract: after an
// in-place weight mutation the cache is silently stale (documented hazard),
// and InvalidateEncoderCache restores exact agreement with a fresh model
// carrying the new weights.
func TestEncoderCacheInvalidation(t *testing.T) {
	lat := lattice.MustNew(lattice.BCC, 3, 3, 3)
	ham := alloy.NbMoTaW(lat)
	quota := []int{14, 14, 13, 13}
	vcfg := vae.Config{Sites: 54, Species: 4, Latent: 4, Hidden: 16, BetaKL: 1}
	model, err := vae.New(vcfg, rng.New(501))
	if err != nil {
		t.Fatal(err)
	}
	p := NewGlobalProposal(model, ham, quota, CondForT(1200))

	src := rng.New(502)
	cfg := quotaConfig(quota, src)
	curE := ham.Energy(cfg)
	// Prime the cache: a walk-posterior move caches the candidate (Accept)
	// or restored state (Reject) posterior.
	dE, _ := p.Propose(cfg, curE, src)
	p.Accept()
	curE += dE
	if !p.encCacheValid {
		t.Fatal("cache not primed by accepted walk-posterior move")
	}

	// Mutate the weights in place, as an active-learning retrain would.
	ps := model.Params()
	for _, par := range ps {
		for i := range par.Value {
			par.Value[i] *= 1.0625 // exact scaling, no rounding noise
		}
	}

	// The cached posterior must now disagree with a fresh encode under the
	// new weights (guards the test against vacuity).
	freshMu, _ := model.Encode(cfg, p.cond)
	same := true
	for j := range freshMu {
		if math.Float64bits(freshMu[j]) != math.Float64bits(p.encCacheMu[j]) {
			same = false
		}
	}
	if same {
		t.Fatal("weight mutation did not change the posterior; invalidation test is vacuous")
	}

	// Without invalidation the next move consumes the stale posterior: its
	// correction uses mu/lv the new weights would never produce. With
	// invalidation, the correction must match a first-principles recompute
	// under the new weights exactly.
	p.InvalidateEncoderCache()
	if p.encCacheValid {
		t.Fatal("InvalidateEncoderCache left the cache valid")
	}
	verifier := model.CloneWeights(rng.New(999)) // snapshot of the NEW weights
	_, logQ := p.Propose(cfg, curE, src)
	probsF := verifier.DecodeProbs(p.z, p.cond)
	logFwd, err := vae.LogProbConstrained(probsF, p.cand, quota, p.order)
	if err != nil {
		t.Fatal(err)
	}
	logRev, err := vae.LogProbConstrained(probsF, p.backup, quota, p.order)
	if err != nil {
		t.Fatal(err)
	}
	muX, lvX := verifier.Encode(p.backup, p.cond)
	muC, lvC := verifier.Encode(p.cand, p.cond)
	// Group the latent term exactly as Propose does: (rev−fwd) + (pdfC−pdfX).
	latent := vae.LogNormalPDF(p.z, muC, lvC) - vae.LogNormalPDF(p.z, muX, lvX)
	want := logRev - logFwd + latent
	if math.Float64bits(logQ) != math.Float64bits(want) {
		t.Fatalf("post-invalidation correction %x != fresh-model recompute %x", logQ, want)
	}
}
