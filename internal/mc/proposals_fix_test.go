package mc

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"deepthermo/internal/alloy"
	"deepthermo/internal/dos"
	"deepthermo/internal/lattice"
	"deepthermo/internal/rng"
	"deepthermo/internal/vae"
)

// configKey packs a small configuration into a comparable string.
func configKey(cfg lattice.Config) string {
	b := make([]byte, len(cfg))
	for i, s := range cfg {
		b[i] = byte(s)
	}
	return string(b)
}

// TestSwapProposalSkewedCompositionSymmetry is the regression test for the
// retry-loop bug where only j was resampled: under a skewed composition
// that version over-weighted ordered pairs whose first draw hit a rare
// species, while still claiming a symmetric correction of 0. Since
// SwapProposal reports logQRatio = 0, its empirical proposal frequencies
// must satisfy q(x→x′) ≈ q(x′→x) for every swap pair — checked here on a
// deliberately lopsided 1:2:5 composition for a rare↔common pair.
func TestSwapProposalSkewedCompositionSymmetry(t *testing.T) {
	lat := lattice.MustNew(lattice.SC, 2, 2, 2)
	m := alloy.NbMoTaW(lat)
	// Site 0 carries the lone species 0; sites 1-2 species 1; the rest
	// species 2 — maximally skewed within 8 sites.
	x := lattice.Config{0, 1, 1, 2, 2, 2, 2, 2}
	xp := append(lattice.Config(nil), x...)
	xp[0], xp[3] = xp[3], xp[0] // swap rare site 0 with common site 3

	countTransitions := func(from, to lattice.Config, seed uint64, trials int) int {
		src := rng.New(seed)
		p := NewSwapProposal(m)
		work := make(lattice.Config, len(from))
		toKey := configKey(to)
		hits := 0
		for i := 0; i < trials; i++ {
			copy(work, from)
			p.Propose(work, 0, src)
			if configKey(work) == toKey {
				hits++
			}
		}
		return hits
	}

	const trials = 200000
	fwd := countTransitions(x, xp, 11, trials)
	rev := countTransitions(xp, x, 13, trials)
	if fwd == 0 || rev == 0 {
		t.Fatalf("degenerate counts: fwd=%d rev=%d", fwd, rev)
	}
	// Two-sample z-test on binomial counts; 5σ keeps the flake rate
	// negligible while the pre-fix asymmetry (≈25%% relative) fails hard.
	z := math.Abs(float64(fwd-rev)) / math.Sqrt(float64(fwd+rev))
	if z > 5 {
		t.Errorf("proposal asymmetry under skewed composition: q(x→x′)≈%d/%d, q(x′→x)≈%d/%d (z=%.1f)",
			fwd, trials, rev, trials, z)
	}
}

// TestSwapSamplesBoltzmannSkewed pins the acceptance accounting end to end:
// with a 2:6 composition the chain must still reproduce the exact canonical
// mean energy of the enumerated skewed ensemble.
func TestSwapSamplesBoltzmannSkewed(t *testing.T) {
	lat := lattice.MustNew(lattice.SC, 2, 2, 2)
	m := alloy.BinaryOrdering(lat, 0.05)
	exact, err := dos.EnumerateFixedComposition(m, []int{2, 6})
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(99)
	cfg := lattice.Config{0, 0, 1, 1, 1, 1, 1, 1}
	s := NewSampler(m, cfg, NewSwapProposal(m), src)
	n := len(cfg)
	const tKelvin, sweeps, tol = 700.0, 4000, 0.012
	beta := 1 / (alloy.KB * tKelvin)
	for i := 0; i < sweeps/5*n; i++ {
		s.StepCanonical(beta)
	}
	var sum float64
	var count int
	for i := 0; i < sweeps*n; i++ {
		s.StepCanonical(beta)
		if i%n == 0 {
			sum += s.E
			count++
		}
	}
	got := sum / float64(count)
	want := boltzmannEnergyMean(exact, tKelvin)
	if math.Abs(got-want) > tol {
		t.Errorf("skewed swap chain: ⟨E⟩ = %.4f, exact %.4f", got, want)
	}
}

// TestKSwapAvoidsIdentitySwaps is the regression test for K-swap drawing
// i == j: an identity swap silently shrinks the effective K, so every
// applied pair must now consist of distinct sites.
func TestKSwapAvoidsIdentitySwaps(t *testing.T) {
	lat := lattice.MustNew(lattice.SC, 2, 2, 2)
	m := alloy.BinaryOrdering(lat, 0.05)
	src := rng.New(7)
	p := NewKSwapProposal(m, 3)
	cfg := lattice.EquiatomicConfig(lat, 2, src)
	for trial := 0; trial < 20000; trial++ {
		p.Propose(cfg, 0, src)
		for s := 0; s < len(p.sites); s += 2 {
			if p.sites[s] == p.sites[s+1] {
				t.Fatalf("trial %d: identity swap at sites[%d]=%d", trial, s, p.sites[s])
			}
		}
	}
}

// TestGlobalProposalRejectsUnusableQuota is the regression test for a
// quota the constructor copied without checking: one that sums short of
// the sites panicked at the first Propose, one with a count per species
// too many indexed past the decoder's probabilities, and one with a
// species too few was accepted and every move it made was rejected. Each
// must now panic at construction, naming the quota.
func TestGlobalProposalRejectsUnusableQuota(t *testing.T) {
	lat := lattice.MustNew(lattice.BCC, 2, 2, 2)
	m := alloy.NbMoTaW(lat)
	model, err := vae.New(vae.Config{Sites: 16, Species: 4, Latent: 2, Hidden: 8}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		quota []int
		want  string
	}{
		{[]int{4, 4, 4, 3}, "[4 4 4 3]"},
		{[]int{4, 4, 4, 2, 2}, "[4 4 4 2 2]"},
		{[]int{4, 4, 8}, "[4 4 8]"},
		{[]int{4, 4, 9, -1}, "[4 4 9 -1]"},
	} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("quota %v: constructed, want a panic", tc.quota)
				} else if msg := fmt.Sprint(r); !strings.Contains(msg, tc.want) {
					t.Errorf("quota %v: panic %q does not name the quota", tc.quota, msg)
				}
			}()
			NewGlobalProposal(model, m, tc.quota, 0.5)
		}()
	}
	NewGlobalProposal(model, m, []int{4, 4, 4, 4}, 0.5) // a valid quota still constructs
}
