package mc

import (
	"deepthermo/internal/alloy"
	"deepthermo/internal/cacheline"
	"deepthermo/internal/lattice"
	"deepthermo/internal/rng"
)

// SwapProposal is the classic canonical-ensemble baseline: exchange the
// species of two random sites. It is symmetric (logQRatio = 0) and changes
// O(1) sites per step, which is exactly the locality the paper identifies
// as the scalability bottleneck.
//
// Like every proposal here it is padded to whole cache lines (package
// cacheline): i and j are rewritten on every step, and proposals of
// parallel walkers are allocated back to back.
type SwapProposal struct {
	m    *alloy.Model
	i, j int
	_    [cacheline.Size - 24]byte
}

// NewSwapProposal returns a two-site swap proposal for model m.
func NewSwapProposal(m *alloy.Model) *SwapProposal { return &SwapProposal{m: m} }

// Name implements Proposal.
func (p *SwapProposal) Name() string { return "local-swap" }

// Propose swaps two random distinct-species sites (retrying a bounded
// number of times to find such a pair; if every retry lands on a
// same-species pair the move is a no-op with ΔE=0, which is trivially
// symmetric).
//
// Each retry resamples BOTH sites, so the accepted pair is uniform over
// all distinct-species ordered pairs. The retry acceptance probability
// depends only on the composition (which every swap preserves), so
// q(x→x′) = q(x′→x) exactly and the returned correction of 0 is correct.
// An earlier version resampled only j, which over-weighted pairs whose
// first site carried a rare species under skewed compositions; see
// TestSwapProposalSkewedCompositionSymmetry.
func (p *SwapProposal) Propose(cfg lattice.Config, curE float64, src *rng.Source) (float64, float64) {
	n := len(cfg)
	p.i = src.Intn(n)
	p.j = src.Intn(n)
	for try := 0; cfg[p.i] == cfg[p.j] && try < 8; try++ {
		p.i = src.Intn(n)
		p.j = src.Intn(n)
	}
	dE := p.m.SwapDeltaE(cfg, p.i, p.j)
	cfg[p.i], cfg[p.j] = cfg[p.j], cfg[p.i]
	return dE, 0
}

// Accept implements Proposal (no auxiliary state).
func (p *SwapProposal) Accept() {}

// Reject restores the swap.
func (p *SwapProposal) Reject(cfg lattice.Config) {
	cfg[p.i], cfg[p.j] = cfg[p.j], cfg[p.i]
}

// KSwapProposal performs K simultaneous random swaps. It interpolates
// between the local baseline (K=1) and a naive global update (K≈N/2); the
// paper's evaluation uses it to show that *unguided* global updates have
// vanishing acceptance at low temperature, motivating the learned proposal.
type KSwapProposal struct {
	m     *alloy.Model
	K     int
	sites []int // 2K sites of the applied swaps, for rollback
	_     [cacheline.Size - 40]byte
}

// NewKSwapProposal returns a K-simultaneous-swap proposal.
func NewKSwapProposal(m *alloy.Model, k int) *KSwapProposal {
	if k < 1 {
		k = 1
	}
	return &KSwapProposal{m: m, K: k, sites: cacheline.Make[int](2 * k)[:0]}
}

// Name implements Proposal.
func (p *KSwapProposal) Name() string { return "k-swap" }

// Propose applies K random swaps, accumulating the exact ΔE incrementally
// (each swap's ΔE is evaluated on the partially updated configuration, so
// the total is exact). The move is symmetric: the reverse move applies the
// same swaps in reverse order with equal probability under site resampling.
func (p *KSwapProposal) Propose(cfg lattice.Config, curE float64, src *rng.Source) (float64, float64) {
	n := len(cfg)
	p.sites = p.sites[:0]
	var dE float64
	for s := 0; s < p.K; s++ {
		i := src.Intn(n)
		j := src.Intn(n)
		// Redraw j ≠ i with bounded retries: i == j is an identity swap
		// that silently shrinks the effective K. Selection is independent
		// of the configuration, so the move stays symmetric; in the
		// astronomically unlikely event every retry collides, the identity
		// swap is a harmless no-op.
		for try := 0; j == i && try < 8; try++ {
			j = src.Intn(n)
		}
		dE += p.m.SwapDeltaE(cfg, i, j)
		cfg[i], cfg[j] = cfg[j], cfg[i]
		p.sites = append(p.sites, i, j)
	}
	return dE, 0
}

// Accept implements Proposal.
func (p *KSwapProposal) Accept() {}

// Reject undoes the swaps in reverse order.
func (p *KSwapProposal) Reject(cfg lattice.Config) {
	for s := len(p.sites) - 2; s >= 0; s -= 2 {
		i, j := p.sites[s], p.sites[s+1]
		cfg[i], cfg[j] = cfg[j], cfg[i]
	}
}

// Mixture alternates between proposals at fixed probabilities, e.g. mostly
// cheap local swaps with periodic global DL updates — the production
// configuration of DeepThermo. The struct is one cache line as it stands
// (last is rewritten on every step); weights and props are only read there.
type Mixture struct {
	props   []Proposal
	weights []float64 // cumulative
	last    Proposal
}

// NewMixture builds a mixture; weights need not be normalized.
func NewMixture(props []Proposal, weights []float64) *Mixture {
	if len(props) == 0 || len(props) != len(weights) {
		panic("mc: mixture needs equal nonzero numbers of proposals and weights")
	}
	m := &Mixture{props: props, weights: make([]float64, len(weights))}
	m.SetWeights(weights)
	return m
}

// SetWeights replaces the component weights (unnormalized). Changing
// weights between moves preserves exactness — each move is a valid
// random-scan mixture of reversible kernels — and enables schedules such
// as DL-heavy exploration early in a Wang-Landau run and cheap local
// refinement late (see experiments ablation A6). Not safe to call
// concurrently with Propose.
func (p *Mixture) SetWeights(weights []float64) {
	if len(weights) != len(p.props) {
		panic("mc: SetWeights length mismatch")
	}
	var total float64
	for i, w := range weights {
		if w < 0 {
			panic("mc: negative mixture weight")
		}
		total += w
		p.weights[i] = total
	}
	if total <= 0 {
		panic("mc: mixture weights sum to zero")
	}
	for i := range p.weights {
		p.weights[i] /= total
	}
}

// Name implements Proposal.
func (p *Mixture) Name() string { return "mixture" }

// Propose draws a component and delegates.
//
// Mixture exactness note: delegating the MH correction to the chosen
// component is exact when each component is individually reversible (the
// random-scan mixture of reversible kernels is reversible). All proposals
// in this package satisfy that.
func (p *Mixture) Propose(cfg lattice.Config, curE float64, src *rng.Source) (float64, float64) {
	u := src.Float64()
	idx := len(p.props) - 1
	for i, c := range p.weights {
		if u < c {
			idx = i
			break
		}
	}
	p.last = p.props[idx]
	return p.last.Propose(cfg, curE, src)
}

// Accept delegates to the last chosen component.
func (p *Mixture) Accept() { p.last.Accept() }

// Reject delegates to the last chosen component.
func (p *Mixture) Reject(cfg lattice.Config) { p.last.Reject(cfg) }

// BeginBatch implements BatchParticipant by forwarding to every component
// that participates in a batching quorum. Components that don't (local
// swaps) are skipped; a mixture with no participating component is a no-op,
// so the sweep loop can bracket every walker uniformly.
func (p *Mixture) BeginBatch() {
	for _, c := range p.props {
		if bp, ok := c.(BatchParticipant); ok {
			bp.BeginBatch()
		}
	}
}

// EndBatch implements BatchParticipant; see BeginBatch.
func (p *Mixture) EndBatch() {
	for _, c := range p.props {
		if bp, ok := c.(BatchParticipant); ok {
			bp.EndBatch()
		}
	}
}
