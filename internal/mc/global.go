package mc

import (
	"deepthermo/internal/alloy"
	"deepthermo/internal/lattice"
	"deepthermo/internal/rng"
	"deepthermo/internal/vae"
)

// Inferencer is the model backend a GlobalProposal runs inference through:
// the three calls the proposal hot path makes. *vae.Model satisfies it
// directly (a per-walker weight clone); *infer.Client satisfies it with a
// walker-owned replica over one engine's shared weights. Both produce
// bit-identical results for identical inputs (see the batch golden-trace
// tests).
type Inferencer interface {
	Config() vae.Config
	EncodeInto(cfg lattice.Config, cond float64, mu, logvar []float64) ([]float64, []float64)
	DecodeProbsInto(z []float64, cond float64, dst [][]float64) [][]float64
}

// FusedInferencer is the optional fast path of Inferencer: the whole
// walk-posterior forward (encode, reparameterize with pre-drawn normals,
// decode) in one call. *vae.Model and *infer.Client both offer it, as the
// same three calls inlined. Results are bit-identical to the unfused
// sequence, so Propose uses it whenever the backend offers it.
type FusedInferencer interface {
	EncodeSampleDecode(cfg lattice.Config, cond float64, eps, mu, lv, z []float64, probs [][]float64)
}

// BatchParticipant is the sweep-bracket hook of the retired cross-walker
// batching quorum. No sampler calls it any more and no proposal in this
// package implements it; the type stays because the benchmark harness's
// proposal decorator (bench/decor.go) still forwards it.
type BatchParticipant interface {
	BeginBatch()
	EndBatch()
}

// GlobalMode selects how the DL proposal draws its latent vector.
type GlobalMode int

const (
	// JumpPrior draws z from the prior N(0, I): a fully global jump,
	// independent of the current configuration. Mixes fastest when the
	// generative model matches the ensemble well.
	JumpPrior GlobalMode = iota
	// WalkPosterior draws z from the encoder posterior of the current
	// configuration: a guided global update whose candidates stay near the
	// current state's latent neighborhood, trading jump size for
	// acceptance. This is the workhorse mode when the model is imperfect
	// (early in the active-learning loop).
	WalkPosterior
)

// String returns a short identifier.
func (m GlobalMode) String() string {
	if m == JumpPrior {
		return "jump-prior"
	}
	return "walk-posterior"
}

// GlobalProposal is DeepThermo's deep-learning MC proposal: a conditional
// VAE generates an entirely new configuration in one move.
//
// Exactness. Each move draws auxiliary randomness u = (z, σ) — a latent
// vector and a site-visiting order — from an x-dependent density r(u|x)
// (the prior N(0,I)·Unif(σ) in JumpPrior mode, the encoder posterior
// e(z|x)·Unif(σ) in WalkPosterior mode), then proposes x′ from the
// quota-constrained decoder distribution Dec_σ(·|z) (package vae). The
// acceptance evaluates forward and reverse under the same u:
//
//	A = min{1, [π(x′) · r(u|x′) · Dec_σ(x|z)] / [π(x) · r(u|x) · Dec_σ(x′|z)]}
//
// For every fixed u, π(x)·r(u|x)·Dec_σ(x′|z)·A is symmetric in x ↔ x′, so
// detailed balance with respect to π holds after integrating out u — the
// standard auxiliary-randomness MH argument. All densities are closed
// form (per-site categoricals, diagonal Gaussians), so the correction
// returned by Propose is exact; in JumpPrior mode r does not depend on x
// and drops out entirely. Because u is redrawn every move, the proposal is
// stateless and composes freely with any other kernel (Mixture).
//
// Composition is preserved exactly by construction (quota-constrained
// decoding), keeping the chain in the canonical fixed-concentration
// ensemble the paper evaluates.
//
// Layout: the struct is 512 bytes, a whole number of cache lines, so the
// scalars every move rewrites (encCache*, last*, hammingAccum) share no
// line with another walker's proposal. 512 is also the ceiling for a
// struct that holds pointers (package cacheline): a new field must displace
// one, not grow the struct. The rewl layout test holds both.
type GlobalProposal struct {
	model    Inferencer
	ham      *alloy.Model
	cond     float64
	condFunc func(e float64) float64
	quota    []int
	mode     GlobalMode

	z      []float64
	eps    []float64 // pre-drawn standard normals for the reparameterized z
	backup lattice.Config

	// Per-walker scratch arenas (see DESIGN.md, "Performance
	// architecture"): every buffer the hot path needs is allocated once in
	// the constructor and reused, so a steady-state Propose performs zero
	// heap allocations. probsRev is the only lazily allocated buffer — it
	// exists only for state-dependent conditioning (SetConditionFunc).
	order          []int          // site-visiting permutation
	cand           lattice.Config // decoded candidate
	probsFwd       [][]float64    // forward decode, flat-backed
	probsRev       [][]float64    // second decode under the candidate's condition
	muX, lvX       []float64      // encoder posterior of the current state
	muC, lvC       []float64      // encoder posterior of the candidate
	remFwd, remRev []float64      // quota bookkeeping for constrained sampling

	// Encoder-posterior cache. The posterior is a deterministic function of
	// (configuration, condition), and after Accept/Reject the next move's
	// current state is exactly the candidate (or restored backup) this move
	// already encoded — so in WalkPosterior mode the current-state encode is
	// skipped whenever the cached (cfg, cond) pair matches, halving encoder
	// work in steady state. The cached values are the bit-exact output a
	// fresh encode would produce. Mutating the model's weights in place
	// invalidates this silently; call InvalidateEncoderCache after any
	// in-place retrain.
	encCacheValid          bool
	encCacheCond           float64
	encCacheCfg            lattice.Config
	encCacheMu, encCacheLv []float64
	lastCondX, lastCondC   float64
	lastWasWalk            bool

	// HammingAccum accumulates the Hamming distance (changed sites) of
	// accepted moves, the "global update" magnitude reported in E1.
	hammingAccum int64
	lastHamming  int
}

// NewGlobalProposal creates a walker-owned DL proposal in WalkPosterior
// mode. model must be a per-walker replica (CloneWeights or ShareWeights:
// its inference path mutates layer caches and model-owned scratch); quota
// is the fixed composition (counts per species, summing to the lattice
// size); cond is the conditioning scalar (see CondForT).
func NewGlobalProposal(model *vae.Model, ham *alloy.Model, quota []int, cond float64) *GlobalProposal {
	return NewGlobalProposalWith(model, ham, quota, cond)
}

// NewGlobalProposalWith is NewGlobalProposal over any inference backend —
// in particular an infer.Client, which runs this walker's forwards on its
// own goroutine over the weights every client of the engine shares. The
// backend must be exclusively this walker's (clients are single-goroutine
// handles; models are per-walker replicas).
func NewGlobalProposalWith(model Inferencer, ham *alloy.Model, quota []int, cond float64) *GlobalProposal {
	q := make([]int, len(quota))
	copy(q, quota)
	vc := model.Config()
	n, k, l := vc.Sites, vc.Species, vc.Latent
	return &GlobalProposal{
		model: model, ham: ham, cond: cond, quota: q, mode: WalkPosterior,
		z:           make([]float64, l),
		eps:         make([]float64, l),
		backup:      make(lattice.Config, n),
		order:       make([]int, n),
		cand:        make(lattice.Config, n),
		probsFwd:    vae.NewProbs(n, k),
		muX:         make([]float64, l),
		lvX:         make([]float64, l),
		muC:         make([]float64, l),
		lvC:         make([]float64, l),
		remFwd:      make([]float64, len(q)),
		remRev:      make([]float64, len(q)),
		encCacheCfg: make(lattice.Config, n),
		encCacheMu:  make([]float64, l),
		encCacheLv:  make([]float64, l),
	}
}

// InvalidateEncoderCache drops the cached encoder posterior. Call it after
// mutating the model's weights in place (e.g. an active-learning retrain
// that reuses the same *vae.Model); constructing a fresh proposal makes
// this unnecessary.
func (p *GlobalProposal) InvalidateEncoderCache() { p.encCacheValid = false }

// SetMode switches between latent-draw modes.
func (p *GlobalProposal) SetMode(m GlobalMode) { p.mode = m }

// Mode returns the current latent-draw mode.
func (p *GlobalProposal) Mode() GlobalMode { return p.mode }

// CondForT maps a temperature in kelvin to the conditioning scalar used
// during training and inference (T/2000, giving O(1) inputs over the
// studied range).
func CondForT(tKelvin float64) float64 { return tKelvin / 2000 }

// SetCondition changes the conditioning scalar (e.g. when a replica moves
// to a new temperature or energy window).
func (p *GlobalProposal) SetCondition(cond float64) { p.cond = cond }

// CondForEnergy maps a configuration energy to the conditioning scalar for
// energy-conditioned models: energy per site in units of 50 meV, giving
// O(1) inputs over the alloy's spectrum.
func CondForEnergy(e float64, sites int) float64 { return e / float64(sites) / 0.05 }

// SetConditionFunc switches the proposal to state-dependent conditioning:
// each move conditions the model on f of the *current* energy (e.g.
// CondForEnergy), which is the natural choice inside Wang-Landau sampling
// where no temperature exists. Exactness is preserved — the reverse density
// is evaluated under the candidate's own condition f(E(x′)) — at the cost
// of a second decoder pass per move. Pass nil to return to a fixed scalar.
func (p *GlobalProposal) SetConditionFunc(f func(e float64) float64) { p.condFunc = f }

// Name implements Proposal.
func (p *GlobalProposal) Name() string { return "dl-global-" + p.mode.String() }

// AcceptedSiteChanges returns the cumulative number of sites changed by
// accepted global moves — the effective update size that local swaps
// (2 sites per accepted move) are compared against in experiment E1.
func (p *GlobalProposal) AcceptedSiteChanges() int64 { return p.hammingAccum }

// Propose implements Proposal: it replaces cfg wholesale with a decoded
// configuration and returns the exact MH correction.
//
// With state-dependent conditioning (SetConditionFunc) the forward move
// decodes under c(x) = f(E(x)) and the reverse density is evaluated under
// the candidate's condition c(x′) = f(E(x′)); with a fixed condition the
// two coincide and the second decode is skipped.
func (p *GlobalProposal) Propose(cfg lattice.Config, curE float64, src *rng.Source) (float64, float64) {
	n := len(cfg)
	condX := p.cond
	if p.condFunc != nil {
		condX = p.condFunc(curE)
	}

	// Draw the auxiliary latent; remember the encoder term of ln r(u|x).
	// The standard normals are drawn BEFORE the encode — the encode consumes
	// no randomness, so the walker's rng stream is identical either way —
	// which lets the encode, the reparameterized z, and the forward decode
	// fuse into one backend call (one engine round-trip) when the backend
	// supports it.
	var logRX float64 // ln of the x-dependent part of r(u|x)
	decoded := false
	switch p.mode {
	case JumpPrior:
		for i := range p.z {
			p.z[i] = src.NormFloat64()
		}
	case WalkPosterior:
		for i := range p.eps {
			p.eps[i] = src.NormFloat64()
		}
		if p.encCacheValid && p.encCacheCond == condX && configsEqual(p.encCacheCfg, cfg) {
			copy(p.muX, p.encCacheMu)
			copy(p.lvX, p.encCacheLv)
			vae.SampleLatent(p.z, p.muX, p.lvX, p.eps)
		} else if f, ok := p.model.(FusedInferencer); ok {
			f.EncodeSampleDecode(cfg, condX, p.eps, p.muX, p.lvX, p.z, p.probsFwd)
			decoded = true
		} else {
			p.muX, p.lvX = p.model.EncodeInto(cfg, condX, p.muX, p.lvX)
			vae.SampleLatent(p.z, p.muX, p.lvX, p.eps)
		}
		logRX = vae.LogNormalPDF(p.z, p.muX, p.lvX)
	}

	if !decoded {
		p.probsFwd = p.model.DecodeProbsInto(p.z, condX, p.probsFwd)
	}
	order := p.permInto(src, n)
	copy(p.backup, cfg)

	// With a fixed condition the reverse density uses the forward decode's
	// probabilities, so the constrained sample and the reverse evaluation
	// fuse into one pass over the per-site log-probs. State-dependent
	// conditioning needs the candidate's energy first, so it takes the
	// two-pass route below. Both paths consume one uniform draw per site.
	var cand lattice.Config
	var logFwd, revCfg float64
	var err error
	fused := p.condFunc == nil
	if fused {
		cand, logFwd, revCfg, err = vae.SampleAndReverse(p.probsFwd, p.quota, order, p.backup, src, p.cand, p.remFwd, p.remRev)
	} else {
		cand, logFwd, err = vae.SampleConstrainedInto(p.probsFwd, p.quota, order, src, p.cand, p.remFwd)
	}
	if err != nil {
		panic(err) // quota was validated at construction
	}

	p.lastHamming = 0
	for i := range cand {
		if cand[i] != p.backup[i] {
			p.lastHamming++
		}
	}
	copy(cfg, cand)
	newE := p.ham.Energy(cfg)
	dE := newE - curE

	// Reverse density of the previous configuration under the same (z, σ)
	// but the candidate's condition.
	condC := condX
	if !fused {
		condC = p.condFunc(newE)
		probsRev := p.probsFwd
		if condC != condX {
			p.probsRev = p.model.DecodeProbsInto(p.z, condC, p.probsRev)
			probsRev = p.probsRev
		}
		revCfg, err = vae.LogProbConstrainedInto(probsRev, p.backup, p.quota, order, p.remRev)
		if err != nil {
			panic(err) // sizes are fixed at construction; mismatch is a bug
		}
	}

	var latentCorr float64 // ln r(u|x′) − ln r(u|x); σ is uniform and cancels
	if p.mode == WalkPosterior {
		p.muC, p.lvC = p.model.EncodeInto(cand, condC, p.muC, p.lvC)
		latentCorr = vae.LogNormalPDF(p.z, p.muC, p.lvC) - logRX
	}
	p.lastWasWalk = p.mode == WalkPosterior
	p.lastCondX, p.lastCondC = condX, condC
	return dE, revCfg - logFwd + latentCorr
}

// configsEqual reports whether two configurations are identical.
func configsEqual(a, b lattice.Config) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if b[i] != v {
			return false
		}
	}
	return true
}

// permInto refills p.order with a uniform permutation of [0, n), consuming
// the same draw sequence as src.Perm but without allocating.
func (p *GlobalProposal) permInto(src *rng.Source, n int) []int {
	order := p.order[:n]
	for i := range order {
		order[i] = i
	}
	src.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

// Accept records the accepted move's update size and caches the candidate's
// encoder posterior — the accepted candidate is the next move's current
// state, so its encode can be reused verbatim.
func (p *GlobalProposal) Accept() {
	p.hammingAccum += int64(p.lastHamming)
	if p.lastWasWalk {
		copy(p.encCacheMu, p.muC)
		copy(p.encCacheLv, p.lvC)
		copy(p.encCacheCfg, p.cand)
		p.encCacheCond = p.lastCondC
		p.encCacheValid = true
	}
}

// Reject restores the configuration and caches the restored state's encoder
// posterior for the same reason as Accept.
func (p *GlobalProposal) Reject(cfg lattice.Config) {
	copy(cfg, p.backup)
	if p.lastWasWalk {
		copy(p.encCacheMu, p.muX)
		copy(p.encCacheLv, p.lvX)
		copy(p.encCacheCfg, p.backup)
		p.encCacheCond = p.lastCondX
		p.encCacheValid = true
	}
}
