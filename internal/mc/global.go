package mc

import (
	"fmt"

	"deepthermo/internal/alloy"
	"deepthermo/internal/cacheline"
	"deepthermo/internal/lattice"
	"deepthermo/internal/rng"
	"deepthermo/internal/vae"
)

// Inferencer is the model backend a GlobalProposal runs inference through:
// the calls the proposal hot path makes. EncodeSampleDecode is the whole
// walk-posterior forward (encode, reparameterize with pre-drawn normals,
// decode) in one call, bit-identical to the EncodeInto, vae.SampleLatent,
// DecodeProbsInto sequence. *vae.Model satisfies it directly (a per-walker
// weight clone); *infer.Client satisfies it with a walker-owned replica
// over one engine's shared weights. Both produce bit-identical results for
// identical inputs (see the batch golden-trace tests).
type Inferencer interface {
	Config() vae.Config
	EncodeInto(cfg lattice.Config, cond float64, mu, logvar []float64) ([]float64, []float64)
	DecodeProbsInto(z []float64, cond float64, dst [][]float64) [][]float64
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
// Layout: the struct is padded to 512 bytes, a whole number of cache
// lines, so the scalars every move rewrites (encCache*, last*,
// hammingAccum) share no line with another walker's proposal. 512 is also
// the ceiling for a struct that holds pointers (package cacheline): a new
// field must displace padding or another field, not grow the struct. The
// rewl layout test holds both.
type GlobalProposal struct {
	model Inferencer
	ham   *alloy.Model
	cond  float64
	quota []int
	mode  GlobalMode

	z      []float64
	eps    []float64 // pre-drawn standard normals for the reparameterized z
	backup lattice.Config

	// Per-walker scratch arenas (see DESIGN.md, "Performance
	// architecture"): every buffer the hot path needs is allocated once in
	// the constructor and reused, so a steady-state Propose performs zero
	// heap allocations.
	order    []int          // site-visiting permutation
	cand     lattice.Config // decoded candidate
	probsFwd [][]float64    // the decode of the move's z, flat-backed
	muX, lvX []float64      // encoder posterior of the current state
	muC, lvC []float64      // encoder posterior of the candidate
	// Constrained-sampling scratch of the forward and reverse densities:
	// the remaining quota, then one log argument per visited site.
	fwdScratch, revScratch []float64

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
	lastCond               float64
	lastWasWalk            bool

	// HammingAccum accumulates the Hamming distance (changed sites) of
	// accepted moves, the "global update" magnitude reported in E1.
	hammingAccum int64
	lastHamming  int

	_ [8*cacheline.Size - 472]byte
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
//
// It panics unless quota holds one non-negative count per species of the
// model, summing to its sites: Propose relies on that.
func NewGlobalProposalWith(model Inferencer, ham *alloy.Model, quota []int, cond float64) *GlobalProposal {
	vc := model.Config()
	n, k, l := vc.Sites, vc.Species, vc.Latent
	total := 0
	valid := len(quota) == k
	for _, c := range quota {
		valid = valid && c >= 0
		total += c
	}
	if !valid || total != n {
		panic(fmt.Sprintf("mc: quota %v does not fit the model: want %d non-negative counts summing to its %d sites", quota, k, n))
	}
	q := make([]int, len(quota))
	copy(q, quota)
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
		fwdScratch:  make([]float64, k+n),
		revScratch:  make([]float64, k+n),
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
// to a new temperature or energy window). Every move decodes, and
// evaluates both directions, under the scalar set when it was proposed.
func (p *GlobalProposal) SetCondition(cond float64) { p.cond = cond }

// Name implements Proposal.
func (p *GlobalProposal) Name() string { return "dl-global-" + p.mode.String() }

// AcceptedSiteChanges returns the cumulative number of sites changed by
// accepted global moves — the effective update size that local swaps
// (2 sites per accepted move) are compared against in experiment E1.
func (p *GlobalProposal) AcceptedSiteChanges() int64 { return p.hammingAccum }

// Propose implements Proposal: it replaces cfg wholesale with a decoded
// configuration and returns the exact MH correction.
func (p *GlobalProposal) Propose(cfg lattice.Config, curE float64, src *rng.Source) (float64, float64) {
	n := len(cfg)

	// Draw the auxiliary latent and decode it; remember the encoder term of
	// ln r(u|x). The standard normals are drawn BEFORE the encode — the
	// encode consumes no randomness, so the walker's rng stream is
	// identical either way — which lets the encode, the reparameterized z,
	// and the decode fuse into one backend call.
	var logRX float64 // ln of the x-dependent part of r(u|x)
	switch p.mode {
	case JumpPrior:
		for i := range p.z {
			p.z[i] = src.NormFloat64()
		}
		p.probsFwd = p.model.DecodeProbsInto(p.z, p.cond, p.probsFwd)
	case WalkPosterior:
		for i := range p.eps {
			p.eps[i] = src.NormFloat64()
		}
		if p.encCacheValid && p.encCacheCond == p.cond && configsEqual(p.encCacheCfg, cfg) {
			copy(p.muX, p.encCacheMu)
			copy(p.lvX, p.encCacheLv)
			vae.SampleLatent(p.z, p.muX, p.lvX, p.eps)
			p.probsFwd = p.model.DecodeProbsInto(p.z, p.cond, p.probsFwd)
		} else {
			p.model.EncodeSampleDecode(cfg, p.cond, p.eps, p.muX, p.lvX, p.z, p.probsFwd)
		}
		logRX = vae.LogNormalPDF(p.z, p.muX, p.lvX)
	}
	order := p.permInto(src, n)
	copy(p.backup, cfg)

	// Forward and reverse share the move's decode, so the constrained
	// sample and the reverse density of the current configuration are one
	// pass over the per-site probabilities, consuming one uniform per site.
	cand, logFwd, logRev, err := vae.SampleAndReverse(p.probsFwd, p.quota, order, p.backup, src, p.cand, p.fwdScratch, p.revScratch)
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
	dE := p.ham.Energy(cfg) - curE

	var latentCorr float64 // ln r(u|x′) − ln r(u|x); σ is uniform and cancels
	if p.mode == WalkPosterior {
		p.muC, p.lvC = p.model.EncodeInto(cand, p.cond, p.muC, p.lvC)
		latentCorr = vae.LogNormalPDF(p.z, p.muC, p.lvC) - logRX
	}
	p.lastWasWalk = p.mode == WalkPosterior
	p.lastCond = p.cond
	return dE, logRev - logFwd + latentCorr
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
		p.encCacheCond = p.lastCond
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
		p.encCacheCond = p.lastCond
		p.encCacheValid = true
	}
}
