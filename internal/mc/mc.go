// Package mc implements Metropolis-Hastings Monte Carlo sampling of alloy
// configurations with pluggable proposals.
//
// The package separates three concerns the paper's framework also
// separates:
//
//   - the target ensemble, which turns a proposed move into its log
//     acceptance ratio (canonical −βΔE in StepCanonical, Wang-Landau
//     ln g(E) − ln g(E′) in package wanglandau);
//   - the proposal mechanism, from the classic local swap baseline to
//     DeepThermo's deep-learning global update (GlobalProposal);
//   - the sampling driver (Sampler), which owns the walker state and the
//     exact Metropolis-Hastings accept/reject including the proposal
//     density correction. A step is Propose, then Settle with the
//     ensemble's ratio plus the correction Propose returned.
package mc

import (
	"math"

	"deepthermo/internal/alloy"
	"deepthermo/internal/cacheline"
	"deepthermo/internal/lattice"
	"deepthermo/internal/rng"
)

// Proposal generates candidate configurations. Implementations mutate the
// walker's configuration in place; the Sampler then either commits with
// Accept or restores with Reject. A Proposal instance belongs to exactly
// one walker (it may carry per-walker auxiliary state such as the VAE
// latent vector).
type Proposal interface {
	// Name identifies the proposal in reports.
	Name() string
	// Propose mutates cfg into a candidate and returns the energy change
	// ΔE = E(candidate) − curE and the Metropolis-Hastings correction
	// ln q(x|x′) − ln q(x′|x) (zero for symmetric proposals).
	Propose(cfg lattice.Config, curE float64, src *rng.Source) (deltaE, logQRatio float64)
	// Accept commits the candidate (updates any auxiliary state).
	Accept()
	// Reject restores cfg to its state before the last Propose.
	Reject(cfg lattice.Config)
}

// Sampler is one Monte Carlo walker. Every step writes E and the counters,
// so the struct is padded to whole cache lines: parallel walkers' Samplers
// never share one (see package cacheline).
type Sampler struct {
	Model    *alloy.Model
	Cfg      lattice.Config
	E        float64 // energy of Cfg, maintained incrementally (exactly; see package alloy)
	Src      *rng.Source
	Proposal Proposal

	// Accepted and Proposed count Metropolis decisions since creation or
	// the last ResetCounters.
	Accepted, Proposed int64

	_ [2*cacheline.Size - 80]byte
}

// NewSampler creates a walker over cfg. The configuration is owned by the
// sampler from now on.
func NewSampler(m *alloy.Model, cfg lattice.Config, prop Proposal, src *rng.Source) *Sampler {
	return &Sampler{Model: m, Cfg: cfg, E: m.Energy(cfg), Src: src, Proposal: prop}
}

// Propose draws a candidate from the proposal, applying it to Cfg, and
// returns its ΔE and Metropolis-Hastings correction ln q(x|x′) − ln q(x′|x).
// E still holds the energy of the configuration before the move; the
// caller computes the log acceptance ratio of the target ensemble and
// passes it to Settle, which ends the step. Splitting the step this way
// lets an ensemble keep state across steps (the Wang-Landau walker reuses
// the bin of the current energy) without a per-step callback.
func (s *Sampler) Propose() (deltaE, logQRatio float64) {
	deltaE, logQRatio = s.Proposal.Propose(s.Cfg, s.E, s.Src)
	s.Proposed++
	return deltaE, logQRatio
}

// Settle accepts the candidate of the last Propose with probability
// min(1, e^logA) and commits it (E += dE), or restores the configuration.
// A uniform is drawn whenever logA < 0, so the random stream does not
// depend on the ratio's value; a ratio of −Inf (a forbidden candidate)
// skips the logarithm of that draw. Returns whether the move was accepted.
func (s *Sampler) Settle(dE, logA float64) bool {
	accept := logA >= 0
	if !accept {
		u := s.Src.Float64()
		accept = logA > math.Inf(-1) && math.Log(u+1e-300) < logA
	}
	if !accept {
		s.Proposal.Reject(s.Cfg)
		return false
	}
	s.Proposal.Accept()
	s.E += dE
	s.Accepted++
	return true
}

// StepCanonical performs one step of canonical sampling at inverse
// temperature beta (1/(k_B·T), 1/eV).
func (s *Sampler) StepCanonical(beta float64) bool {
	dE, lqr := s.Propose()
	return s.Settle(dE, -beta*dE+lqr)
}

// Sweep performs one canonical sweep: NumSites steps at temperature T (K).
func (s *Sampler) Sweep(tKelvin float64) {
	beta := 1 / (alloy.KB * tKelvin)
	for i := 0; i < len(s.Cfg); i++ {
		s.StepCanonical(beta)
	}
}

// AcceptanceRate returns accepted/proposed since the last reset (0 if no
// proposals yet).
func (s *Sampler) AcceptanceRate() float64 {
	if s.Proposed == 0 {
		return 0
	}
	return float64(s.Accepted) / float64(s.Proposed)
}

// ResetCounters zeroes the acceptance statistics.
func (s *Sampler) ResetCounters() { s.Accepted, s.Proposed = 0, 0 }

// Anneal runs sweepsPerT canonical sweeps at each temperature of the
// (typically decreasing) ladder. It is used to prepare low-energy
// configurations, e.g. to seed the low-energy Wang-Landau windows.
func (s *Sampler) Anneal(ladder []float64, sweepsPerT int) {
	for _, t := range ladder {
		for i := 0; i < sweepsPerT; i++ {
			s.Sweep(t)
		}
	}
}
