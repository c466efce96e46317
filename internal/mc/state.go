package mc

import (
	"deepthermo/internal/cacheline"
	"deepthermo/internal/lattice"
	"deepthermo/internal/rng"
)

// SamplerState is the serializable chain state of a Sampler: everything
// that influences future Metropolis decisions. Restoring it and replaying
// the same proposal sequence reproduces the chain bit-identically, which
// is the invariant the REWL checkpoint/restart machinery (package rewl)
// tests for. All fields are exported, gob-friendly value types.
type SamplerState struct {
	Cfg      lattice.Config
	E        float64
	RNG      rng.State
	Accepted int64
	Proposed int64
}

// State snapshots the sampler's chain state. The configuration is copied,
// so the snapshot stays valid while the sampler keeps running.
func (s *Sampler) State() SamplerState {
	cfg := make(lattice.Config, len(s.Cfg))
	copy(cfg, s.Cfg)
	return SamplerState{
		Cfg:      cfg,
		E:        s.E,
		RNG:      s.Src.State(),
		Accepted: s.Accepted,
		Proposed: s.Proposed,
	}
}

// RestoreState overwrites the sampler's chain state from a snapshot,
// including its RNG stream position. The sampler's existing Src is
// rewound in place (callers typically construct the sampler with a
// throwaway stream and then restore the checkpointed one), and so is its
// configuration when the lattice size matches: the snapshot is copied into
// the array the sampler already owns.
func (s *Sampler) RestoreState(st SamplerState) {
	if len(s.Cfg) != len(st.Cfg) {
		s.Cfg = cacheline.Make[lattice.Species](len(st.Cfg))
	}
	copy(s.Cfg, st.Cfg)
	s.E = st.E
	s.Src.Restore(st.RNG)
	s.Accepted = st.Accepted
	s.Proposed = st.Proposed
}
