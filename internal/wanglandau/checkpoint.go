package wanglandau

// Checkpoint support: a WalkerState captures everything a Walker needs to
// continue bit-identically after a restart — the density-of-states
// estimate, visit histogram, modification-factor schedule position, and
// the underlying sampler chain state including its RNG stream position.
// The replica-exchange driver (package rewl) serializes these with
// encoding/gob inside its run checkpoints; gob round-trips the -Inf
// entries of unvisited LogG bins exactly, so no visited-mask encoding is
// needed here.

import (
	"fmt"

	"deepthermo/internal/alloy"
	"deepthermo/internal/mc"
	"deepthermo/internal/rng"
)

// WalkerState is the serializable state of one Wang-Landau walker.
type WalkerState struct {
	Window   Window
	Sampler  mc.SamplerState
	LogG     []float64
	Hist     []int64
	Visited  []bool
	LnF      float64
	Sweeps   int64
	Steps    int64
	OneOverT bool
}

// State snapshots the walker. All slices are copied, so the snapshot stays
// valid while the walker keeps sweeping.
func (w *Walker) State() WalkerState {
	st := WalkerState{
		Window: Window{
			EMin: w.dosEst.EMin,
			EMax: w.dosEst.EMax(),
			Bins: w.dosEst.Bins(),
		},
		Sampler:  w.sampler.State(),
		LogG:     append([]float64(nil), w.dosEst.LogG...),
		Hist:     append([]int64(nil), w.hist...),
		Visited:  append([]bool(nil), w.visited...),
		LnF:      w.lnF,
		Sweeps:   w.sweeps,
		Steps:    w.steps,
		OneOverT: w.oneOverT,
	}
	return st
}

// RestoreWalker reconstructs a walker from a snapshot. The proposal and
// RNG stream are supplied fresh by the caller (proposals are rebuilt from
// the run's proposal factory); src is then rewound in place to the
// checkpointed stream position, so the restored walker's future chain is
// bit-identical to the uninterrupted one regardless of any draws the
// factory consumed while rebuilding. A snapshot whose energy is not finite,
// disagrees with its configuration or lies outside its window is refused:
// Sweep needs the walker inside its window.
func RestoreWalker(m *alloy.Model, prop mc.Proposal, src *rng.Source, st WalkerState, opts Options) (*Walker, error) {
	if len(st.LogG) != st.Window.Bins || len(st.Hist) != st.Window.Bins || len(st.Visited) != st.Window.Bins {
		return nil, fmt.Errorf("wanglandau: checkpoint arrays (%d/%d/%d bins) disagree with window (%d bins)",
			len(st.LogG), len(st.Hist), len(st.Visited), st.Window.Bins)
	}
	if n := m.Lattice().NumSites(); len(st.Sampler.Cfg) != n {
		return nil, fmt.Errorf("wanglandau: checkpointed configuration has %d sites, lattice has %d", len(st.Sampler.Cfg), n)
	}
	for site, sp := range st.Sampler.Cfg {
		if int(sp) >= m.NumSpecies() {
			return nil, fmt.Errorf("wanglandau: checkpointed site %d holds species %d of %d", site, sp, m.NumSpecies())
		}
	}
	w, err := newWalker(m, len(st.Sampler.Cfg), prop, src, st.Window, opts)
	if err != nil {
		return nil, err
	}
	copy(w.dosEst.LogG, st.LogG)
	copy(w.hist, st.Hist)
	copy(w.visited, st.Visited)
	w.lnF = st.LnF
	w.sweeps = st.Sweeps
	w.steps = st.Steps
	w.oneOverT = st.OneOverT
	w.sampler.RestoreState(st.Sampler)
	e := w.sampler.E
	// Energies are exact, so this also refuses ±Inf and NaN.
	if exact := m.Energy(w.sampler.Cfg); e != exact {
		return nil, fmt.Errorf("wanglandau: checkpointed energy %v is not its configuration's %v", e, exact)
	}
	if w.dosEst.Bin(e) < 0 {
		return nil, fmt.Errorf("wanglandau: checkpointed energy %g outside window [%g,%g)", e, st.Window.EMin, st.Window.EMax)
	}
	return w, nil
}
