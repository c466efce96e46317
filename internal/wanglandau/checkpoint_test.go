package wanglandau

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"

	"deepthermo/internal/lattice"
	"deepthermo/internal/mc"
	"deepthermo/internal/rng"
)

// TestCheckpointResumeBitIdentical is the core restart invariant: a walker
// snapshotted mid-run and restored — even through a gob round-trip, and
// even when rebuilding the proposal burned RNG draws from a different
// stream — continues exactly as the uninterrupted walker does.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	m, exact := smallSystem(t)
	win := Window{EMin: exact.EMin, EMax: exact.EMax(), Bins: exact.Bins()}
	opts := Options{LnFFinal: 1e-4}

	src := rng.New(11)
	cfg := lattice.EquiatomicConfig(m.Lattice(), 2, src)
	w, err := NewWalker(m, cfg, mc.NewSwapProposal(m), src, win, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		w.Sweep()
	}
	if w.Flat() {
		w.EndStage()
	}

	// Snapshot through gob, as the rewl checkpoint files do.
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w.State()); err != nil {
		t.Fatal(err)
	}
	var st WalkerState
	if err := gob.NewDecoder(&buf).Decode(&st); err != nil {
		t.Fatal(err)
	}

	// The original keeps running...
	for i := 0; i < 60; i++ {
		w.Sweep()
	}

	// ...and the restored copy, built on a deliberately different stream
	// (rng.New(99) stands in for factory-consumed draws), must match it.
	r, err := RestoreWalker(m, mc.NewSwapProposal(m), rng.New(99), st, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		r.Sweep()
	}

	if w.Energy() != r.Energy() {
		t.Fatalf("energy diverged: %v vs %v", w.Energy(), r.Energy())
	}
	if w.LnF() != r.LnF() {
		t.Fatalf("lnF diverged: %v vs %v", w.LnF(), r.LnF())
	}
	if w.Sweeps() != r.Sweeps() {
		t.Fatalf("sweeps diverged: %d vs %d", w.Sweeps(), r.Sweeps())
	}
	for i := range w.Config() {
		if w.Config()[i] != r.Config()[i] {
			t.Fatalf("configuration diverged at site %d", i)
		}
	}
	wg, rg := w.DOS().LogG, r.DOS().LogG
	for i := range wg {
		same := wg[i] == rg[i] || (math.IsInf(wg[i], -1) && math.IsInf(rg[i], -1))
		if !same {
			t.Fatalf("ln g diverged at bin %d: %v vs %v", i, wg[i], rg[i])
		}
	}
	for i := range w.hist {
		if w.hist[i] != r.hist[i] {
			t.Fatalf("histogram diverged at bin %d: %d vs %d", i, w.hist[i], r.hist[i])
		}
	}
}

// TestGobRoundTripsUnvisitedBins pins the property the checkpoint format
// relies on: gob encodes -Inf LogG entries exactly.
func TestGobRoundTripsUnvisitedBins(t *testing.T) {
	in := []float64{math.Inf(-1), 1.5, math.Inf(-1)}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(in); err != nil {
		t.Fatal(err)
	}
	var out []float64
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(out[0], -1) || out[1] != 1.5 || !math.IsInf(out[2], -1) {
		t.Fatalf("gob mangled ±Inf: %v", out)
	}
}

// TestRestoreWalkerValidates checks the defensive paths.
func TestRestoreWalkerValidates(t *testing.T) {
	m, exact := smallSystem(t)
	win := Window{EMin: exact.EMin, EMax: exact.EMax(), Bins: exact.Bins()}
	src := rng.New(3)
	cfg := lattice.EquiatomicConfig(m.Lattice(), 2, src)
	w, err := NewWalker(m, cfg, mc.NewSwapProposal(m), src, win, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := w.State()
	st.LogG = st.LogG[:1]
	if _, err := RestoreWalker(m, mc.NewSwapProposal(m), rng.New(4), st, Options{}); err == nil {
		t.Fatal("mismatched checkpoint arrays accepted")
	}
}

// TestRestoreWalkerRefusesBadEnergy checks that a restored walker is one
// Sweep can run: a checkpointed energy that is not finite, or that sits in
// the window but is not exactly the configuration's, even by one quantum,
// is refused; the configuration's own energy is kept bit for bit.
func TestRestoreWalkerRefusesBadEnergy(t *testing.T) {
	m, exact := smallSystem(t)
	win := Window{EMin: exact.EMin, EMax: exact.EMax(), Bins: exact.Bins()}
	src := rng.New(5)
	w, err := NewWalker(m, lattice.EquiatomicConfig(m.Lattice(), 2, src), mc.NewSwapProposal(m), src, win, Options{})
	if err != nil {
		t.Fatal(err)
	}
	w.Sweep()
	e := w.Energy()
	// The in-window energy farthest from e: the centre of an end bin.
	far := exact.BinEnergy(0)
	if e-far < exact.BinEnergy(exact.Bins()-1)-e {
		far = exact.BinEnergy(exact.Bins() - 1)
	}
	for name, bad := range map[string]float64{
		"+Inf":             math.Inf(1),
		"-Inf":             math.Inf(-1),
		"NaN":              math.NaN(),
		"in window, wrong": far,
		"one quantum off":  e + m.Quantum(),
	} {
		st := w.State()
		st.Sampler.E = bad
		if _, err := RestoreWalker(m, mc.NewSwapProposal(m), rng.New(6), st, Options{}); err == nil {
			t.Errorf("%s: checkpointed energy %v accepted for a configuration of energy %v", name, bad, e)
		}
	}

	st := w.State()
	r, err := RestoreWalker(m, mc.NewSwapProposal(m), rng.New(6), st, Options{})
	if err != nil {
		t.Fatalf("exact energy refused: %v", err)
	}
	if math.Float64bits(r.Energy()) != math.Float64bits(st.Sampler.E) {
		t.Fatalf("restored energy %v, checkpoint held %v", r.Energy(), st.Sampler.E)
	}
	r.Sweep()
}
