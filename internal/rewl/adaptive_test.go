package rewl

import (
	"strings"
	"testing"

	"deepthermo/internal/alloy"
	"deepthermo/internal/dos"
	"deepthermo/internal/lattice"
	"deepthermo/internal/mc"
	"deepthermo/internal/rng"
	"deepthermo/internal/wanglandau"
)

// exact16 returns the 16-site binary validation system — dense enough in
// energy (≈15 populated bins) to carry a 3-window ladder with genuine
// per-window convergence imbalance, which is what the adaptive controller
// exists to exploit. Still small enough to enumerate exactly.
func exact16(t testing.TB) (*alloy.Model, *dos.LogDOS) {
	t.Helper()
	lat := lattice.MustNew(lattice.SC, 2, 2, 4)
	m := alloy.BinaryOrdering(lat, 0.05)
	ex, err := dos.EnumerateFixedComposition(m, []int{8, 8})
	if err != nil {
		t.Fatal(err)
	}
	d, err := ex.ToLogDOS(0.025)
	if err != nil {
		t.Fatal(err)
	}
	return m, d
}

// run16 runs the 16-site system over a 3-window ladder with the given
// options and returns the result plus the enumerated reference.
func run16(t *testing.T, opts Options) (*Result, *dos.LogDOS) {
	t.Helper()
	m, exact := exact16(t)
	wins, err := SplitWindows(exact.EMin, exact.EMax(), 3, 0.75, exact.BinWidth)
	if err != nil {
		t.Fatal(err)
	}
	seed := lattice.EquiatomicConfig(m.Lattice(), 2, rng.New(21))
	res, err := Run(m, seed, wins,
		func(win, widx int, s *rng.Source) mc.Proposal { return mc.NewSwapProposal(m) },
		opts)
	if err != nil {
		t.Fatal(err)
	}
	return res, exact
}

// adaptiveTestOpts is the shared adaptive configuration, the one the
// "adaptive" golden row pins: on this ladder the controller migrates
// walkers within short test runs.
func adaptiveTestOpts(wl wanglandau.Options) Options {
	return Options{
		Seed:             31,
		WalkersPerWindow: 2,
		ExchangeInterval: 20,
		WL:               wl,
		Adaptive:         AdaptiveOptions{Enabled: true},
	}
}

// TestAdaptiveMatchesExact is the correctness property behind the whole
// adaptive layer: walker migration reshapes the parallel decomposition
// mid-run, but the merged DOS must still match the enumerated reference to
// the same tolerance a static run is held to.
func TestAdaptiveMatchesExact(t *testing.T) {
	res, exact := run16(t, adaptiveTestOpts(wanglandau.Options{LnFFinal: 1e-5}))
	if !res.AllConverged {
		t.Fatal("adaptive run did not converge")
	}
	if res.Migrations == 0 {
		t.Fatal("no migrations fired; the test exercises nothing")
	}
	if len(res.Windows) != 3 {
		t.Fatalf("the adaptive run must keep the caller's 3-window ladder, got %d windows", len(res.Windows))
	}
	rms, n, err := dos.RMSLogError(res.DOS, exact)
	if err != nil {
		t.Fatal(err)
	}
	if n < 10 || rms > 0.2 {
		t.Errorf("adaptive RMS = %g over %d bins", rms, n)
	}
	if len(res.Events) != res.Migrations {
		t.Errorf("%d events recorded for %d migrations", len(res.Events), res.Migrations)
	}
	for _, ev := range res.Events {
		if ev.Round <= 0 || ev.Round%rebalanceEvery != 0 {
			t.Errorf("event at round %d, not a rebalance boundary", ev.Round)
		}
	}
	if len(res.Telemetry) != len(res.Windows) {
		t.Errorf("%d telemetry rows for %d windows", len(res.Telemetry), len(res.Windows))
	}
	for wi, tl := range res.Telemetry {
		if tl.Window != wi {
			t.Errorf("telemetry row %d labeled window %d", wi, tl.Window)
		}
		if tl.Walkers < 1 || tl.Sweeps <= 0 {
			t.Errorf("telemetry row %d empty: %+v", wi, tl)
		}
	}
	// Sweep accounting stays exact across migration retirements: window
	// sweeps (live + retired budget) sum to the reported total.
	var sum int64
	for _, ws := range res.Windows {
		sum += ws.Sweeps
	}
	if sum != res.TotalSweeps {
		t.Errorf("window sweeps sum to %d, TotalSweeps = %d", sum, res.TotalSweeps)
	}
	if res.FailedWalkers != 0 {
		t.Errorf("retired walkers reported as %d failures", res.FailedWalkers)
	}
}

// TestAdaptiveRMSEParityWithStatic: adaptive reallocation must not cost
// accuracy — at the same ln f target, the adaptive and static runs must
// both sit within the stitch tolerance of the reference.
func TestAdaptiveRMSEParityWithStatic(t *testing.T) {
	static, exact := run16(t, Options{
		Seed: 31, WalkersPerWindow: 2, ExchangeInterval: 20,
		WL: wanglandau.Options{LnFFinal: 1e-5},
	})
	adaptive, _ := run16(t, adaptiveTestOpts(wanglandau.Options{LnFFinal: 1e-5}))
	rmsS, _, err := dos.RMSLogError(static.DOS, exact)
	if err != nil {
		t.Fatal(err)
	}
	rmsA, _, err := dos.RMSLogError(adaptive.DOS, exact)
	if err != nil {
		t.Fatal(err)
	}
	if rmsS > 0.2 {
		t.Errorf("static reference RMS = %g", rmsS)
	}
	if rmsA > 0.2 {
		t.Errorf("adaptive RMS = %g (static reference %g)", rmsA, rmsS)
	}
}

// TestAdaptiveDeterministic: the controller's decisions are pure functions
// of seeded state, so two identical runs must agree bit for bit — DOS,
// decision trace, and counters.
func TestAdaptiveDeterministic(t *testing.T) {
	a, _ := run16(t, adaptiveTestOpts(wanglandau.Options{LnFFinal: 1e-3}))
	b, _ := run16(t, adaptiveTestOpts(wanglandau.Options{LnFFinal: 1e-3}))
	requireBitIdentical(t, a.DOS, b.DOS)
	if a.Rounds != b.Rounds || a.Migrations != b.Migrations {
		t.Fatalf("counters differ: rounds %d/%d migrations %d/%d",
			a.Rounds, b.Rounds, a.Migrations, b.Migrations)
	}
	if len(a.Events) != len(b.Events) {
		t.Fatalf("event traces differ in length: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a.Events[i], b.Events[i])
		}
	}
}

// TestAdaptiveCheckpointResumeMatchesUninterrupted: interrupting after the
// controller has already migrated, then resuming, must replay the identical
// trajectory — ragged walker slices and all adaptive decisions are captured
// by (or derivable from) the checkpoint.
func TestAdaptiveCheckpointResumeMatchesUninterrupted(t *testing.T) {
	wl := wanglandau.Options{LnFFinal: 1e-3}
	mk := func(dir string) Options {
		o := adaptiveTestOpts(wl)
		o.CheckpointDir = dir
		o.CheckpointEvery = 2
		return o
	}

	ref, _ := run16(t, mk(t.TempDir()))
	if !ref.AllConverged {
		t.Fatal("reference run did not converge")
	}
	if ref.Migrations == 0 {
		t.Fatal("premise broken: reference run had no migrations")
	}
	// Interrupt after the first rebalance that actually rebalanced.
	stop := 0
	for _, ev := range ref.Events {
		if ev.Round > stop {
			stop = ev.Round
		}
	}
	stop += 2 - stop%2 // next checkpoint boundary after the last event

	dir := t.TempDir()
	partOpts := mk(dir)
	partOpts.MaxRounds = stop
	partial, _ := run16(t, partOpts)
	if partial.AllConverged {
		t.Fatalf("run converged within %d rounds; test premise broken", stop)
	}
	if partial.Migrations == 0 {
		t.Fatal("no migration before the interrupt; test premise broken")
	}
	if !HasCheckpoint(dir) {
		t.Fatal("no checkpoint written")
	}

	resOpts := mk(dir)
	resOpts.Resume = true
	resumed, _ := run16(t, resOpts)
	if !resumed.Resumed {
		t.Fatal("run did not report resuming")
	}
	if !resumed.AllConverged {
		t.Fatal("resumed run did not converge")
	}

	requireBitIdentical(t, ref.DOS, resumed.DOS)
	if ref.Rounds != resumed.Rounds {
		t.Errorf("rounds differ: %d vs %d", ref.Rounds, resumed.Rounds)
	}
	if ref.ExchangeTried != resumed.ExchangeTried || ref.ExchangeAccept != resumed.ExchangeAccept {
		t.Errorf("exchange counters differ: %d/%d vs %d/%d",
			ref.ExchangeAccept, ref.ExchangeTried, resumed.ExchangeAccept, resumed.ExchangeTried)
	}
	if ref.Migrations != resumed.Migrations {
		t.Errorf("migrations differ: %d vs %d", ref.Migrations, resumed.Migrations)
	}
	if len(ref.Events) != len(resumed.Events) {
		t.Fatalf("event traces differ in length: %d vs %d", len(ref.Events), len(resumed.Events))
	}
	for i := range ref.Events {
		if ref.Events[i] != resumed.Events[i] {
			t.Errorf("event %d differs: %+v vs %+v", i, ref.Events[i], resumed.Events[i])
		}
	}
	if ref.TotalSweeps != resumed.TotalSweeps {
		t.Errorf("total sweeps differ: %d vs %d", ref.TotalSweeps, resumed.TotalSweeps)
	}
}

// TestCheckpointScheduleMismatchRejected: a checkpoint written under one
// ln f schedule, adaptive setting or window ladder must not silently
// resume under another — the trajectories would diverge from the recorded
// state.
func TestCheckpointScheduleMismatchRejected(t *testing.T) {
	m, exact := exact16(t)
	wins, err := SplitWindows(exact.EMin, exact.EMax(), 3, 0.75, exact.BinWidth)
	if err != nil {
		t.Fatal(err)
	}
	seed := lattice.EquiatomicConfig(m.Lattice(), 2, rng.New(21))
	factory := func(win, widx int, s *rng.Source) mc.Proposal { return mc.NewSwapProposal(m) }

	dir := t.TempDir()
	base := Options{
		Seed: 31, WalkersPerWindow: 2, ExchangeInterval: 20, MaxRounds: 4,
		CheckpointDir: dir, CheckpointEvery: 2,
		WL: wanglandau.Options{LnFFinal: 1e-3},
	}
	if _, err := Run(m, seed, wins, factory, base); err != nil {
		t.Fatal(err)
	}

	oneT := base
	oneT.Resume = true
	oneT.OneOverT = true
	if _, err := Run(m, seed, wins, factory, oneT); err == nil {
		t.Error("OneOverT mismatch accepted on resume")
	} else if !strings.Contains(err.Error(), "OneOverT") {
		t.Errorf("OneOverT mismatch error unhelpful: %v", err)
	}

	adap := base
	adap.Resume = true
	adap.Adaptive = AdaptiveOptions{Enabled: true}
	if _, err := Run(m, seed, wins, factory, adap); err == nil {
		t.Error("Adaptive mismatch accepted on resume")
	} else if !strings.Contains(err.Error(), "Adaptive") {
		t.Errorf("Adaptive mismatch error unhelpful: %v", err)
	}

	// An adaptive run's ragged walker slices do not loosen the ladder
	// check: overlap 0.5 spans the same energies as 0.75 in other windows.
	adDir := t.TempDir()
	adOpts := adaptiveTestOpts(wanglandau.Options{LnFFinal: 1e-3})
	adOpts.MaxRounds, adOpts.CheckpointDir, adOpts.CheckpointEvery = 4, adDir, 2
	if _, err := Run(m, seed, wins, factory, adOpts); err != nil {
		t.Fatal(err)
	}
	half, err := SplitWindows(exact.EMin, exact.EMax(), 3, 0.5, exact.BinWidth)
	if err != nil {
		t.Fatal(err)
	}
	if half[0].EMin != wins[0].EMin || half[2].EMax != wins[2].EMax || half[0] == wins[0] {
		t.Fatalf("premise broken: ladders %v and %v must differ inside the same end points", wins, half)
	}
	adOpts.Resume = true
	if _, err := Run(m, seed, half, factory, adOpts); err == nil {
		t.Error("adaptive resume on a different ladder accepted")
	} else if !strings.Contains(err.Error(), "window") {
		t.Errorf("ladder mismatch error does not name the window: %v", err)
	}
}

// TestAdaptiveOneOverTConverges: the 1/t schedule threaded through the
// adaptive driver (migrants inherit the window's 1/t clock) must still
// reproduce the reference DOS.
func TestAdaptiveOneOverTConverges(t *testing.T) {
	opts := adaptiveTestOpts(wanglandau.Options{LnFFinal: 2e-4, Flatness: 0.6})
	opts.OneOverT = true
	res, exact := run16(t, opts)
	if !res.AllConverged {
		t.Fatal("adaptive 1/t run did not converge")
	}
	rms, _, err := dos.RMSLogError(res.DOS, exact)
	if err != nil {
		t.Fatal(err)
	}
	if rms > 0.2 {
		t.Errorf("adaptive 1/t RMS = %g", rms)
	}
}

// TestAdaptiveOffBitIdentity: with the adaptive block disabled, the new
// driver must retrace the pre-adaptive trajectory exactly — the golden
// contract that lets every existing trace test stand unchanged. Two runs
// with identical options, one mentioning the disabled adaptive options
// explicitly, must agree bit for bit; so must an enabled controller cut
// off before its first rebalance round, since telemetry draws nothing.
func TestAdaptiveOffBitIdentity(t *testing.T) {
	wl := wanglandau.Options{LnFFinal: 1e-3}
	plain, err := runWithOpts(t, Options{Seed: 10, WL: wl})
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := runWithOpts(t, Options{Seed: 10, WL: wl, Adaptive: AdaptiveOptions{Enabled: false}})
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, plain.DOS, explicit.DOS)
	if plain.Rounds != explicit.Rounds || plain.TotalSweeps != explicit.TotalSweeps {
		t.Errorf("disabled adaptive options perturbed the run: rounds %d/%d sweeps %d/%d",
			plain.Rounds, explicit.Rounds, plain.TotalSweeps, explicit.TotalSweeps)
	}
	if plain.Migrations != 0 || explicit.Migrations != 0 || len(explicit.Events) != 0 {
		t.Error("disabled adaptive run reported adaptive activity")
	}

	short := Options{Seed: 10, WL: wl, MaxRounds: rebalanceEvery - 1}
	off, err := runWithOpts(t, short)
	if err != nil {
		t.Fatal(err)
	}
	short.Adaptive.Enabled = true
	on, err := runWithOpts(t, short)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, off.DOS, on.DOS)
	if off.TotalSweeps != on.TotalSweeps || len(on.Events) != 0 {
		t.Errorf("controller acted before its first rebalance round: sweeps %d/%d, %d events",
			off.TotalSweeps, on.TotalSweeps, len(on.Events))
	}
}
