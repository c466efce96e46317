package rewl

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"deepthermo/internal/alloy"
	"deepthermo/internal/dos"
	"deepthermo/internal/lattice"
	"deepthermo/internal/mc"
	"deepthermo/internal/rng"
	"deepthermo/internal/wanglandau"
)

func TestSplitWindowsProperties(t *testing.T) {
	wins, err := SplitWindows(-10, 10, 4, 0.75, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(wins) != 4 {
		t.Fatalf("%d windows", len(wins))
	}
	// Coverage: first starts at EMin, last ends at (grid-rounded) EMax.
	if wins[0].EMin != -10 {
		t.Errorf("first window starts at %g", wins[0].EMin)
	}
	if wins[3].EMax < 10-1e-9 {
		t.Errorf("last window ends at %g", wins[3].EMax)
	}
	for i := 1; i < len(wins); i++ {
		// Ordered, overlapping, and grid-aligned.
		if wins[i].EMin <= wins[i-1].EMin {
			t.Error("windows not strictly advancing")
		}
		if wins[i].EMin >= wins[i-1].EMax {
			t.Errorf("windows %d,%d do not overlap", i-1, i)
		}
		off := (wins[i].EMin - wins[0].EMin) / 0.1
		if math.Abs(off-math.Round(off)) > 1e-9 {
			t.Error("window not on the common bin grid")
		}
	}
}

func TestSplitWindowsSingle(t *testing.T) {
	wins, err := SplitWindows(0, 1, 1, 0.75, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(wins) != 1 || wins[0].Bins != 10 {
		t.Fatalf("single window wrong: %+v", wins)
	}
}

func TestSplitWindowsValidation(t *testing.T) {
	if _, err := SplitWindows(0, 1, 0, 0.5, 0.1); err == nil {
		t.Error("zero windows accepted")
	}
	if _, err := SplitWindows(0, 1, 2, 1.0, 0.1); err == nil {
		t.Error("overlap 1.0 accepted")
	}
	if _, err := SplitWindows(0, 1, 2, -0.1, 0.1); err == nil {
		t.Error("negative overlap accepted")
	}
	if _, err := SplitWindows(0, 0.2, 4, 0.5, 0.1); err == nil {
		t.Error("more windows than bins accepted")
	}
}

// TestSplitWindowsZeroOverlap: overlap=0 historically floored the stride
// so adjacent windows could share zero bins while DOS stitching assumes at
// least one; the constructor must now deliver ≥1 shared bin and report the
// overlap it actually achieved.
func TestSplitWindowsZeroOverlap(t *testing.T) {
	layout, err := SplitWindowsLayout(0, 1, 2, 0, 0.1) // 10 bins, 2 windows
	if err != nil {
		t.Fatal(err)
	}
	if layout.SharedBins < 1 {
		t.Fatalf("zero-overlap split shares %d bins", layout.SharedBins)
	}
	if layout.AchievedOverlap <= 0 {
		t.Fatalf("achieved overlap %g not reported", layout.AchievedOverlap)
	}
	wins := layout.Windows
	if wins[1].EMin >= wins[0].EMax-1e-12 {
		t.Fatalf("windows [%g,%g) and [%g,%g) do not overlap",
			wins[0].EMin, wins[0].EMax, wins[1].EMin, wins[1].EMax)
	}
	// The shared region must be stitchable by dos.Merge: build two LogDOS
	// on the layout and check they align on at least one bin.
	if layout.WindowBins-layout.StrideBins != layout.SharedBins {
		t.Errorf("layout inconsistent: %d - %d != %d",
			layout.WindowBins, layout.StrideBins, layout.SharedBins)
	}
}

// TestSplitWindowsAdversarialCorners drives the bin-grid algebra through
// the corners where integer flooring bites: minimal bins, many windows,
// zero overlap, and the unsatisfiable cases that must error instead of
// silently producing an unstitchable ladder.
func TestSplitWindowsAdversarialCorners(t *testing.T) {
	cases := []struct {
		name    string
		eMax    float64
		num     int
		overlap float64
		wantErr bool
	}{
		{"two-zero-overlap", 1, 2, 0, false},
		{"five-zero-overlap", 1, 5, 0, false},
		{"nine-of-ten-bins", 1, 9, 0, false},
		{"ten-of-ten-bins", 1, 10, 0, true}, // stride would need to be 0
		{"three-of-three-bins", 0.3, 3, 0, true},
		{"high-overlap-few-bins", 0.5, 4, 0.75, false},
		{"exact-divisible", 1, 4, 0.5, false},
	}
	const binW = 0.1
	for _, tc := range cases {
		layout, err := SplitWindowsLayout(0, tc.eMax, tc.num, tc.overlap, binW)
		if tc.wantErr {
			if err == nil {
				t.Errorf("%s: expected error, got layout %+v", tc.name, layout)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		wins := layout.Windows
		if len(wins) != tc.num {
			t.Errorf("%s: %d windows, want %d", tc.name, len(wins), tc.num)
		}
		// Full-range coverage on the grid.
		if wins[0].EMin != 0 {
			t.Errorf("%s: first window starts at %g", tc.name, wins[0].EMin)
		}
		if last := wins[len(wins)-1].EMax; last < tc.eMax-1e-9 {
			t.Errorf("%s: last window ends at %g, range ends at %g", tc.name, last, tc.eMax)
		}
		for i, w := range wins {
			if w.Bins != layout.WindowBins || w.Bins < 2 {
				t.Errorf("%s: window %d has %d bins (layout says %d)", tc.name, i, w.Bins, layout.WindowBins)
			}
			// Grid alignment of both edges.
			for _, e := range []float64{w.EMin, w.EMax} {
				off := e / binW
				if math.Abs(off-math.Round(off)) > 1e-9 {
					t.Errorf("%s: window %d edge %g off the bin grid", tc.name, i, e)
				}
			}
			if i == 0 {
				continue
			}
			// ≥1 shared grid bin between every adjacent pair — the DOS
			// stitching invariant — and the reported achieved overlap.
			sharedWidth := wins[i-1].EMax - w.EMin
			shared := int(math.Round(sharedWidth / binW))
			if shared < 1 {
				t.Errorf("%s: windows %d,%d share %d bins", tc.name, i-1, i, shared)
			}
			if shared != layout.SharedBins {
				t.Errorf("%s: windows %d,%d share %d bins, layout reports %d",
					tc.name, i-1, i, shared, layout.SharedBins)
			}
		}
		if want := float64(layout.SharedBins) / float64(layout.WindowBins); math.Abs(layout.AchievedOverlap-want) > 1e-12 {
			t.Errorf("%s: achieved overlap %g, want %g", tc.name, layout.AchievedOverlap, want)
		}
	}
}

// TestSplitWindowsLayoutMatchesSplitWindows: the convenience wrapper and
// the layout constructor must agree bin for bin.
func TestSplitWindowsLayoutMatchesSplitWindows(t *testing.T) {
	wins, err := SplitWindows(-10, 10, 4, 0.75, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := SplitWindowsLayout(-10, 10, 4, 0.75, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(wins) != len(layout.Windows) {
		t.Fatalf("window counts differ: %d vs %d", len(wins), len(layout.Windows))
	}
	for i := range wins {
		if wins[i] != layout.Windows[i] {
			t.Errorf("window %d differs: %+v vs %+v", i, wins[i], layout.Windows[i])
		}
	}
}

// exact8 returns the 8-site binary validation system.
func exact8(t testing.TB) (*alloy.Model, *dos.LogDOS) {
	t.Helper()
	lat := lattice.MustNew(lattice.SC, 2, 2, 2)
	m := alloy.BinaryOrdering(lat, 0.05)
	ex, err := dos.EnumerateFixedComposition(m, []int{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	d, err := ex.ToLogDOS(0.025)
	if err != nil {
		t.Fatal(err)
	}
	return m, d
}

// TestREWLMatchesExact: two overlapping windows with replica exchange must
// reproduce the exact DOS after merging.
func TestREWLMatchesExact(t *testing.T) {
	m, exact := exact8(t)
	wins, err := SplitWindows(exact.EMin, exact.EMax(), 2, 0.5, exact.BinWidth)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(1)
	seed := lattice.EquiatomicConfig(m.Lattice(), 2, src)
	res, err := Run(m, seed, wins,
		func(win, widx int, s *rng.Source) mc.Proposal { return mc.NewSwapProposal(m) },
		Options{Seed: 2, WL: wanglandau.Options{LnFFinal: 1e-5}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllConverged {
		t.Fatal("REWL did not converge")
	}
	rms, n, err := dos.RMSLogError(res.DOS, exact)
	if err != nil {
		t.Fatal(err)
	}
	if n < 4 || rms > 0.2 {
		t.Errorf("REWL RMS = %g over %d bins", rms, n)
	}
	if res.TotalSweeps <= 0 || res.Rounds <= 0 {
		t.Error("bookkeeping empty")
	}
	for wi, ws := range res.Windows {
		if !ws.Converged {
			t.Errorf("window %d unconverged", wi)
		}
		if ws.AcceptRatio <= 0 || ws.AcceptRatio > 1 {
			t.Errorf("window %d acceptance %g", wi, ws.AcceptRatio)
		}
	}
}

// TestREWLMultiWalker: two walkers per window with ln g averaging must
// also converge to the exact DOS.
func TestREWLMultiWalker(t *testing.T) {
	m, exact := exact8(t)
	wins, err := SplitWindows(exact.EMin, exact.EMax(), 2, 0.5, exact.BinWidth)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(3)
	seed := lattice.EquiatomicConfig(m.Lattice(), 2, src)
	res, err := Run(m, seed, wins,
		func(win, widx int, s *rng.Source) mc.Proposal { return mc.NewSwapProposal(m) },
		Options{Seed: 4, WalkersPerWindow: 2, WL: wanglandau.Options{LnFFinal: 1e-4}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllConverged {
		t.Fatal("multi-walker REWL did not converge")
	}
	rms, _, err := dos.RMSLogError(res.DOS, exact)
	if err != nil {
		t.Fatal(err)
	}
	if rms > 0.25 {
		t.Errorf("multi-walker RMS = %g", rms)
	}
}

func TestREWLExchangesHappen(t *testing.T) {
	m, exact := exact8(t)
	wins, err := SplitWindows(exact.EMin, exact.EMax(), 3, 0.75, exact.BinWidth)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(5)
	seed := lattice.EquiatomicConfig(m.Lattice(), 2, src)
	res, err := Run(m, seed, wins,
		func(win, widx int, s *rng.Source) mc.Proposal { return mc.NewSwapProposal(m) },
		Options{Seed: 6, ExchangeInterval: 20, WL: wanglandau.Options{LnFFinal: 1e-4}})
	if err != nil {
		t.Fatal(err)
	}
	if res.ExchangeTried == 0 {
		t.Error("no exchanges attempted")
	}
	if res.ExchangeAccept > res.ExchangeTried {
		t.Error("more exchanges accepted than tried")
	}
}

// TestREWLRoundTrips: with heavily overlapping windows and frequent
// exchange attempts, replicas must complete ladder round trips.
func TestREWLRoundTrips(t *testing.T) {
	m, exact := exact8(t)
	wins, err := SplitWindows(exact.EMin, exact.EMax(), 2, 0.75, exact.BinWidth)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(21)
	seed := lattice.EquiatomicConfig(m.Lattice(), 2, src)
	res, err := Run(m, seed, wins,
		func(win, widx int, s *rng.Source) mc.Proposal { return mc.NewSwapProposal(m) },
		Options{Seed: 22, ExchangeInterval: 5, WL: wanglandau.Options{LnFFinal: 1e-6}})
	if err != nil {
		t.Fatal(err)
	}
	if res.RoundTrips == 0 {
		t.Errorf("no replica round trips over %d rounds (%d/%d exchanges accepted)",
			res.Rounds, res.ExchangeAccept, res.ExchangeTried)
	}
}

func TestREWLValidation(t *testing.T) {
	m, _ := exact8(t)
	src := rng.New(7)
	seed := lattice.EquiatomicConfig(m.Lattice(), 2, src)
	if _, err := Run(m, seed, nil, nil, Options{}); err == nil {
		t.Error("no windows accepted")
	}
	// A window no walker can reach must surface the preparation error.
	badWin := []wanglandau.Window{{EMin: 100, EMax: 101, Bins: 4}}
	_, err := Run(m, seed, badWin,
		func(win, widx int, s *rng.Source) mc.Proposal { return mc.NewSwapProposal(m) },
		Options{Seed: 8, PrepareSweeps: 3})
	if err == nil {
		t.Error("unreachable window accepted")
	}
}

// TestREWLDeterministic: same options, same seed → identical DOS.
func TestREWLDeterministic(t *testing.T) {
	m, exact := exact8(t)
	wins, _ := SplitWindows(exact.EMin, exact.EMax(), 2, 0.5, exact.BinWidth)
	run := func() *dos.LogDOS {
		src := rng.New(9)
		seed := lattice.EquiatomicConfig(m.Lattice(), 2, src)
		res, err := Run(m, seed, wins,
			func(win, widx int, s *rng.Source) mc.Proposal { return mc.NewSwapProposal(m) },
			Options{Seed: 10, WL: wanglandau.Options{LnFFinal: 1e-3}})
		if err != nil {
			t.Fatal(err)
		}
		return res.DOS
	}
	a, b := run(), run()
	for i := range a.LogG {
		av, bv := a.LogG[i], b.LogG[i]
		if math.IsInf(av, -1) && math.IsInf(bv, -1) {
			continue
		}
		if av != bv {
			t.Fatalf("bin %d differs between identical runs: %g vs %g", i, av, bv)
		}
	}
}

// cancelAfter is a proposal that cancels a context on its n-th Propose
// call, which lands a cancellation inside a chosen sweep of a chosen round.
type cancelAfter struct {
	mc.Proposal
	left   int
	cancel context.CancelFunc
}

func (p *cancelAfter) Propose(cfg lattice.Config, e float64, src *rng.Source) (float64, float64) {
	if p.left--; p.left == 0 {
		p.cancel()
	}
	return p.Proposal.Propose(cfg, e, src)
}

// TestRunContextCancel: cancelling mid-sweep must stop within the round,
// skip that round's coordination and checkpoint, and return the last
// completed round's merged DOS alongside the context error; resuming from
// what is on disk must then finish exactly like the run that was never
// interrupted (the static_2walkers golden). The same holds at every world
// size.
func TestRunContextCancel(t *testing.T) {
	row := goldenRowNamed("static_2walkers")
	m, exact := row.system(t)
	wins, err := SplitWindows(exact.EMin, exact.EMax(), row.windows, row.overlap, exact.BinWidth)
	if err != nil {
		t.Fatal(err)
	}
	seed := lattice.EquiatomicConfig(m.Lattice(), 2, rng.New(row.cfgSeed))
	// Walker 0 of window 0 proposes once per site per sweep; its 40th
	// proposal of round 5 is well inside that round's sweep phase.
	const fullRounds = 4
	cancelAt := fullRounds*row.opts.ExchangeInterval*m.Lattice().NumSites() + 40

	for _, ranks := range []int{1, 2} {
		t.Run(fmt.Sprintf("world%d", ranks), func(t *testing.T) {
			opts := row.opts
			opts.CheckpointDir, opts.CheckpointEvery = t.TempDir(), 1
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			// Only the leader's outcome is specified.
			results, errs := runWorld(t, ctx, false, ranks, m, seed, wins, cancelling(m, cancelAt, cancel), opts)
			res := results[0]
			if !errors.Is(errs[0], context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", errs[0])
			}
			if res == nil || res.DOS == nil {
				t.Fatal("no partial result after cancellation")
			}
			if res.AllConverged || res.Rounds != fullRounds+1 {
				t.Errorf("cancelled in round %d, result reports %d rounds, converged=%v", fullRounds+1, res.Rounds, res.AllConverged)
			}
			if got := savedRounds(opts.CheckpointDir); len(got) == 0 || got[0] != fullRounds {
				t.Errorf("checkpoint rounds %v, want newest %d: the cancelled round is not written", got, fullRounds)
			}

			opts.Resume = true
			resumed := runDistChan(t, ranks, m, seed, wins, opts)
			if !resumed.Resumed {
				t.Error("run not flagged as resumed")
			}
			requireGolden(t, row.name, resumed)
		})
	}
}

func goldenRowNamed(name string) goldenRow {
	for _, r := range goldenRows() {
		if r.name == name {
			return r
		}
	}
	panic("no golden row " + name)
}

// cancelling returns a swap-proposal factory whose walker 0 of window 0
// cancels ctx on its n-th proposal.
func cancelling(m *alloy.Model, n int, cancel context.CancelFunc) ProposalFactory {
	return func(win, widx int, s *rng.Source) mc.Proposal {
		if win == 0 && widx == 0 {
			return &cancelAfter{Proposal: mc.NewSwapProposal(m), left: n, cancel: cancel}
		}
		return mc.NewSwapProposal(m)
	}
}

// TestCancelReturnsLastCompletedRound: a run cancelled inside round 5
// returns context.Canceled with Rounds 5 and otherwise the Result of the
// same run capped at 4 rounds, DOS bits included — in a world of one, chan
// worlds of 2 and 3 ranks and a 2-rank TCP world, every repetition. No
// walker counts as failed and no window as degraded: the cancellation is
// not a fault.
func TestCancelReturnsLastCompletedRound(t *testing.T) {
	row := goldenRowNamed("static_2walkers")
	m, exact := row.system(t)
	wins, err := SplitWindows(exact.EMin, exact.EMax(), row.windows, row.overlap, exact.BinWidth)
	if err != nil {
		t.Fatal(err)
	}
	seed := lattice.EquiatomicConfig(m.Lattice(), 2, rng.New(row.cfgSeed))
	const fullRounds = 4
	// Walker 0 of window 0's 40th proposal of round 5.
	cancelAt := fullRounds*row.opts.ExchangeInterval*m.Lattice().NumSites() + 40

	capped := row.opts
	capped.MaxRounds = fullRounds
	want, err := RunContext(context.Background(), m, seed, wins, swapFactory(m), capped)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []struct {
		name  string
		tcp   bool
		ranks int
	}{{"world1", false, 1}, {"chan2", false, 2}, {"chan3", false, 3}, {"tcp2", true, 2}} {
		t.Run(w.name, func(t *testing.T) {
			for rep := 0; rep < 3; rep++ {
				ctx, cancel := context.WithCancel(context.Background())
				results, errs := runWorld(t, ctx, w.tcp, w.ranks, m, seed, wins, cancelling(m, cancelAt, cancel), row.opts)
				cancel()
				got := results[0]
				if !errors.Is(errs[0], context.Canceled) {
					t.Fatalf("repetition %d: err = %v, want context.Canceled", rep, errs[0])
				}
				if got == nil || got.DOS == nil {
					t.Fatalf("repetition %d: no result after cancellation", rep)
				}
				if got.Rounds != fullRounds+1 || got.FailedWalkers != 0 || got.DegradedWindows != 0 {
					t.Errorf("repetition %d: %d rounds, %d failed walkers, %d degraded windows; want %d, 0, 0",
						rep, got.Rounds, got.FailedWalkers, got.DegradedWindows, fullRounds+1)
				}
				// Every other field, DOS bits included.
				g := *got
				g.Rounds = want.Rounds
				sameResult(t, &g, want)
				g.DOS = want.DOS
				if !reflect.DeepEqual(&g, want) {
					t.Errorf("repetition %d: result differs from the run capped at %d rounds:\n got %+v\nwant %+v", rep, fullRounds, &g, want)
				}
			}
		})
	}
}

// TestCancelBeforeAnyRoundAfterResume: a resumed run cancelled inside its
// first round has completed no round since it restarted, so it returns no
// Result, only context.Canceled, and leaves the checkpoints as they were.
func TestCancelBeforeAnyRoundAfterResume(t *testing.T) {
	row := goldenRowNamed("static_2walkers")
	m, exact := row.system(t)
	wins, err := SplitWindows(exact.EMin, exact.EMax(), row.windows, row.overlap, exact.BinWidth)
	if err != nil {
		t.Fatal(err)
	}
	seed := lattice.EquiatomicConfig(m.Lattice(), 2, rng.New(row.cfgSeed))
	for _, ranks := range []int{1, 2} {
		t.Run(fmt.Sprintf("world%d", ranks), func(t *testing.T) {
			opts := row.opts
			opts.CheckpointDir, opts.CheckpointEvery, opts.MaxRounds = t.TempDir(), 1, 4
			runDistChan(t, ranks, m, seed, wins, opts)
			before := dirFiles(t, opts.CheckpointDir)

			opts.Resume, opts.MaxRounds = true, 0
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			results, errs := runWorld(t, ctx, false, ranks, m, seed, wins, cancelling(m, 40, cancel), opts)
			if results[0] != nil || !errors.Is(errs[0], context.Canceled) {
				t.Fatalf("got (%v, %v), want (nil, context.Canceled)", results[0], errs[0])
			}
			if after := dirFiles(t, opts.CheckpointDir); !reflect.DeepEqual(after, before) {
				t.Error("the cancelled resume changed the checkpoints")
			}
		})
	}
}

// TestResumeWithNoRoundLeft: a run resumed from a checkpoint at MaxRounds
// has no round to run, so no report to build a Result from; it fails
// instead of returning one.
func TestResumeWithNoRoundLeft(t *testing.T) {
	row := goldenRowNamed("static_2walkers")
	m, exact := row.system(t)
	wins, err := SplitWindows(exact.EMin, exact.EMax(), row.windows, row.overlap, exact.BinWidth)
	if err != nil {
		t.Fatal(err)
	}
	seed := lattice.EquiatomicConfig(m.Lattice(), 2, rng.New(row.cfgSeed))
	opts := row.opts
	opts.CheckpointDir, opts.CheckpointEvery, opts.MaxRounds = t.TempDir(), 2, 4
	if _, err := RunContext(context.Background(), m, seed, wins, swapFactory(m), opts); err != nil {
		t.Fatal(err)
	}
	opts.Resume = true
	if res, err := RunContext(context.Background(), m, seed, wins, swapFactory(m), opts); res != nil || err == nil {
		t.Fatalf("got (%v, %v), want an error", res, err)
	}
}

// TestRunContextPreCancelled: a cancelled context returns promptly.
func TestRunContextPreCancelled(t *testing.T) {
	m, exact := exact8(t)
	wins, _ := SplitWindows(exact.EMin, exact.EMax(), 2, 0.5, exact.BinWidth)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	src := rng.New(5)
	seed := lattice.EquiatomicConfig(m.Lattice(), 2, src)
	_, err := RunContext(ctx, m, seed, wins,
		func(win, widx int, s *rng.Source) mc.Proposal { return mc.NewSwapProposal(m) },
		Options{Seed: 6, WL: wanglandau.Options{LnFFinal: 1e-300}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
