package rewl

import (
	"math"
	"testing"

	"deepthermo/internal/alloy"
	"deepthermo/internal/chaos"
	"deepthermo/internal/dos"
	"deepthermo/internal/lattice"
	"deepthermo/internal/mc"
	"deepthermo/internal/rng"
	"deepthermo/internal/wanglandau"
)

// countsConfig is a shuffled configuration of lat with exactly counts[s]
// sites of species s.
func countsConfig(t testing.TB, lat *lattice.Lattice, counts []int, src *rng.Source) lattice.Config {
	t.Helper()
	conc := make([]float64, len(counts))
	for i, c := range counts {
		conc[i] = float64(c)
	}
	cfg, err := lattice.RandomConfig(lat, conc, src)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// exactLogDOS enumerates m at the fixed composition counts and bins the
// levels at width binW.
func exactLogDOS(t testing.TB, m *alloy.Model, counts []int, binW float64) (*dos.Exact, *dos.LogDOS) {
	t.Helper()
	exact, err := dos.EnumerateFixedComposition(m, counts)
	if err != nil {
		t.Fatal(err)
	}
	exDOS, err := exact.ToLogDOS(binW)
	if err != nil {
		t.Fatal(err)
	}
	return exact, exDOS
}

// TestE11Validation is experiment E11, the methods-section check that
// grounds every DOS-derived number: serial Wang-Landau and 2-window REWL
// against exact enumeration on three exactly enumerable systems.
//
//	go test -run TestE11Validation -v ./internal/rewl/
func TestE11Validation(t *testing.T) {
	const lnFFinal, baseSeed = 1e-4, 111
	latA := lattice.MustNew(lattice.SC, 2, 2, 2)
	latB := lattice.MustNew(lattice.BCC, 2, 2, 2)
	ternary, err := alloy.NewEPI(latA, 3, [][][]float64{{
		{0, -0.012, 0.004},
		{-0.012, 0, -0.006},
		{0.004, -0.006, 0},
	}}, []string{"A", "B", "C"})
	if err != nil {
		t.Fatal(err)
	}
	systems := []struct {
		name   string
		lat    *lattice.Lattice
		ham    *alloy.Model
		counts []int
		binW   float64
	}{
		{"8-site binary (SC 2³)", latA, alloy.BinaryOrdering(latA, 0.05), []int{4, 4}, 0.025},
		{"8-site ternary (SC 2³)", latA, ternary, []int{4, 2, 2}, 0.01},
		{"16-site binary (BCC 2³)", latB, alloy.BinaryOrdering(latB, 0.04), []int{8, 8}, 0.04},
	}

	t.Logf("%-26s %10s %6s %12s %12s %10s", "system", "states", "bins", "WL rms", "REWL rms", "WL sweeps")
	for si, sys := range systems {
		exact, exDOS := exactLogDOS(t, sys.ham, sys.counts, sys.binW)
		seed := uint64(baseSeed + si*31)

		src := rng.New(seed)
		w, err := wanglandau.NewWalker(sys.ham, countsConfig(t, sys.lat, sys.counts, src), mc.NewSwapProposal(sys.ham), src,
			wanglandau.Window{EMin: exDOS.EMin, EMax: exDOS.EMax(), Bins: exDOS.Bins()},
			wanglandau.Options{LnFFinal: lnFFinal})
		if err != nil {
			t.Fatal(err)
		}
		serial := w.Run()
		rmsSerial, _, err := dos.RMSLogError(serial.DOS, exDOS)
		if err != nil {
			t.Fatal(err)
		}

		wins, err := SplitWindows(exDOS.EMin, exDOS.EMax(), 2, 0.5, sys.binW)
		if err != nil {
			t.Fatal(err)
		}
		run, err := Run(sys.ham, countsConfig(t, sys.lat, sys.counts, rng.New(seed+1)), wins, swapFactory(sys.ham),
			Options{Seed: seed + 2, WL: wanglandau.Options{LnFFinal: lnFFinal}})
		if err != nil {
			t.Fatal(err)
		}
		rmsREWL, _, err := dos.RMSLogError(run.DOS, exDOS)
		if err != nil {
			t.Fatal(err)
		}

		t.Logf("%-26s %10.0f %6d %12.4f %12.4f %10d",
			sys.name, exact.Total(), exDOS.Bins(), rmsSerial, rmsREWL, serial.TotalSweeps)
		if rmsSerial > 0.3 || rmsREWL > 0.35 {
			t.Errorf("%s: rms %g / %g too large", sys.name, rmsSerial, rmsREWL)
		}
	}
}

// TestE13ChaosResilience is experiment E13: REWL on the 8-site binary
// under sampled walker-crash plans. A 10% crash rate must still converge,
// with a DOS error no worse than the fault-free seed-to-seed spread allows:
// resilience means a faulted run is indistinguishable from a reseeding.
//
//	go test -run TestE13ChaosResilience -v ./internal/rewl/
func TestE13ChaosResilience(t *testing.T) {
	const (
		seed             = 222
		windows, walkers = 2, 2
		spreadSeeds      = 5
	)
	lat := lattice.MustNew(lattice.SC, 2, 2, 2)
	ham := alloy.BinaryOrdering(lat, 0.05)
	counts := []int{4, 4}
	const binW = 0.025
	_, exDOS := exactLogDOS(t, ham, counts, binW)
	wins, err := SplitWindows(exDOS.EMin, exDOS.EMax(), windows, 0.5, binW)
	if err != nil {
		t.Fatal(err)
	}
	run := func(seed uint64, plan *chaos.Plan) (*Result, float64) {
		res, err := Run(ham, countsConfig(t, lat, counts, rng.New(seed)), wins, swapFactory(ham), Options{
			Seed:             seed,
			WalkersPerWindow: walkers,
			WL:               wanglandau.Options{LnFFinal: 1e-4},
			Faults:           plan,
		})
		if err != nil {
			t.Fatal(err)
		}
		rms, _, err := dos.RMSLogError(res.DOS, exDOS)
		if err != nil {
			t.Fatal(err)
		}
		return res, rms
	}

	spreadMin, spreadMax := math.Inf(1), 0.0
	for i := uint64(0); i < spreadSeeds; i++ {
		_, rms := run(seed+i, nil)
		spreadMin, spreadMax = math.Min(spreadMin, rms), math.Max(spreadMax, rms)
	}
	if spreadMax <= 0 {
		t.Fatalf("fault-free spread not measured: [%g, %g]", spreadMin, spreadMax)
	}
	t.Logf("fault-free spread over %d seeds: [%.4f, %.4f]", spreadSeeds, spreadMin, spreadMax)
	t.Logf("%-10s %8s %8s %9s %10s %10s %8s", "rate", "crashes", "failed", "degraded", "converged", "rms", "rounds")

	for ri, rate := range []float64{0, 0.05, 0.10, 0.20} {
		var plan *chaos.Plan
		if rate > 0 {
			// Scan plan seeds until the rate actually produces a crash, so
			// a nonzero row never repeats the baseline. Crash steps stay
			// well below the convergence sweep count, so a crash hits a
			// walker that is still working (a crash after convergence is
			// harmless by construction).
			for ps := uint64(seed + 1000*(ri+1)); plan.NumCrashes() == 0; ps++ {
				plan = chaos.Sample(ps, chaos.SampleOptions{Ranks: windows * walkers, CrashProb: rate, CrashMaxStep: 400})
			}
		}
		r, rms := run(seed, plan)
		t.Logf("%-10.2f %8d %8d %9d %10v %10.4f %8d",
			rate, plan.NumCrashes(), r.FailedWalkers, r.DegradedWindows, r.AllConverged, rms, r.Rounds)
		if rate != 0.10 {
			continue
		}
		if r.FailedWalkers < 1 {
			t.Errorf("10%% row lost no walkers: %d crashes in the plan", plan.NumCrashes())
		}
		if !r.AllConverged {
			t.Errorf("10%% fault rate did not converge after %d rounds", r.Rounds)
		}
		// "Within the seed-to-seed spread": no worse than the worst
		// fault-free seed, with modest slack for the lost walker's
		// statistics.
		if rms > 1.5*spreadMax {
			t.Errorf("10%% row RMS %.4f exceeds 1.5 × spread max %.4f", rms, spreadMax)
		}
	}
}
