package deepthermo

import (
	"math"
	"testing"

	"deepthermo/internal/lattice"
	"deepthermo/internal/rng"
)

// TestE12CrossCheck is experiment E12: the facade's density of states,
// reweighted to canonical observables, against parallel tempering
// (tempering_test.go), an independent estimator of the same observables.
// Agreement bounds the systematic error of the facade's whole sampling
// plan (energy range, windows, seed configuration, REWL, normalisation).
// The 54-site row is the DOS oracle where exact enumeration cannot reach;
// its seed was fixed before it was first run.
//
//	go test -run TestE12CrossCheck -v .
func TestE12CrossCheck(t *testing.T) {
	for _, row := range []struct {
		name string
		sys  SystemConfig
		dos  DOSConfig
	}{
		{"16sites", SystemConfig{Cells: 2, Seed: 9}, DOSConfig{NoDL: true, Bins: 40}},
		{"54sites", SystemConfig{Cells: 3, Seed: 1}, DOSConfig{NoDL: true, Windows: 8, Bins: 48}},
	} {
		t.Run(row.name, func(t *testing.T) {
			seed := row.sys.Seed
			sys, err := NewSystem(row.sys)
			if err != nil {
				t.Fatal(err)
			}
			n := float64(sys.Lat.NumSites())
			temps := GeometricLadder(300, 3000, 8)
			pt, err := Run(sys.Ham, lattice.QuotaConfig(sys.Quota, rng.New(seed)), Options{
				Temps:          temps,
				SweepsPerRound: 20,
				EquilRounds:    150,
				MeasureRounds:  3000,
				Seed:           seed + 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := sys.SampleDOS(row.dos)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatalf("DOS run did not converge in %d rounds", res.Rounds)
			}
			curve, err := sys.Thermodynamics(res.DOS, temps)
			if err != nil {
				t.Fatal(err)
			}

			t.Logf("%d rounds", res.Rounds)
			t.Logf("%8s %14s %14s %12s %12s", "T(K)", "U/N PT (eV)", "U/N DOS (eV)", "Cv/N PT", "Cv/N DOS")
			maxDU, peakPT, peakDOS := 0.0, 0, 0
			for i, p := range curve {
				rep := pt.Replicas[i]
				uPT, cvPT := rep.Energy.Mean()/n, rep.Cv/n/KB
				uDOS, cvDOS := p.U/n, p.Cv/n/KB
				t.Logf("%8.0f %14.5f %14.5f %12.3f %12.3f", p.T, uPT, uDOS, cvPT, cvDOS)
				maxDU = math.Max(maxDU, math.Abs(uPT-uDOS))
				if rep.Cv > pt.Replicas[peakPT].Cv {
					peakPT = i
				}
				if p.Cv > curve[peakDOS].Cv {
					peakDOS = i
				}
			}
			t.Logf("max |ΔU| between methods: %.5f eV/site; Cv peak on rung %d (PT), %d (DOS)", maxDU, peakPT, peakDOS)
			// Independent estimators agree to a few meV/site.
			if maxDU > 0.004 {
				t.Errorf("methods disagree by %g eV/site", maxDU)
			}
			// Both methods see the same C_v peak location (coarse ladder check).
			if d := peakPT - peakDOS; d < -1 || d > 1 {
				t.Errorf("Cv peak at different rungs: PT %d vs DOS %d", peakPT, peakDOS)
			}
		})
	}
}
