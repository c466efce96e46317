package deepthermo

import (
	"math"
	"testing"

	"deepthermo/internal/rng"
	"deepthermo/internal/vae"
)

// batchParitySystem builds a small system with a fixed-seed (untrained)
// proposal model; the DL proposal only needs weights, and untrained weights
// exercise the full accept/reject machinery.
func batchParitySystem(t *testing.T) *System {
	t.Helper()
	sys, err := NewSystem(SystemConfig{Cells: 2, Seed: 3, Latent: 4, Hidden: 24})
	if err != nil {
		t.Fatal(err)
	}
	model, err := vae.New(vae.Config{
		Sites:   sys.Lat.NumSites(),
		Species: sys.Ham.NumSpecies(),
		Latent:  4,
		Hidden:  24,
		BetaKL:  1,
	}, rng.New(77))
	if err != nil {
		t.Fatal(err)
	}
	sys.Model = model
	return sys
}

// TestSampleDOSBatchInferenceParity runs the same multi-walker REWL DOS
// sampling twice — per-walker weight clones vs. clients of one shared
// inference engine — and requires the results to be bit-identical: same
// convergence, same sweep/round counts, and the same ln g in every bin to
// the last bit. This pins the whole chain: the clients' shared-weight
// replicas and the factory's RNG draw-parity burn (vae.WeightDraws).
func TestSampleDOSBatchInferenceParity(t *testing.T) {
	cfg := DOSConfig{Windows: 2, Walkers: 4, Bins: 16, LnFFinal: 1e-2, DLWeight: 0.3}

	seq, err := batchParitySystem(t).SampleDOS(cfg)
	if err != nil {
		t.Fatal(err)
	}

	cfg.BatchInference = true
	bat, err := batchParitySystem(t).SampleDOS(cfg)
	if err != nil {
		t.Fatal(err)
	}

	if seq.Converged != bat.Converged || seq.Sweeps != bat.Sweeps || seq.Rounds != bat.Rounds {
		t.Fatalf("run shape diverged: sequential {conv:%v sweeps:%d rounds:%d} vs batched {conv:%v sweeps:%d rounds:%d}",
			seq.Converged, seq.Sweeps, seq.Rounds, bat.Converged, bat.Sweeps, bat.Rounds)
	}
	if len(seq.DOS.LogG) != len(bat.DOS.LogG) {
		t.Fatalf("bin counts diverged: %d vs %d", len(seq.DOS.LogG), len(bat.DOS.LogG))
	}
	if math.Float64bits(seq.DOS.EMin) != math.Float64bits(bat.DOS.EMin) ||
		math.Float64bits(seq.DOS.BinWidth) != math.Float64bits(bat.DOS.BinWidth) {
		t.Fatalf("energy grid diverged")
	}
	for i := range seq.DOS.LogG {
		if math.Float64bits(seq.DOS.LogG[i]) != math.Float64bits(bat.DOS.LogG[i]) {
			t.Fatalf("bin %d: ln g %x (sequential) != %x (batched)", i, seq.DOS.LogG[i], bat.DOS.LogG[i])
		}
	}

	if bat.Batch == nil {
		t.Fatal("batched run reported no engine stats")
	}
	// Every DL forward goes through an engine client, as a batch of one.
	if st := *bat.Batch; st.Requests == 0 || st.Batches != st.Requests || st.MaxBatch != 1 || st.PassThrough != 0 {
		t.Fatalf("batched run did not route its forwards through engine clients: %+v", st)
	}
	if seq.Batch != nil {
		t.Fatal("sequential run unexpectedly reported engine stats")
	}
}
