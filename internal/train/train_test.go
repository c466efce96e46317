package train

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"

	"deepthermo/internal/alloy"
	"deepthermo/internal/lattice"
	"deepthermo/internal/nn"
	"deepthermo/internal/rng"
	"deepthermo/internal/transport"
	"deepthermo/internal/vae"
	"deepthermo/internal/workload"
)

func testSetup(t testing.TB) (*alloy.Model, *workload.Dataset, vae.Config) {
	t.Helper()
	m := alloy.NbMoTaW(lattice.MustNew(lattice.BCC, 2, 2, 2)) // 16 sites
	ds, err := workload.Generate(m, workload.GenOptions{
		Temps:          []float64{500, 2000},
		SamplesPerTemp: 40,
		EquilSweeps:    30,
		GapSweeps:      2,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := vae.Config{Sites: 16, Species: 4, Latent: 3, Hidden: 24, BetaKL: 1}
	return m, ds, cfg
}

func TestFitReducesLoss(t *testing.T) {
	_, ds, vcfg := testSetup(t)
	model, err := vae.New(vcfg, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := Fit(model, ds, Options{Epochs: 15, BatchSize: 16, LR: 3e-3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 15 {
		t.Fatalf("%d epochs reported", len(stats))
	}
	if stats[14].Recon >= stats[0].Recon {
		t.Errorf("recon loss %g → %g did not decrease", stats[0].Recon, stats[14].Recon)
	}
	for i, s := range stats {
		if s.Epoch != i {
			t.Fatal("epoch numbering wrong")
		}
		if s.Accuracy < 0 || s.Accuracy > 1 {
			t.Fatalf("accuracy %g out of range", s.Accuracy)
		}
	}
}

// TestFitDivergenceGuardRecovers: an absurd learning rate overflows the
// posterior mean (mu² → +Inf in the KL term) within a step; the guard
// must roll the weights back to the last finite snapshot, halve the rate
// until training stabilises, report the events in the stats, and deliver
// a finite model — not a NaN artifact. The VAE loss itself is clamped
// (logvar clamp, log(max(p,1e-300))), so only float64 overflow triggers
// divergence; 1e158 sits a few octaves above that boundary, well inside
// the guard's halving budget.
func TestFitDivergenceGuardRecovers(t *testing.T) {
	_, ds, vcfg := testSetup(t)
	model, err := vae.New(vcfg, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := Fit(model, ds, Options{Epochs: 3, BatchSize: 16, LR: 1e158, Seed: 3})
	if err != nil {
		t.Fatalf("guarded training failed outright: %v", err)
	}
	if len(stats) != 3 {
		t.Fatalf("%d finite epochs reported, want 3", len(stats))
	}
	if TotalDiverged(stats) == 0 {
		t.Fatal("lr=1e158 training reported no divergence events")
	}
	for _, s := range stats {
		if !isFinite(s.Recon) || !isFinite(s.KL) {
			t.Fatalf("reported epoch stats non-finite: %+v", s)
		}
	}
	flat := nn.FlattenValues(model.Params(), nil)
	for i, w := range flat {
		if !isFinite(w) {
			t.Fatalf("weight %d non-finite after guarded training: %g", i, w)
		}
	}
}

// TestFitDivergenceGuardGivesUp: a guard that can never stabilise (the
// divergence budget exhausted) fails the run with an error instead of
// looping forever.
func TestFitDivergenceGuardGivesUp(t *testing.T) {
	_, ds, vcfg := testSetup(t)
	model, err := vae.New(vcfg, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	// Poison a weight directly: every forward pass is NaN regardless of
	// the learning rate, so rollback-and-halve cannot recover.
	model.Params()[0].Value[0] = math.NaN()
	_, err = Fit(model, ds, Options{Epochs: 2, BatchSize: 16, LR: 1e-3, Seed: 3})
	if err == nil {
		t.Fatal("unrecoverable NaN model trained without error")
	}
}

func TestFitEmptyDataset(t *testing.T) {
	_, _, vcfg := testSetup(t)
	model, _ := vae.New(vcfg, rng.New(4))
	if _, err := Fit(model, &workload.Dataset{}, Options{}); err == nil {
		t.Error("empty dataset accepted")
	}
}

func TestKLWarmupRestoresBeta(t *testing.T) {
	_, ds, vcfg := testSetup(t)
	vcfg.BetaKL = 0.7
	model, _ := vae.New(vcfg, rng.New(5))
	_, err := Fit(model, ds, Options{Epochs: 4, BatchSize: 16, KLWarmupEpochs: 2, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if model.Config().BetaKL != 0.7 {
		t.Errorf("BetaKL after warmup = %g, want 0.7", model.Config().BetaKL)
	}
}

// cancelAfter is a context whose Err reports context.Canceled once it has
// been polled n times, so a cancellation lands on the same batch every run.
type cancelAfter struct {
	context.Context
	n int
}

func (c *cancelAfter) Err() error {
	if c.n == 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

// runChan runs FitDDPEndpoint on n replicas of a chan world, each
// initialised from opts.Seed, and returns every replica's model with rank
// 0's statistics.
func runChan(t *testing.T, vcfg vae.Config, ds *workload.Dataset, n int, opts Options) ([]*vae.Model, []EpochStats) {
	t.Helper()
	world := transport.NewChanWorld(n)
	models := make([]*vae.Model, n)
	stats := make([][]EpochStats, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := range models {
		m, err := vae.New(vcfg, rng.New(opts.Seed))
		if err != nil {
			t.Fatal(err)
		}
		models[r] = m
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			stats[r], errs[r] = FitDDPEndpoint(context.Background(), models[r], world.Endpoint(r), ds, opts)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return models, stats[0]
}

// TestFitDDPSingleWorkerMatchesFit: one-worker DDP is single-device
// training — rank 0's shuffle stream is the seed's own, its shard is the
// whole dataset, and there is nothing to average — so it must reproduce
// Fit bit for bit, in weights and in statistics, through the KL warm-up,
// divergence recovery and a cancellation mid-epoch.
func TestFitDDPSingleWorkerMatchesFit(t *testing.T) {
	_, ds, vcfg := testSetup(t)
	for _, row := range []struct {
		name   string
		opts   Options
		cancel int // cancel after this many batch polls; 0 never
	}{
		{name: "plain", opts: Options{Epochs: 3, BatchSize: 16, LR: 1e-3, Seed: 7}},
		{name: "kl_warmup", opts: Options{Epochs: 3, BatchSize: 16, LR: 1e-3, Seed: 7, KLWarmupEpochs: 3}},
		{name: "lr1e158", opts: Options{Epochs: 3, BatchSize: 16, LR: 1e158, Seed: 7}},
		// 80 samples in batches of 16: the 8th poll is batch 3 of epoch 2.
		{name: "cancelled", opts: Options{Epochs: 3, BatchSize: 16, LR: 1e-3, Seed: 7}, cancel: 7},
	} {
		t.Run(row.name, func(t *testing.T) {
			ctx := context.Background()
			if row.cancel > 0 {
				ctx = &cancelAfter{Context: ctx, n: row.cancel}
			}
			serial, err := vae.New(vcfg, rng.New(row.opts.Seed))
			if err != nil {
				t.Fatal(err)
			}
			serialStats, serialErr := FitContext(ctx, serial, ds, row.opts)

			var ddp *vae.Model
			var ddpStats []EpochStats
			var ddpErr error
			if row.cancel == 0 {
				ddp, ddpStats, ddpErr = FitDDP(vcfg, ds, 1, row.opts)
			} else {
				// FitDDP takes no context, so cancel the loop it runs
				// on each replica, over a world of one.
				if ddp, err = vae.New(vcfg, rng.New(row.opts.Seed)); err != nil {
					t.Fatal(err)
				}
				ctx = &cancelAfter{Context: context.Background(), n: row.cancel}
				ddpStats, ddpErr = FitDDPEndpoint(ctx, ddp, transport.NewChanWorld(1).Endpoint(0), ds, row.opts)
			}

			if row.cancel > 0 {
				if !errors.Is(serialErr, context.Canceled) || !errors.Is(ddpErr, context.Canceled) {
					t.Fatalf("errors %v / %v, want context.Canceled from both", serialErr, ddpErr)
				}
				if len(ddpStats) != 1 {
					t.Fatalf("cancelled in epoch 2 but %d epochs reported", len(ddpStats))
				}
			} else if serialErr != nil || ddpErr != nil {
				t.Fatalf("Fit: %v, FitDDP: %v", serialErr, ddpErr)
			}
			if row.opts.LR > 1 && TotalDiverged(ddpStats) == 0 {
				t.Fatal("lr=1e158 training reported no divergence events")
			}
			if got, want := goldenOf(ddp, ddpStats), goldenOf(serial, serialStats); !reflect.DeepEqual(got, want) {
				t.Errorf("FitDDP(…, 1) differs from Fit:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestFitDDPDivergenceRecovers: at an absurd learning rate, data-parallel
// training must recover the way single-device training does — roll back,
// halve the rate, report the events — and every replica must roll back in
// lockstep, so the weights stay bit-identical across ranks.
func TestFitDDPDivergenceRecovers(t *testing.T) {
	_, ds, vcfg := testSetup(t)
	opts := Options{Epochs: 3, BatchSize: 16, LR: 1e158, Seed: 3}
	model, stats, err := FitDDP(vcfg, ds, 2, opts)
	if err != nil {
		t.Fatalf("guarded DDP training failed outright: %v", err)
	}
	if len(stats) != 3 {
		t.Fatalf("%d finite epochs reported, want 3", len(stats))
	}
	if TotalDiverged(stats) == 0 {
		t.Fatal("lr=1e158 training reported no divergence events")
	}
	for _, s := range stats {
		if !isFinite(s.Recon) || !isFinite(s.KL) || !isFinite(s.Accuracy) {
			t.Fatalf("reported epoch stats non-finite: %+v", s)
		}
	}
	for i, w := range nn.FlattenValues(model.Params(), nil) {
		if !isFinite(w) {
			t.Fatalf("weight %d non-finite after guarded training: %g", i, w)
		}
	}
	models, _ := runChan(t, vcfg, ds, 2, opts)
	for r, m := range models {
		if weightsHash(m) != weightsHash(model) {
			t.Errorf("rank %d weights differ from FitDDP's model", r)
		}
	}
}

// TestFitDDPMultiWorker: training across 3 replicas must converge and
// return finite stats; the replicas' gradient averaging is exercised by
// the transport ring underneath.
func TestFitDDPMultiWorker(t *testing.T) {
	_, ds, vcfg := testSetup(t)
	model, stats, err := FitDDP(vcfg, ds, 3, Options{Epochs: 6, BatchSize: 8, LR: 3e-3, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if model == nil || len(stats) != 6 {
		t.Fatal("missing results")
	}
	if stats[5].Recon >= stats[0].Recon {
		t.Errorf("DDP recon %g → %g did not decrease", stats[0].Recon, stats[5].Recon)
	}
	for _, s := range stats {
		if math.IsNaN(s.Recon) || math.IsNaN(s.KL) {
			t.Fatal("NaN loss")
		}
	}
}

func TestFitDDPValidation(t *testing.T) {
	_, ds, vcfg := testSetup(t)
	if _, _, err := FitDDP(vcfg, ds, 0, Options{}); err == nil {
		t.Error("zero workers accepted")
	}
	tiny := &workload.Dataset{}
	if _, _, err := FitDDP(vcfg, tiny, 2, Options{}); err == nil {
		t.Error("undersized dataset accepted")
	}
}

// TestDDPDeterministic: identical seeds → identical final weights.
func TestDDPDeterministic(t *testing.T) {
	_, ds, vcfg := testSetup(t)
	opts := Options{Epochs: 2, BatchSize: 8, LR: 1e-3, Seed: 9}
	m1, _, err := FitDDP(vcfg, ds, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	m2, _, err := FitDDP(vcfg, ds, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	a := nn.FlattenValues(m1.Params(), nil)
	b := nn.FlattenValues(m2.Params(), nil)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("DDP not deterministic")
		}
	}
}

// TestFitContextCancel: cancellation mid-training returns the context
// error without corrupting the partially trained model.
func TestFitContextCancel(t *testing.T) {
	_, ds, cfg := testSetup(t)
	model, err := vae.New(cfg, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	stats, err := FitContext(ctx, model, ds, Options{Epochs: 50, BatchSize: 8, Seed: 3})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(stats) >= 50 {
		t.Fatalf("cancelled training ran all %d epochs", len(stats))
	}
	// The model still produces finite decode probabilities.
	probs := model.DecodeProbs(make([]float64, cfg.Latent), 0.5)
	for _, row := range probs {
		for _, p := range row {
			if math.IsNaN(p) {
				t.Fatal("NaN probability after cancelled training")
			}
		}
	}
}
