package vae

import (
	"math"
	"sync"
	"testing"

	"deepthermo/internal/lattice"
	"deepthermo/internal/nn"
	"deepthermo/internal/rng"
)

// randomCfg draws a random (unconstrained) configuration.
func randomCfg(n, k int, src *rng.Source) lattice.Config {
	cfg := make(lattice.Config, n)
	for i := range cfg {
		cfg[i] = lattice.Species(src.Intn(k))
	}
	return cfg
}

// TestEncodeBatchBitIdentity: ShareWeights replicas, each encoding its
// own requests on its own goroutine at the same time, must produce the base
// model's serial encode of every request, bit for bit. Half the requests
// carry a zero condition to exercise that branch of the sparse forward.
func TestEncodeBatchBitIdentity(t *testing.T) {
	cfg := testConfig()
	m, err := New(cfg, rng.New(41))
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(42)
	n, k, l := cfg.Sites, cfg.Species, cfg.Latent
	const replicas, reqs = 4, 16

	cfgs := make([][]lattice.Config, replicas)
	conds := make([][]float64, replicas)
	for r := range cfgs {
		for i := 0; i < reqs; i++ {
			cfgs[r] = append(cfgs[r], randomCfg(n, k, src))
			cond := src.Float64() * 2
			if i%2 == 0 {
				cond = 0
			}
			conds[r] = append(conds[r], cond)
		}
	}
	mus := make([][][]float64, replicas)
	lvs := make([][][]float64, replicas)
	var wg sync.WaitGroup
	for r := 0; r < replicas; r++ {
		rep := m.ShareWeights()
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < reqs; i++ {
				mu, lv := rep.EncodeInto(cfgs[r][i], conds[r][i], make([]float64, l), make([]float64, l))
				mus[r] = append(mus[r], mu)
				lvs[r] = append(lvs[r], lv)
			}
		}(r)
	}
	wg.Wait()
	for r := 0; r < replicas; r++ {
		for i := 0; i < reqs; i++ {
			wantMu, wantLv := m.EncodeInto(cfgs[r][i], conds[r][i], nil, nil)
			for j := 0; j < l; j++ {
				if math.Float64bits(mus[r][i][j]) != math.Float64bits(wantMu[j]) {
					t.Fatalf("replica %d request %d mu[%d]: %x != %x", r, i, j, mus[r][i][j], wantMu[j])
				}
				if math.Float64bits(lvs[r][i][j]) != math.Float64bits(wantLv[j]) {
					t.Fatalf("replica %d request %d lv[%d]: %x != %x", r, i, j, lvs[r][i][j], wantLv[j])
				}
			}
		}
	}
}

// TestDecodeProbsBatchBitIdentity is the decoder-side twin of
// TestEncodeBatchBitIdentity, interleaving replica decodes with decodes on
// the base model itself, so each must leave the other's scratch alone.
func TestDecodeProbsBatchBitIdentity(t *testing.T) {
	cfg := testConfig()
	m, err := New(cfg, rng.New(43))
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := New(cfg, rng.New(43)) // same seed ⇒ same weights; no scratch sharing
	reps := []*Model{m.ShareWeights(), m.ShareWeights()}
	src := rng.New(44)
	n, k, l := cfg.Sites, cfg.Species, cfg.Latent

	for i := 0; i < 12; i++ {
		z := make([]float64, l)
		for j := range z {
			z[j] = src.NormFloat64()
		}
		cond := src.Float64()
		want := ref.DecodeProbsInto(z, cond, nil)
		for _, got := range [][][]float64{
			reps[i%2].DecodeProbsInto(z, cond, NewProbs(n, k)),
			m.DecodeProbsInto(z, cond, nil),
			reps[(i+1)%2].DecodeProbsInto(z, cond, nil),
		} {
			for site := 0; site < n; site++ {
				for sp := 0; sp < k; sp++ {
					if math.Float64bits(got[site][sp]) != math.Float64bits(want[site][sp]) {
						t.Fatalf("decode %d site %d sp %d: %x != %x", i, site, sp, got[site][sp], want[site][sp])
					}
				}
			}
		}
	}
}

// TestWeightDraws pins the draw-parity contract the batched-engine proposal
// factory relies on: constructing a model must consume exactly
// WeightDraws(cfg) Float64 draws, so burning that many draws leaves an RNG
// stream in the identical state CloneWeights would have left it in.
func TestWeightDraws(t *testing.T) {
	for _, cfg := range []Config{
		testConfig(),
		{Sites: 54, Species: 4, Latent: 6, Hidden: 96, BetaKL: 1},
		{Sites: 16, Species: 2, Latent: 2, Hidden: 8, BetaKL: 1},
	} {
		a := rng.New(71)
		if _, err := New(cfg, a); err != nil {
			t.Fatal(err)
		}
		b := rng.New(71)
		for i, n := 0, WeightDraws(cfg); i < n; i++ {
			b.Float64()
		}
		for i := 0; i < 16; i++ {
			x, y := a.Float64(), b.Float64()
			if math.Float64bits(x) != math.Float64bits(y) {
				t.Fatalf("cfg %+v: streams diverge %d draws after init: %x vs %x", cfg, i, x, y)
			}
		}
	}
}

// TestStepBatchResizeRegression pins vae.Model.Step across a batch-size
// grow-then-shrink: a model stepped at B=8 and then at B=3 must produce
// bit-identical losses and gradients to a fresh model that only ever saw
// those batches — any stale scratch reuse (partially overwritten Ensure
// buffers, mis-sized latent intermediates) diverges the comparison.
func TestStepBatchResizeRegression(t *testing.T) {
	cfg := testConfig()
	run := func() []Losses {
		m, err := New(cfg, rng.New(51))
		if err != nil {
			t.Fatal(err)
		}
		data := rng.New(52)
		noise := rng.New(53)
		var out []Losses
		// Grow then shrink then regrow; reuse one data stream so both runs
		// see identical batches at each stage.
		for _, b := range []int{8, 3, 8, 1, 5} {
			x, conds, targets := testBatch(m, b, data)
			out = append(out, m.Step(x, conds, targets, noise))
		}
		return out
	}
	a := run()
	bLosses := run()
	for i := range a {
		if math.Float64bits(a[i].Recon) != math.Float64bits(bLosses[i].Recon) ||
			math.Float64bits(a[i].KL) != math.Float64bits(bLosses[i].KL) ||
			a[i].Accuracy != bLosses[i].Accuracy {
			t.Fatalf("step %d: resize sequence not deterministic: %+v vs %+v", i, a[i], bLosses[i])
		}
	}

	// Second claim: the B=3 step after a B=8 step matches the same B=3 step
	// on a model that was never resized — no stale wide-batch scratch can
	// leak into the narrow batch. Gradients are compared bit-for-bit.
	m1, _ := New(cfg, rng.New(51))
	m2, _ := New(cfg, rng.New(51))
	data1 := rng.New(52)
	noise1 := rng.New(53)
	x8, c8, t8 := testBatch(m1, 8, data1)
	m1.Step(x8, c8, t8, noise1) // warm m1's scratch at B=8, consuming 8·L normals
	x3, c3, t3 := testBatch(m1, 3, data1)
	// Replay m1's RNG position on a fresh noise stream for m2: burn the
	// draws the B=8 step consumed (Latent normals per row).
	noise2 := rng.New(53)
	for i := 0; i < 8*cfg.Latent; i++ {
		noise2.NormFloat64()
	}
	nn1 := m1.Params()
	nn.ZeroGrads(nn1)
	l1 := m1.Step(x3, c3, t3, noise1)
	nn2 := m2.Params()
	nn.ZeroGrads(nn2)
	l2 := m2.Step(x3, c3, t3, noise2)
	if math.Float64bits(l1.Recon) != math.Float64bits(l2.Recon) ||
		math.Float64bits(l1.KL) != math.Float64bits(l2.KL) {
		t.Fatalf("B=3 after B=8 diverged from fresh B=3: %+v vs %+v", l1, l2)
	}
	for p := range nn1 {
		for g := range nn1[p].Grad {
			if math.Float64bits(nn1[p].Grad[g]) != math.Float64bits(nn2[p].Grad[g]) {
				t.Fatalf("param %d grad %d: %x != %x after resize", p, g, nn1[p].Grad[g], nn2[p].Grad[g])
			}
		}
	}
}

// TestStepInterleavedWithBatchedInference: a ShareWeights replica reads
// the base model's weights in place, so after each training step of the
// base model (Step plus an Adam update) the replica's next encode and
// decode equal those of a fresh CloneWeights copy of the updated weights.
// The replica's inference between steps must not disturb training: the
// base model's losses stay bit-identical to a twin that never had one.
func TestStepInterleavedWithBatchedInference(t *testing.T) {
	cfg := testConfig()
	m, err := New(cfg, rng.New(61))
	if err != nil {
		t.Fatal(err)
	}
	twin, _ := New(cfg, rng.New(61))
	rep := m.ShareWeights()
	optM, optT := nn.NewAdam(0.01), nn.NewAdam(0.01)
	data := rng.New(62)
	noiseM := rng.New(63)
	noiseT := rng.New(63)
	src := rng.New(64)
	n, k, l := cfg.Sites, cfg.Species, cfg.Latent

	for round := 0; round < 4; round++ {
		x, c, tg := testBatch(m, 4, data)
		nn.ZeroGrads(m.Params())
		nn.ZeroGrads(twin.Params())
		lm := m.Step(x, c, tg, noiseM)
		lt := twin.Step(x, c, tg, noiseT)
		if math.Float64bits(lm.Recon) != math.Float64bits(lt.Recon) ||
			math.Float64bits(lm.KL) != math.Float64bits(lt.KL) {
			t.Fatalf("round %d: training step diverged next to replica inference: %+v vs %+v", round, lm, lt)
		}
		optM.Step(m.Params())
		optT.Step(twin.Params())

		clone := m.CloneWeights(rng.New(uint64(65 + round)))
		probe := randomCfg(n, k, src)
		cond := src.Float64()
		gotMu, gotLv := rep.EncodeInto(probe, cond, nil, nil)
		wantMu, wantLv := clone.EncodeInto(probe, cond, nil, nil)
		for j := 0; j < l; j++ {
			if math.Float64bits(gotMu[j]) != math.Float64bits(wantMu[j]) ||
				math.Float64bits(gotLv[j]) != math.Float64bits(wantLv[j]) {
				t.Fatalf("round %d: replica encode missed the updated weights", round)
			}
		}
		got := rep.DecodeProbsInto(gotMu, cond, nil)
		want := clone.DecodeProbsInto(wantMu, cond, nil)
		for site := 0; site < n; site++ {
			for sp := 0; sp < k; sp++ {
				if math.Float64bits(got[site][sp]) != math.Float64bits(want[site][sp]) {
					t.Fatalf("round %d: replica decode missed the updated weights at site %d", round, site)
				}
			}
		}
	}
}
