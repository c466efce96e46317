// Package train drives VAE proposal-model training, both single-device and
// distributed data parallel (DDP).
//
// The DDP path reproduces the paper's multi-GPU training structure: every
// worker holds a model replica, computes gradients on its data shard, and
// joins a ring allreduce (package transport) before an identical optimizer
// step, so replicas stay bit-identical — the same invariant NCCL/RCCL-based
// DDP maintains. The active-learning loop (retraining on fresh samples
// mid-run) at the bottom is the paper's sample→train→propose cycle.
package train

import (
	"context"
	"fmt"
	"math"
	"sync"

	"deepthermo/internal/alloy"
	"deepthermo/internal/lattice"
	"deepthermo/internal/mc"
	"deepthermo/internal/nn"
	"deepthermo/internal/rng"
	"deepthermo/internal/tensor"
	"deepthermo/internal/transport"
	"deepthermo/internal/vae"
	"deepthermo/internal/workload"
)

// Options configures training.
type Options struct {
	Epochs    int
	BatchSize int
	LR        float64
	ClipNorm  float64 // 0 disables clipping
	Seed      uint64
	// KLWarmupEpochs linearly ramps the KL weight from 0 to the model's
	// configured BetaKL over this many epochs. Warmup prevents posterior
	// collapse in the small-data regime of the active-learning loop.
	KLWarmupEpochs int
}

func (o *Options) setDefaults() {
	if o.Epochs == 0 {
		o.Epochs = 20
	}
	if o.BatchSize == 0 {
		o.BatchSize = 32
	}
	if o.LR == 0 {
		o.LR = 1e-3
	}
	if o.ClipNorm == 0 {
		o.ClipNorm = 5
	}
}

// EpochStats records the mean losses of one epoch.
type EpochStats struct {
	Epoch    int
	Recon    float64
	KL       float64
	Accuracy float64
	// Diverged counts divergence events (NaN/Inf loss or gradient norm)
	// absorbed while producing this epoch: each event rolled the weights
	// back to the last finite snapshot and halved the learning rate
	// before the epoch was retried.
	Diverged int
}

// TotalDiverged sums the divergence events across a training report.
func TotalDiverged(stats []EpochStats) int {
	n := 0
	for _, s := range stats {
		n += s.Diverged
	}
	return n
}

// maxDivergences bounds rollback-and-halve recovery attempts across a
// whole Fit run before training gives up. Generous: halving 50 times
// shrinks any learning rate by ~1e15.
const maxDivergences = 50

// batch assembles rows [lo,hi) of ds into a one-hot matrix and label views.
func batch(model *vae.Model, ds *workload.Dataset, lo, hi int) (*tensor.Matrix, []float64, []lattice.Config) {
	b := hi - lo
	nk := model.Config().Sites * model.Config().Species
	x := tensor.NewMatrix(b, nk)
	for i := 0; i < b; i++ {
		model.OneHot(ds.Configs[lo+i], x.Row(i))
	}
	return x, ds.Conds[lo:hi], ds.Configs[lo:hi]
}

// Fit trains model on ds with Adam and returns per-epoch statistics.
func Fit(model *vae.Model, ds *workload.Dataset, opts Options) ([]EpochStats, error) {
	return FitContext(context.Background(), model, ds, opts)
}

// FitContext is Fit with cooperative cancellation, polled once per batch.
// On cancellation the statistics of the epochs completed so far are
// returned alongside ctx's error; the model keeps the weights of the last
// optimizer step, so a partially trained model remains usable.
//
// Training is divergence-guarded: if a batch produces a NaN/Inf loss or
// gradient norm, the weights roll back to the last snapshot that
// completed a finite epoch, the learning rate is halved (with fresh
// optimizer moments), and the epoch is retried. The events are surfaced
// as EpochStats.Diverged rather than silently baked into a NaN model
// artifact; exceeding maxDivergences fails the run.
func FitContext(ctx context.Context, model *vae.Model, ds *workload.Dataset, opts Options) ([]EpochStats, error) {
	opts.setDefaults()
	if ds.Len() == 0 {
		return nil, fmt.Errorf("train: empty dataset")
	}
	ds = ds.Copy() // epoch shuffles must not reorder the caller's data
	src := rng.New(opts.Seed)
	lr := opts.LR
	opt := nn.NewAdam(lr)
	params := model.Params()
	betaFinal := model.Config().BetaKL
	snapshot := nn.FlattenValues(params, nil) // last known-finite weights
	clipNorm := opts.ClipNorm
	if clipNorm <= 0 {
		// ClipGradNorm with an infinite bound is a no-op clip that still
		// reports the global norm the guard needs.
		clipNorm = math.Inf(1)
	}
	totalDiverged, epochDiverged := 0, 0
	var stats []EpochStats
	for epoch := 0; epoch < opts.Epochs; epoch++ {
		if opts.KLWarmupEpochs > 0 {
			ramp := float64(epoch+1) / float64(opts.KLWarmupEpochs)
			if ramp > 1 {
				ramp = 1
			}
			model.SetBetaKL(betaFinal * ramp)
		}
		ds.Shuffle(src)
		var agg vae.Losses
		steps := 0
		diverged := false
		for lo := 0; lo < ds.Len(); lo += opts.BatchSize {
			if err := ctx.Err(); err != nil {
				return stats, err
			}
			hi := lo + opts.BatchSize
			if hi > ds.Len() {
				hi = ds.Len()
			}
			x, conds, targets := batch(model, ds, lo, hi)
			nn.ZeroGrads(params)
			l := model.Step(x, conds, targets, src)
			norm := nn.ClipGradNorm(params, clipNorm)
			if !isFinite(l.Recon) || !isFinite(l.KL) || !isFinite(norm) {
				diverged = true
				break
			}
			opt.Step(params)
			agg.Recon += l.Recon
			agg.KL += l.KL
			agg.Accuracy += l.Accuracy
			steps++
		}
		if diverged {
			totalDiverged++
			epochDiverged++
			if totalDiverged > maxDivergences {
				return stats, fmt.Errorf("train: diverged %d times (lr halved to %g) without recovering", totalDiverged, lr)
			}
			nn.SetValues(params, snapshot)
			lr /= 2
			opt = nn.NewAdam(lr) // stale Adam moments point at the blow-up
			epoch--              // retry this epoch at the reduced rate
			continue
		}
		stats = append(stats, EpochStats{
			Epoch:    epoch,
			Recon:    agg.Recon / float64(steps),
			KL:       agg.KL / float64(steps),
			Accuracy: agg.Accuracy / float64(steps),
			Diverged: epochDiverged,
		})
		epochDiverged = 0
		snapshot = nn.FlattenValues(params, snapshot)
	}
	return stats, nil
}

func isFinite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

func gradsFinite(gs []float64) bool {
	for _, g := range gs {
		if !isFinite(g) {
			return false
		}
	}
	return true
}

// FitDDP trains with `workers` data-parallel replicas over the in-process
// transport backend and returns the converged model (identical on all
// replicas) plus rank-0 epoch statistics. The per-step effective batch is
// workers × BatchSize, as in the paper's scaled training.
func FitDDP(cfg vae.Config, ds *workload.Dataset, workers int, opts Options) (*vae.Model, []EpochStats, error) {
	return FitDDPContext(context.Background(), cfg, ds, workers, opts)
}

// FitDDPContext is FitDDP with cooperative cancellation: a cancelled
// context aborts the replicas at their next communication operation.
func FitDDPContext(ctx context.Context, cfg vae.Config, ds *workload.Dataset, workers int, opts Options) (*vae.Model, []EpochStats, error) {
	opts.setDefaults()
	if workers < 1 {
		return nil, nil, fmt.Errorf("train: need at least one worker")
	}
	if ds.Len() < workers {
		return nil, nil, fmt.Errorf("train: dataset of %d samples cannot shard over %d workers", ds.Len(), workers)
	}
	world := transport.NewChanWorld(workers)

	// All replicas start from identical weights: same init stream.
	models := make([]*vae.Model, workers)
	for i := range models {
		m, err := vae.New(cfg, rng.New(opts.Seed))
		if err != nil {
			return nil, nil, err
		}
		models[i] = m
	}

	allStats := make([][]EpochStats, workers)
	errCh := make(chan error, workers)
	var wg sync.WaitGroup
	for r := 0; r < workers; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			stats, err := FitDDPEndpoint(ctx, models[rank], world.Endpoint(rank), ds, opts)
			if err != nil {
				errCh <- err
				return
			}
			allStats[rank] = stats
		}(r)
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		return nil, nil, err
	}
	return models[0], allStats[0], nil
}

// FitDDPEndpoint runs one replica's DDP training loop over any transport
// endpoint — the unit one OS process (cmd/dtworker) executes when the
// world spans machines. model must be initialized identically on every
// rank (same config, same init seed); ds is the FULL dataset, sharded here
// by the endpoint's rank. Epoch statistics are returned on rank 0 and nil
// elsewhere.
//
// Determinism note: every replica shuffles its own shard with its own
// stream; the allreduced gradients (and therefore the weights) are
// identical on all replicas at every step because averaging commutes with
// the shard order — and because the ring allreduce schedule is identical
// across transport backends, the trajectory is bit-identical whether the
// ranks are goroutines or processes.
func FitDDPEndpoint(ctx context.Context, model *vae.Model, ep transport.Endpoint, full *workload.Dataset, opts Options) ([]EpochStats, error) {
	opts.setDefaults()
	rank, workers := ep.Rank(), ep.Size()
	shard := full.Shard(rank, workers).Copy() // local shuffles stay local
	if shard.Len() == 0 {
		return nil, fmt.Errorf("train: rank %d received an empty shard", rank)
	}
	src := rng.New(opts.Seed + uint64(rank)*0x9e37)
	opt := nn.NewAdam(opts.LR)
	params := model.Params()
	grads := make([]float64, nn.NumParams(params))
	stepsPerEpoch := (shard.Len() + opts.BatchSize - 1) / opts.BatchSize

	var stats []EpochStats
	for epoch := 0; epoch < opts.Epochs; epoch++ {
		shard.Shuffle(src)
		var agg vae.Losses
		for step := 0; step < stepsPerEpoch; step++ {
			lo := step * opts.BatchSize
			if lo >= shard.Len() {
				lo = shard.Len() - 1 // degenerate tiny shard: repeat last sample
			}
			hi := lo + opts.BatchSize
			if hi > shard.Len() {
				hi = shard.Len()
			}
			x, conds, targets := batch(model, shard, lo, hi)
			nn.ZeroGrads(params)
			l := model.Step(x, conds, targets, src)
			if opts.ClipNorm > 0 {
				nn.ClipGradNorm(params, opts.ClipNorm)
			}
			// Gradient averaging across replicas: the DDP allreduce. The
			// fault-aware variant keeps a dead or disconnected peer from
			// hanging the surviving replicas forever.
			nn.FlattenGrads(params, grads)
			if err := ep.AllreduceCtx(ctx, grads, transport.Sum); err != nil {
				return nil, fmt.Errorf("train: rank %d: allreduce at epoch %d step %d: %w", rank, epoch, step, err)
			}
			tensor.Scale(1/float64(workers), grads)
			// Divergence guard: the allreduced gradients are identical on
			// every replica, so every rank takes this branch in lockstep
			// and the replicas stay bit-identical. DDP has no per-rank
			// rollback protocol, so fail loudly instead of stepping a NaN
			// into every replica.
			if !gradsFinite(grads) {
				return nil, fmt.Errorf("train: rank %d: non-finite allreduced gradient at epoch %d step %d", rank, epoch, step)
			}
			nn.SetGrads(params, grads)
			opt.Step(params)
			agg.Recon += l.Recon
			agg.KL += l.KL
			agg.Accuracy += l.Accuracy
		}
		if rank == 0 {
			stats = append(stats, EpochStats{
				Epoch:    epoch,
				Recon:    agg.Recon / float64(stepsPerEpoch),
				KL:       agg.KL / float64(stepsPerEpoch),
				Accuracy: agg.Accuracy / float64(stepsPerEpoch),
			})
		}
		if err := ep.BarrierCtx(ctx); err != nil {
			return nil, fmt.Errorf("train: rank %d: barrier after epoch %d: %w", rank, epoch, err)
		}
	}
	return stats, nil
}

// ActiveLoopOptions configures the sample→train→propose cycle.
type ActiveLoopOptions struct {
	Rounds     int // retraining rounds (default 3)
	Gen        workload.GenOptions
	Train      Options
	UseDLInGen bool    // after round 0, generate with a DL+swap mixture
	DLWeight   float64 // mixture weight of the DL proposal (default 0.1)
	VAE        vae.Config
}

// ActiveLoop runs the full DeepThermo training cycle: generate data with
// the current best proposal, retrain the VAE, repeat. Returns the final
// model and the loss trajectory across rounds.
func ActiveLoop(m *alloy.Model, opts ActiveLoopOptions) (*vae.Model, [][]EpochStats, error) {
	if opts.Rounds == 0 {
		opts.Rounds = 3
	}
	if opts.DLWeight == 0 {
		opts.DLWeight = 0.1
	}
	var model *vae.Model
	var history [][]EpochStats
	for round := 0; round < opts.Rounds; round++ {
		gen := opts.Gen
		gen.Seed = opts.Gen.Seed + uint64(round)
		ds, err := generateRound(m, model, gen, opts)
		if err != nil {
			return nil, nil, err
		}
		if model == nil {
			model, err = vae.New(opts.VAE, rng.New(opts.Train.Seed))
			if err != nil {
				return nil, nil, err
			}
		}
		tr := opts.Train
		tr.Seed = opts.Train.Seed + uint64(round)*31
		stats, err := Fit(model, ds, tr)
		if err != nil {
			return nil, nil, err
		}
		history = append(history, stats)
	}
	return model, history, nil
}

// generateRound produces a round's dataset, optionally mixing the current
// DL proposal into the generator chains.
func generateRound(m *alloy.Model, model *vae.Model, gen workload.GenOptions, opts ActiveLoopOptions) (*workload.Dataset, error) {
	if model == nil || !opts.UseDLInGen {
		return workload.Generate(m, gen)
	}
	// Mixture generation: one chain per temperature with swap + DL moves.
	if gen.Quota == nil {
		n, k := m.Lattice().NumSites(), m.NumSpecies()
		gen.Quota = make([]int, k)
		for i := range gen.Quota {
			gen.Quota[i] = n / k
		}
		gen.Quota[k-1] += n - (n/k)*k
	}
	streams := rng.NewStreams(gen.Seed, len(gen.Temps))
	ds := &workload.Dataset{}
	for ti, t := range gen.Temps {
		src := streams[ti]
		// Build the start configuration from the quota so its composition
		// matches the DL proposal's constraint exactly.
		cfg := make(lattice.Config, 0, m.Lattice().NumSites())
		for sp, q := range gen.Quota {
			for i := 0; i < q; i++ {
				cfg = append(cfg, lattice.Species(sp))
			}
		}
		src.Shuffle(len(cfg), func(i, j int) { cfg[i], cfg[j] = cfg[j], cfg[i] })
		prop := mc.NewMixture(
			[]mc.Proposal{
				mc.NewSwapProposal(m),
				mc.NewGlobalProposal(model.CloneWeights(src), m, gen.Quota, mc.CondForT(t)),
			},
			[]float64{1 - opts.DLWeight, opts.DLWeight},
		)
		s := mc.NewSampler(m, cfg, prop, src)
		equil := gen.EquilSweeps
		if equil == 0 {
			equil = 200
		}
		gap := gen.GapSweeps
		if gap == 0 {
			gap = 10
		}
		for i := 0; i < equil; i++ {
			s.Sweep(t)
		}
		for i := 0; i < gen.SamplesPerTemp; i++ {
			for g := 0; g < gap; g++ {
				s.Sweep(t)
			}
			ds.Append(s.Cfg.Clone(), mc.CondForT(t), s.E)
		}
	}
	ds.Shuffle(rng.New(gen.Seed ^ 0x5a5a))
	return ds, nil
}
