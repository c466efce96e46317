// Package train drives VAE proposal-model training as distributed data
// parallel (DDP), the paper's multi-GPU training structure: every worker
// holds a model replica, computes gradients on its data shard, and joins a
// ring allreduce (package transport) before an identical optimizer step,
// so replicas stay bit-identical — the same invariant NCCL/RCCL-based DDP
// maintains.
//
// There is one epoch loop, FitDDPEndpoint. Single-device training (Fit)
// is that loop over a world of one rank, which skips the gradient round
// trip.
package train

import (
	"context"
	"fmt"
	"math"
	"sync"

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
	Seed      uint64
	// KLWarmupEpochs linearly ramps the KL weight from 0 to the model's
	// configured BetaKL over this many epochs. Warmup prevents posterior
	// collapse in the small-data regime of the proposal training sets.
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
}

// clipNorm bounds the global gradient norm of every step.
const clipNorm = 5

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
// whole training run before training gives up. Generous: halving 50 times
// shrinks any learning rate by ~1e15.
const maxDivergences = 50

// batch one-hot encodes rows [lo,hi) of ds into x reshaped by
// tensor.Ensure, so a fit reuses one matrix; OneHot zeroes each row before
// it sets the ones.
func batch(x *tensor.Matrix, model *vae.Model, ds *workload.Dataset, lo, hi int) *tensor.Matrix {
	x = tensor.Ensure(x, hi-lo, model.Config().Sites*model.Config().Species)
	for i := range hi - lo {
		model.OneHot(ds.Configs[lo+i], x.Row(i))
	}
	return x
}

// Fit trains model on ds with Adam and returns per-epoch statistics.
func Fit(model *vae.Model, ds *workload.Dataset, opts Options) ([]EpochStats, error) {
	return FitContext(context.Background(), model, ds, opts)
}

// FitContext is Fit with cooperative cancellation: FitDDPEndpoint over a
// world of one rank, so it shares that loop's divergence guard and
// returns the statistics of the completed epochs alongside ctx's error.
func FitContext(ctx context.Context, model *vae.Model, ds *workload.Dataset, opts Options) ([]EpochStats, error) {
	return FitDDPEndpoint(ctx, model, transport.NewChanWorld(1).Endpoint(0), ds, opts)
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
// workers × BatchSize, as in the paper's scaled training. On error the
// rank-0 model and the statistics of its completed epochs come with it.
func FitDDP(cfg vae.Config, ds *workload.Dataset, workers int, opts Options) (*vae.Model, []EpochStats, error) {
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

	var stats []EpochStats
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for r := range models {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			s, err := FitDDPEndpoint(context.Background(), models[rank], world.Endpoint(rank), ds, opts)
			if rank == 0 {
				stats = s
			}
			errs[rank] = err
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return models[0], stats, err
		}
	}
	return models[0], stats, nil
}

// FitDDPEndpoint runs one replica's DDP training loop over any transport
// endpoint — the unit one OS process (cmd/dtworker) executes when the
// world spans machines. model must be initialized identically on every
// rank (same config, same init seed); ds is the FULL dataset, sharded here
// by the endpoint's rank. Epoch statistics are returned on rank 0 and nil
// elsewhere. A world of one rank is single-device training: it has no
// gradients to average, so it skips the allreduce.
//
// Cancellation is polled once per batch. On cancellation or a
// communication error the statistics of the epochs completed so far are
// returned alongside the error; the model keeps the weights of the last
// optimizer step, so a partially trained model remains usable.
//
// Training is divergence-guarded: if a batch produces a NaN/Inf loss or
// gradient norm, the weights roll back to the last snapshot that
// completed a finite epoch, the learning rate is halved (with fresh
// optimizer moments), and the epoch is retried. The events are surfaced
// as EpochStats.Diverged rather than silently baked into a NaN model
// artifact; exceeding maxDivergences fails the run. At world > 1 the
// decision is taken on the allreduced gradients, which every rank holds
// identically, so the replicas roll back in lockstep.
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
	lr := opts.LR
	opt := nn.NewAdam(lr)
	params := model.Params()
	betaFinal := model.Config().BetaKL
	snapshot := nn.FlattenValues(params, nil) // last known-finite weights
	var grads []float64                       // allreduce buffer; a world of one needs none
	if workers > 1 {
		grads = make([]float64, len(snapshot))
	}
	stepsPerEpoch := (shard.Len() + opts.BatchSize - 1) / opts.BatchSize
	var x *tensor.Matrix // the batch, reused by every step

	totalDiverged, epochDiverged := 0, 0
	var stats []EpochStats
	for epoch := 0; epoch < opts.Epochs; epoch++ {
		if opts.KLWarmupEpochs > 0 {
			model.SetBetaKL(betaFinal * math.Min(1, float64(epoch+1)/float64(opts.KLWarmupEpochs)))
		}
		shard.Shuffle(src)
		var agg vae.Losses
		diverged := false
		for step := 0; step < stepsPerEpoch; step++ {
			if err := ctx.Err(); err != nil {
				return stats, err
			}
			lo := step * opts.BatchSize
			hi := min(lo+opts.BatchSize, shard.Len())
			x = batch(x, model, shard, lo, hi)
			nn.ZeroGrads(params)
			l := model.Step(x, shard.Conds[lo:hi], shard.Configs[lo:hi], src)
			norm := nn.ClipGradNorm(params, clipNorm)
			finite := isFinite(l.Recon) && isFinite(l.KL) && isFinite(norm)
			if workers > 1 {
				var err error
				if finite, err = averageGrads(ctx, ep, params, grads, finite); err != nil {
					return stats, fmt.Errorf("train: rank %d: allreduce at epoch %d step %d: %w", rank, epoch, step, err)
				}
			}
			if !finite {
				diverged = true
				break
			}
			opt.Step(params)
			agg.Recon += l.Recon
			agg.KL += l.KL
			agg.Accuracy += l.Accuracy
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
		if rank == 0 {
			stats = append(stats, EpochStats{
				Epoch:    epoch,
				Recon:    agg.Recon / float64(stepsPerEpoch),
				KL:       agg.KL / float64(stepsPerEpoch),
				Accuracy: agg.Accuracy / float64(stepsPerEpoch),
				Diverged: epochDiverged,
			})
		}
		epochDiverged = 0
		snapshot = nn.FlattenValues(params, snapshot)
		if workers > 1 {
			if err := ep.BarrierCtx(ctx); err != nil {
				return stats, fmt.Errorf("train: rank %d: barrier after epoch %d: %w", rank, epoch, err)
			}
		}
	}
	return stats, nil
}

// averageGrads replaces this replica's gradients with their mean over the
// world: the DDP allreduce. A replica whose own step was not finite
// poisons its contribution, so every rank sees the divergence in the
// allreduced gradients. It reports whether those are finite — a value
// every rank holds identically.
func averageGrads(ctx context.Context, ep transport.Endpoint, params []nn.Param, grads []float64, finite bool) (bool, error) {
	nn.FlattenGrads(params, grads)
	if !finite {
		grads[0] = math.NaN()
	}
	// The fault-aware allreduce keeps a dead or disconnected peer from
	// hanging the surviving replicas forever.
	if err := ep.AllreduceCtx(ctx, grads, transport.Sum); err != nil {
		return false, err
	}
	tensor.Scale(1/float64(ep.Size()), grads)
	if !gradsFinite(grads) {
		return false, nil
	}
	nn.SetGrads(params, grads)
	return true, nil
}
