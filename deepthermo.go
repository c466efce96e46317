// Package deepthermo is a parallel Monte Carlo sampling framework for
// thermodynamics evaluation of high-entropy alloys, reproducing the system
// described in "DeepThermo: Deep Learning Accelerated Parallel Monte Carlo
// Sampling for Thermodynamics Evaluation of High Entropy Alloys"
// (Yin, Wang, Shankar; IPDPS 2023).
//
// The package is a facade over the substrate packages in internal/: it
// wires the full DeepThermo pipeline — lattice + effective-pair-interaction
// Hamiltonian, temperature-ladder data generation, conditional-VAE proposal
// training, replica-exchange Wang-Landau sampling with deep-learning global
// updates, and canonical thermodynamics from the converged density of
// states. The type aliases below expose the substrate types directly for
// callers that need lower-level control.
//
// Minimal use (see examples/quickstart for the runnable version):
//
//	sys, _ := deepthermo.NewSystem(deepthermo.SystemConfig{Cells: 3})
//	_ = sys.TrainProposal(nil)
//	res, _ := sys.SampleDOS(deepthermo.DOSConfig{})
//	curve, _ := sys.Thermodynamics(res.DOS, nil)
package deepthermo

import (
	"context"
	"fmt"
	"time"

	"deepthermo/internal/alloy"
	"deepthermo/internal/chaos"
	"deepthermo/internal/dos"
	"deepthermo/internal/infer"
	"deepthermo/internal/lattice"
	"deepthermo/internal/mc"
	"deepthermo/internal/rewl"
	"deepthermo/internal/rng"
	"deepthermo/internal/thermo"
	"deepthermo/internal/train"
	"deepthermo/internal/vae"
	"deepthermo/internal/wanglandau"
	"deepthermo/internal/workload"
)

// Aliases exposing the substrate types through the public API.
type (
	// Lattice is a periodic crystal supercell (internal/lattice).
	Lattice = lattice.Lattice
	// Config is a site-occupancy configuration.
	Config = lattice.Config
	// Hamiltonian is an effective-pair-interaction energy model.
	Hamiltonian = alloy.Model
	// ProposalModel is the conditional VAE behind the DL proposal.
	ProposalModel = vae.Model
	// LogDOS is a log-domain density of states.
	LogDOS = dos.LogDOS
	// ThermoPoint is one temperature's canonical observables.
	ThermoPoint = thermo.Point
	// Window is a Wang-Landau energy window.
	Window = wanglandau.Window
	// Proposal is a Metropolis-Hastings move generator.
	Proposal = mc.Proposal
	// Sampler is a Metropolis walker.
	Sampler = mc.Sampler
	// Dataset is a labelled configuration set for proposal training.
	Dataset = workload.Dataset
	// TrainOptions configures proposal-model training.
	TrainOptions = train.Options
)

// KB is the Boltzmann constant in eV/K.
const KB = alloy.KB

// SystemConfig describes the alloy system to study.
type SystemConfig struct {
	// Cells is the BCC supercell edge in conventional cells
	// (sites = 2·Cells³). Default 3.
	Cells int
	// Seed is the master RNG seed. Default 1.
	Seed uint64
	// VAE hyperparameters (defaults: Latent 8, Hidden 96).
	Latent, Hidden int
	// Alloy selects the embedded Hamiltonian preset: "NbMoTaW" (default,
	// 4 components) or "MoNbTaVW" (5 components).
	Alloy string
}

// System is a configured DeepThermo pipeline for one alloy system.
type System struct {
	Lat   *Lattice
	Ham   *Hamiltonian
	Quota []int // fixed equiatomic composition
	Model *ProposalModel

	cfg  SystemConfig
	data *Dataset
}

// NewSystem builds the NbMoTaW-like refractory HEA on a BCC supercell.
func NewSystem(cfg SystemConfig) (*System, error) {
	if cfg.Cells == 0 {
		cfg.Cells = 3
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Latent == 0 {
		cfg.Latent = 6
	}
	if cfg.Hidden == 0 {
		cfg.Hidden = 96
	}
	lat, err := lattice.New(lattice.BCC, cfg.Cells, cfg.Cells, cfg.Cells)
	if err != nil {
		return nil, err
	}
	var ham *alloy.Model
	switch cfg.Alloy {
	case "", "NbMoTaW":
		ham = alloy.NbMoTaW(lat)
	case "MoNbTaVW":
		ham = alloy.MoNbTaVW(lat)
	default:
		return nil, fmt.Errorf("deepthermo: unknown alloy preset %q (want NbMoTaW or MoNbTaVW)", cfg.Alloy)
	}
	quota := lattice.EquiQuota(lat.NumSites(), ham.NumSpecies())
	return &System{Lat: lat, Ham: ham, Quota: quota, cfg: cfg}, nil
}

// Seed returns the master seed every stream of the system derives from
// (SystemConfig.Seed, 1 when left zero).
func (s *System) Seed() uint64 { return s.cfg.Seed }

// Dataset returns the training set GenerateData stored on the system, or
// nil before one was generated.
func (s *System) Dataset() *Dataset { return s.data }

// DataConfig controls training-set generation.
type DataConfig struct {
	TempLo, TempHi float64 // ladder range in K (default 300..3000)
	LadderLen      int     // rungs (default 8)
	SamplesPerTemp int     // default 250
}

// GenerateData runs the temperature-ladder baseline MC and stores the
// labelled dataset on the system (it is also returned).
func (s *System) GenerateData(cfg *DataConfig) (*Dataset, error) {
	return s.GenerateDataContext(context.Background(), cfg)
}

// GenerateDataContext is GenerateData with cooperative cancellation: the
// ladder chains poll ctx between sweeps. On cancellation the partial
// dataset is returned with ctx's error and is not stored on the system.
func (s *System) GenerateDataContext(ctx context.Context, cfg *DataConfig) (*Dataset, error) {
	c := DataConfig{TempLo: 300, TempHi: 3000, LadderLen: 8, SamplesPerTemp: 250}
	if cfg != nil {
		if cfg.TempLo > 0 {
			c.TempLo = cfg.TempLo
		}
		if cfg.TempHi > 0 {
			c.TempHi = cfg.TempHi
		}
		if cfg.LadderLen > 0 {
			c.LadderLen = cfg.LadderLen
		}
		if cfg.SamplesPerTemp > 0 {
			c.SamplesPerTemp = cfg.SamplesPerTemp
		}
	}
	ds, err := workload.GenerateContext(ctx, s.Ham, workload.GenOptions{
		Temps:          workload.TempLadder(c.TempLo, c.TempHi, c.LadderLen),
		SamplesPerTemp: c.SamplesPerTemp,
		EquilSweeps:    150,
		GapSweeps:      5,
		Seed:           s.cfg.Seed + 7,
		Quota:          s.Quota,
	})
	if err != nil {
		return ds, err
	}
	s.data = ds
	return ds, nil
}

// TrainProposal trains the conditional-VAE proposal model with the
// standard recipe (Adam, KL warmup). A nil opts selects the defaults; if
// no dataset has been generated yet, GenerateData runs with defaults.
func (s *System) TrainProposal(opts *TrainOptions) error {
	return s.TrainProposalContext(context.Background(), opts)
}

// TrainProposalContext is TrainProposal with cooperative cancellation,
// polled once per training batch (and between sweeps of the implicit data
// generation). On cancellation no model is installed on the system.
func (s *System) TrainProposalContext(ctx context.Context, opts *TrainOptions) error {
	if s.data == nil {
		if _, err := s.GenerateDataContext(ctx, nil); err != nil {
			return err
		}
	}
	o := TrainOptions{Epochs: 40, BatchSize: 32, LR: 2e-3, Seed: s.cfg.Seed + 17, KLWarmupEpochs: 13}
	if opts != nil {
		o = *opts
	}
	model, err := vae.New(vae.Config{
		Sites:   s.Lat.NumSites(),
		Species: s.Ham.NumSpecies(),
		Latent:  s.cfg.Latent,
		Hidden:  s.cfg.Hidden,
		BetaKL:  1.0,
	}, rng.New(s.cfg.Seed+13))
	if err != nil {
		return err
	}
	if _, err := train.FitContext(ctx, model, s.data, o); err != nil {
		return err
	}
	s.Model = model
	return nil
}

// DOSConfig controls a replica-exchange Wang-Landau run.
type DOSConfig struct {
	Windows  int     // energy windows (default 4)
	Walkers  int     // walkers per window (default 1)
	Bins     int     // total energy bins (default 48)
	Overlap  float64 // window overlap (default 0.75)
	LnFFinal float64 // convergence target (default 1e-4)
	DLWeight float64 // DL share of the proposal mixture (default 0.15; 0 disables DL even with a trained model)
	NoDL     bool    // force the pure local-swap baseline

	// OneOverT switches the walkers to the Belardinelli-Pereyra 1/t
	// modification-factor schedule, which removes the late-stage
	// saturation stall of pure flatness-driven ln f halving.
	OneOverT bool
	// Adaptive enables the adaptive parallelisation layer: per-round
	// window telemetry and deterministic walker rebalancing from
	// converged windows into stragglers (rewl.AdaptiveOptions).
	Adaptive bool

	// BatchInference routes every walker's DL-proposal forwards through one
	// shared inference engine (package infer) instead of per-walker weight
	// clones: each walker runs its forwards on its own goroutine over a
	// replica that reads a single copy of the weights. The sampled DOS is
	// bit-identical to the per-walker path — a replica computes exactly the
	// shared model's forwards, and the proposal factory burns exactly the
	// RNG draws the replaced per-walker clone would have consumed (see
	// vae.WeightDraws) — so this is purely a throughput switch.
	BatchInference bool

	// CheckpointDir enables crash-safe checkpoint/restart: the full REWL
	// run state is written atomically to this directory every
	// CheckpointEvery rounds (default 10 when a dir is set). With Resume,
	// a run continues bit-identically from the directory's checkpoint if
	// one exists, so restart loops can set Resume unconditionally.
	CheckpointDir   string
	CheckpointEvery int
	Resume          bool
	// Faults injects a deterministic walker-failure schedule (package
	// chaos) for fault-tolerance tests and chaos experiments; nil means no
	// faults. Ranks are wi·Walkers+k, steps are walker sweep counts.
	Faults *FaultPlan
	// WalkerTimeout bounds each walker's sweep round; stragglers are
	// declared dead and the run continues without them (0 disables).
	WalkerTimeout time.Duration
}

// FaultPlan aliases chaos.Plan, the deterministic fault schedule consumed
// by DOSConfig.Faults.
type FaultPlan = chaos.Plan

// DOSResult is a converged (or cut-off) density-of-states run.
type DOSResult struct {
	DOS       *LogDOS
	Converged bool
	Sweeps    int64
	Rounds    int
	// Resumed reports whether the run continued from a checkpoint.
	Resumed bool
	// FailedWalkers counts walkers lost to crashes, panics, or straggler
	// timeouts; DegradedWindows counts windows that lost every walker and
	// contributed only their last consensus (Converged is then false).
	FailedWalkers   int
	DegradedWindows int
	// Migrations counts walkers the adaptive controller moved into
	// straggler windows (0 unless DOSConfig.Adaptive).
	Migrations int
	// Batch reports the shared inference engine's activity when
	// DOSConfig.BatchInference was set (nil otherwise).
	Batch *BatchStats
}

// BatchStats aliases infer.Stats, the shared-engine activity counters
// surfaced on DOSResult and in server job results.
type BatchStats = infer.Stats

// SampleDOS runs REWL over the system's reachable energy range, using the
// DL-accelerated proposal mixture when a trained model is available.
func (s *System) SampleDOS(cfg DOSConfig) (*DOSResult, error) {
	return s.SampleDOSContext(context.Background(), cfg)
}

// SampleDOSContext is SampleDOS with cooperative cancellation: the REWL
// walkers poll ctx once per sweep. On cancellation the DOSResult of the
// last completed REWL round (Converged=false; what its checkpoint holds
// and Resume restarts from) is returned alongside ctx's error, so callers
// may persist partial progress; it is nil when no round completed or the
// sampled windows cannot yet be stitched.
func (s *System) SampleDOSContext(ctx context.Context, cfg DOSConfig) (*DOSResult, error) {
	if cfg.Windows == 0 {
		cfg.Windows = 4
	}
	if cfg.Walkers == 0 {
		cfg.Walkers = 1
	}
	if cfg.Bins == 0 {
		cfg.Bins = 48
	}
	if cfg.Overlap == 0 {
		cfg.Overlap = 0.75
	}
	if cfg.LnFFinal == 0 {
		cfg.LnFFinal = 1e-4
	}
	if cfg.DLWeight == 0 {
		cfg.DLWeight = 0.15
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	src := rng.New(s.cfg.Seed + 23)
	lo, hi, seedCfg := s.sampleEnergyRange(src)
	binW := (hi - lo) / float64(cfg.Bins)
	wins, err := rewl.SplitWindows(lo, hi, cfg.Windows, cfg.Overlap, binW)
	if err != nil {
		return nil, err
	}

	// With BatchInference, one engine owns a single weight copy and every
	// walker gets a client over it; the factory burns exactly the
	// Float64 draws CloneWeights would have taken from the walker's stream,
	// so every downstream draw — and therefore the whole run — stays
	// bit-identical to the per-walker-clone path.
	var engine *infer.Engine
	if cfg.BatchInference && !cfg.NoDL && s.Model != nil {
		engine = infer.NewEngine(s.Model.CloneWeights(rng.New(s.cfg.Seed + 31)))
	}
	factory := func(win, widx int, wsrc *rng.Source) mc.Proposal {
		if cfg.NoDL || s.Model == nil {
			return mc.NewSwapProposal(s.Ham)
		}
		var gp *mc.GlobalProposal
		if engine != nil {
			for i, n := 0, vae.WeightDraws(s.Model.Config()); i < n; i++ {
				wsrc.Float64()
			}
			gp = mc.NewGlobalProposalWith(engine.NewClient(), s.Ham, s.Quota, mc.CondForT(1000))
		} else {
			gp = mc.NewGlobalProposal(s.Model.CloneWeights(wsrc), s.Ham, s.Quota, mc.CondForT(1000))
		}
		return mc.NewMixture(
			[]mc.Proposal{mc.NewSwapProposal(s.Ham), gp},
			[]float64{1 - cfg.DLWeight, cfg.DLWeight},
		)
	}
	run, runErr := rewl.RunContext(ctx, s.Ham, seedCfg, wins, factory, rewl.Options{
		Seed:             s.cfg.Seed + 29,
		WalkersPerWindow: cfg.Walkers,
		WL:               wanglandau.Options{LnFFinal: cfg.LnFFinal},
		OneOverT:         cfg.OneOverT,
		Adaptive:         rewl.AdaptiveOptions{Enabled: cfg.Adaptive},
		PrepareSweeps:    20000,
		CheckpointDir:    cfg.CheckpointDir,
		CheckpointEvery:  cfg.CheckpointEvery,
		Resume:           cfg.Resume,
		Faults:           cfg.Faults,
		WalkerTimeout:    cfg.WalkerTimeout,
	})
	if run == nil {
		return nil, runErr
	}
	logStates, err := dos.LogMultinomial(s.Lat.NumSites(), s.Quota)
	if err != nil {
		return nil, err
	}
	run.DOS.NormalizeTo(logStates)
	res := &DOSResult{
		DOS:             run.DOS,
		Converged:       run.AllConverged,
		Sweeps:          run.TotalSweeps,
		Rounds:          run.Rounds,
		Resumed:         run.Resumed,
		FailedWalkers:   run.FailedWalkers,
		DegradedWindows: run.DegradedWindows,
		Migrations:      run.Migrations,
	}
	if engine != nil {
		st := engine.Stats()
		res.Batch = &st
	}
	return res, runErr
}

// Thermodynamics reweights a density of states into canonical observables
// over the given temperatures (default 100..3500 K, 35 points).
func (s *System) Thermodynamics(d *LogDOS, temps []float64) ([]ThermoPoint, error) {
	if d == nil {
		return nil, fmt.Errorf("deepthermo: nil density of states")
	}
	if temps == nil {
		temps = thermo.TempRange(100, 3500, 35)
	}
	return thermo.Curve(d, temps)
}

// TransitionTemperature locates the C_v peak of a thermodynamic curve.
func TransitionTemperature(pts []ThermoPoint) (tc, cvPeak float64, err error) {
	return thermo.TransitionTemperature(pts)
}

// sampleEnergyRange estimates the reachable [lo, hi) energy range by
// annealing (minimum) and hot sampling (maximum), returning the annealed
// minimum-energy configuration as the REWL seed.
func (s *System) sampleEnergyRange(src *rng.Source) (lo, hi float64, best Config) {
	cfg := lattice.QuotaConfig(s.Quota, src)
	w := mc.NewSampler(s.Ham, cfg, mc.NewSwapProposal(s.Ham), src)
	hi = w.E
	for i := 0; i < 100; i++ {
		w.Sweep(6000)
		if w.E > hi {
			hi = w.E
		}
	}
	w.Anneal([]float64{3000, 1500, 800, 400, 200, 100, 50}, 120)
	lo = w.E
	best = w.Cfg.Clone()
	for i := 0; i < 200; i++ {
		w.Sweep(40)
		if w.E < lo {
			lo = w.E
			copy(best, w.Cfg)
		}
	}
	span := hi - lo
	return lo - 0.02*span, hi + 0.10*span, best
}
