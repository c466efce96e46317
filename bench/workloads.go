package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"deepthermo"
	"deepthermo/internal/dos"
	"deepthermo/internal/rewl"
	"deepthermo/internal/rng"
	"deepthermo/internal/thermo"
	"deepthermo/internal/train"
	"deepthermo/internal/vae"
)

// workloadDef is one row of BENCHMARK.json's workloads. Sampling workloads
// differ only in their flags and their DOSConfig; serve_http drives the
// HTTP plane instead of the sampler.
type workloadDef struct {
	Name  string
	Cells int
	// Pipeline: generate + train inside the timed repetition.
	// Pretrained: the model is trained once in set-up and loaded per rep.
	// TCP: rewl.RunDistributed over a 2-rank loopback world.
	// HTTP: jobs through POST /v1/jobs instead of the recipe.
	Pipeline, Pretrained, TCP, HTTP bool
	// DOS is what a user hands System.SampleDOS for this problem, real
	// ln f target included. The converging repetitions of the traced pass
	// run exactly this; the timed repetitions run it on the pinned schedule.
	DOS deepthermo.DOSConfig
}

var workloads = []workloadDef{
	{Name: "swap_rewl_n54", Cells: 3,
		DOS: deepthermo.DOSConfig{Windows: 8, Walkers: 1, Bins: 48, NoDL: true, LnFFinal: 1e-4}},
	{Name: "adaptive_rewl_n16", Cells: 2,
		DOS: deepthermo.DOSConfig{Windows: 4, Walkers: 2, Bins: 48, NoDL: true, Adaptive: true, LnFFinal: 1e-6}},
	{Name: "dl_pipeline_n16", Cells: 2, Pipeline: true,
		DOS: deepthermo.DOSConfig{Windows: 4, Walkers: 2, Bins: 48, DLWeight: 0.15, LnFFinal: 1e-2}},
	{Name: "dl_batch_n16", Cells: 2, Pretrained: true,
		DOS: deepthermo.DOSConfig{Windows: 4, Walkers: 2, Bins: 48, DLWeight: 0.15, LnFFinal: 1e-2, BatchInference: true}},
	{Name: "dist_tcp_n54", Cells: 3, TCP: true,
		DOS: deepthermo.DOSConfig{Windows: 8, Walkers: 1, Bins: 48, NoDL: true, LnFFinal: 1e-4, CheckpointEvery: 10}},
	{Name: "serve_http", Cells: 2, HTTP: true},
}

// The pinned schedule. lnFNever is a modification factor no run reaches,
// so the round count — not flatness luck — ends every repetition. lnFStart
// is the initial factor: the sampler's default of 1 leaves a window that
// never goes flat within the schedule with ln g noise of order ten (one
// run in twelve at 16 sites); starting at 0.05 bounds that noise near
// sqrt(0.05) whether or not the window ever halves.
const (
	lnFNever = 1e-300
	lnFStart = 0.05
)

// pinned is the workload's problem on the pinned schedule of `rounds`
// exchange rounds.
func (wl *workloadDef) pinned(seed uint64, rounds int) sampleSpec {
	spec := sampleSpec{Seed: seed, DOSConfig: wl.DOS, LnFInit: lnFStart, MaxRounds: rounds}
	spec.LnFFinal = lnFNever
	return spec
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// sizes is how much work one repetition and one query phase do. "full" is
// what BENCHMARK.json's numbers are measured at; "smoke" runs the same
// code in a fraction of a second for the tests.
type sizes struct {
	Rounds       map[string]int // pinned REWL rounds per repetition
	Rungs        int            // GenerateData ladder
	PerRung      int            // samples per rung
	Epochs       int
	SetupReps    int     // set-ups per untraced run, at least
	SetupSeconds float64 // and for at least this long
	MinReps      int
	MaxReps      int // only serve_http reaches it: its jobs take milliseconds
	TraceReps    int // untraced repetitions of a traced invocation
	// Converging repetitions of a traced invocation, and (smoke only) the
	// ln f target that replaces the workload's own.
	ConvergeReps int
	ConvergeLnF  float64
	WarmJobs     int // the warm-up of serve_http's set-up
	Serve        serveSizes
	SynthBins    int
	Micro        int // divisor on the isolated stopwatches' call counts
	// Accuracy gates on the median repetition of a run (runGate), each
	// pinned at 1.5× the worst median seen over seeds 1–20 (README.md has
	// the table). At 16 sites: median absolute ln g residual against the
	// exact spectrum; the DL workloads run a far shorter schedule and get
	// their own gate. At 54 sites: RMS C_v deviation relative to the
	// reference peak, and the T_c distance.
	GateLnG   float64
	GateLnGDL float64
	GateCvRel float64
	GateTcK   float64
}

// warmRounds is the schedule of set-up's warm-up repetition.
func (sz sizes) warmRounds(wl string) int { return max(sz.Rounds[wl]/4, 3) }

var fullSizes = sizes{
	Rounds: map[string]int{
		"swap_rewl_n54":     400,
		"adaptive_rewl_n16": 1000,
		"dl_pipeline_n16":   40,
		"dl_batch_n16":      40,
		"dist_tcp_n54":      300,
	},
	Rungs: 5, PerRung: 100, Epochs: 20,
	SetupReps: 5, SetupSeconds: 4, MinReps: 3, MaxReps: 1000, TraceReps: 5, ConvergeReps: 3, WarmJobs: 30,
	Serve:     serveSizes{Cold: 200, Grids: 64, HotEach: 3000, Clients: 2},
	SynthBins: 4096,
	Micro:     1,
	GateLnG:   0.04, GateLnGDL: 0.65, GateCvRel: 0.04, GateTcK: 20,
}

var smokeSizes = sizes{
	Rounds: map[string]int{
		"swap_rewl_n54":     30,
		"adaptive_rewl_n16": 60,
		"dl_pipeline_n16":   6,
		"dl_batch_n16":      6,
		"dist_tcp_n54":      30,
	},
	Rungs: 2, PerRung: 12, Epochs: 2,
	SetupReps: 1, MinReps: 1, MaxReps: 2, TraceReps: 1, ConvergeReps: 1, ConvergeLnF: 0.5, WarmJobs: 1,
	Serve:     serveSizes{Cold: 5, Grids: 4, HotEach: 8, Clients: 2},
	SynthBins: 256,
	Micro:     50,
	GateLnG:   100, GateLnGDL: 100, GateCvRel: 100, GateTcK: 5000,
}

// repOut is one repetition: spec → DOS → 257-point curve.
type repOut struct {
	ToCurveS  float64 // wall, spec to curve
	SampleS   float64 // wall around the sampling call alone
	CPUS      float64 // process CPU over the sampling call
	GenerateS float64
	FitS      float64
	Samples   int
	Run       *rewl.Result
	S         *sampled              // nil for serve_http
	Facade    *deepthermo.DOSResult // converging repetitions only
	Points    []thermo.Point
	DOSBytes  []byte
	RMSE      float64 // ln g residual against the exact spectrum, RMS
	MedAbs    float64 // the same, median absolute
	CvRel     float64
	DTc       float64
	Span      float64 // ln g max − min over the visited bins
	LogStates float64 // ln of the number of configurations (the multinomial)
	Sites     int
	Job       *jobOutcome
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// trainOptions is the facade's standard recipe at half its epoch count.
func trainOptions(seed uint64, epochs int) *deepthermo.TrainOptions {
	return &deepthermo.TrainOptions{Epochs: epochs, BatchSize: 32, LR: 2e-3, Seed: seed + 17, KLWarmupEpochs: epochs / 3}
}

// errEdgeBug reports the one input the sampler is known to reject: a
// window edge that lands on an energy level to the last bit, so a steered
// walker's incrementally updated energy falls a few ulp outside its
// window (about 1 seed in 100 at 16 sites). The benchmark draws another
// seed for such a spec and counts the redraw; see bench/README.md.
func errEdgeBug(err error) bool {
	return err != nil && strings.Contains(err.Error(), "outside window")
}

// sampleRep runs one repetition of a sampling workload on its own System.
// rounds overrides the pinned schedule (the warm-up uses a short one);
// checkpoint=false drops the checkpoint directory of a TCP run.
func (b *bench) sampleRep(seed uint64, rounds int, checkpoint bool, h sampleHooks) (*repOut, error) {
	wl, sz := b.wl, b.sz
	out := &repOut{}
	root := h.tr.begin("rep", h.run, 0)
	defer h.tr.end(root)
	h.parent = root
	start := time.Now()

	sys, err := deepthermo.NewSystem(deepthermo.SystemConfig{Cells: wl.Cells, Seed: seed})
	if err != nil {
		return nil, err
	}
	out.Sites = sys.Lat.NumSites()
	if out.LogStates, err = dos.LogMultinomial(out.Sites, sys.Quota); err != nil {
		return nil, err
	}
	switch {
	case wl.Pipeline:
		id := h.tr.begin("workload.generate", h.run, root)
		t := time.Now()
		ds, err := sys.GenerateData(&deepthermo.DataConfig{LadderLen: sz.Rungs, SamplesPerTemp: sz.PerRung})
		out.GenerateS = time.Since(t).Seconds()
		h.tr.end(id)
		if err != nil {
			return nil, err
		}
		out.Samples = ds.Len()
		id = h.tr.begin("train.fit", h.run, root)
		t = time.Now()
		err = sys.TrainProposal(trainOptions(seed, sz.Epochs))
		out.FitS = time.Since(t).Seconds()
		h.tr.end(id)
		if err != nil {
			return nil, err
		}
	case wl.Pretrained:
		if err := sys.LoadProposalModel(bytes.NewReader(b.modelBytes)); err != nil {
			return nil, err
		}
	}

	spec := wl.pinned(seed, rounds)
	cpu0 := cpuSeconds()
	t := time.Now()
	var s *sampled
	if wl.TCP {
		if checkpoint {
			b.ckptSeq++
			spec.CheckpointDir = filepath.Join(b.workDir, fmt.Sprintf("ckpt-%d", b.ckptSeq))
			b.lastCkptDir = spec.CheckpointDir
		}
		s, err = sampleTCP(context.Background(), sys, spec, 2, h)
	} else {
		s, err = sample(context.Background(), sys, spec, h)
	}
	out.SampleS = time.Since(t).Seconds()
	out.CPUS = cpuSeconds() - cpu0
	if err != nil {
		return nil, err
	}
	out.S, out.Run = s, s.Run

	id := h.tr.begin("thermo.curve", h.run, root)
	out.Points, err = sys.Thermodynamics(s.Run.DOS, curveGrid())
	h.tr.end(id)
	if err != nil {
		return nil, err
	}
	out.ToCurveS = time.Since(start).Seconds()

	// Correctness gates, off the clock.
	if out.DOSBytes, err = dosBytesOf(s.Run.DOS); err != nil {
		return nil, err
	}
	if s.Run.Rounds != rounds {
		return out, fmt.Errorf("ran %d rounds, schedule pins %d", s.Run.Rounds, rounds)
	}
	if s.Run.FailedWalkers > 0 || s.Run.DegradedWindows > 0 {
		return out, fmt.Errorf("%d failed walkers, %d degraded windows", s.Run.FailedWalkers, s.Run.DegradedWindows)
	}
	if rounds != sz.Rounds[wl.Name] {
		return out, nil // the warm-up's short schedule is not held to the accuracy gates
	}
	return out, b.accuracy(out, s.Run.DOS)
}

func dosBytesOf(d *dos.LogDOS) ([]byte, error) {
	var buf bytes.Buffer
	if err := deepthermo.SaveDOS(d, &buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// accuracy fills in how far a solved DOS and its curve (out.Points) are
// from the fixture: at 16 sites the ln g residuals against the exact
// spectrum, at 54 sites the C_v deviation and T_c distance against the
// reference curve.
func (b *bench) accuracy(out *repOut, d *dos.LogDOS) error {
	out.Span = d.Span()
	if b.wl.Cells == 2 {
		var n int
		if out.RMSE, out.MedAbs, n = b.spectrum.errors(d); n == 0 {
			return fmt.Errorf("the DOS shares no bin with the exact spectrum")
		}
		return nil
	}
	var err error
	out.CvRel, out.DTc, err = b.cvref.cvDeviation(out.Points)
	return err
}

// gate is the workload's accuracy gate on the given error numbers: those
// of one converging repetition, or the medians over a run's pinned
// repetitions (runGate).
func (b *bench) gate(medAbs, cvRel, dTc float64) error {
	sz := b.sz
	if b.wl.Cells == 2 {
		gate := sz.GateLnG
		if b.wl.Pipeline || b.wl.Pretrained {
			gate = sz.GateLnGDL
		}
		if medAbs > gate {
			return fmt.Errorf("median absolute ln g error %.4f exceeds the gate %.3f", medAbs, gate)
		}
		return nil
	}
	if cvRel > sz.GateCvRel || dTc > sz.GateTcK {
		return fmt.Errorf("C_v deviates %.4f (gate %.3f), T_c by %.1f K (gate %.0f)", cvRel, sz.GateCvRel, dTc, sz.GateTcK)
	}
	return nil
}

// runGate holds a run's pinned repetitions to the accuracy gate as a
// whole: the median repetition must be within it. One repetition's error
// is heavy-tailed (a needle bin found late moves T_c by hundreds of kelvin
// once in a few hundred repetitions), so a per-repetition gate is either
// vacuous or fails by luck; the median of a run is neither — a sampler
// that is wrong is wrong in every repetition.
func (b *bench) runGate(reps []*repOut) {
	if b.wl.HTTP || len(reps) == 0 {
		return
	}
	b.attempted++
	med := func(f func(*repOut) float64) float64 { return median(field(reps, f)) }
	err := b.gate(
		med(func(r *repOut) float64 { return r.MedAbs }),
		med(func(r *repOut) float64 { return r.CvRel }),
		med(func(r *repOut) float64 { return r.DTc }))
	if err != nil {
		b.fail("%s: median of %d repetitions: %v", b.wl.Name, len(reps), err)
	}
}

// convergeRep runs the workload's problem the way a user does: the public
// System.SampleDOS with its real ln f target, no pinned schedule, no
// decoration, then the curve and the same accuracy gates. It is how the
// traced pass counts rounds to convergence; its time is far too variable
// from seed to seed for an end-to-end metric (README.md).
func (b *bench) convergeRep(seed uint64) (*repOut, error) {
	sys, err := deepthermo.NewSystem(deepthermo.SystemConfig{Cells: b.wl.Cells, Seed: seed})
	if err != nil {
		return nil, err
	}
	if b.wl.Pipeline || b.wl.Pretrained {
		if err := sys.LoadProposalModel(bytes.NewReader(b.modelBytes)); err != nil {
			return nil, err
		}
	}
	cfg := b.wl.DOS
	if b.sz.ConvergeLnF != 0 {
		cfg.LnFFinal = b.sz.ConvergeLnF
	}
	out := &repOut{Sites: sys.Lat.NumSites()}
	if out.LogStates, err = dos.LogMultinomial(out.Sites, sys.Quota); err != nil {
		return nil, err
	}
	start := time.Now()
	if out.Facade, err = sys.SampleDOS(cfg); err != nil {
		return nil, err
	}
	if out.Points, err = sys.Thermodynamics(out.Facade.DOS, curveGrid()); err != nil {
		return nil, err
	}
	out.ToCurveS = time.Since(start).Seconds()
	if err := b.accuracy(out, out.Facade.DOS); err != nil {
		return nil, err
	}
	if !out.Facade.Converged {
		return out, fmt.Errorf("not converged after %d rounds", out.Facade.Rounds)
	}
	// No bin of a converged DOS may claim fewer than 1/e configurations. A
	// pinned schedule cannot promise that (README.md, needle bins).
	if b.wl.Cells == 3 && out.Span > out.LogStates+1 {
		return out, fmt.Errorf("ln g spans %.1f, more than ln(configurations)+1 = %.1f", out.Span, out.LogStates+1)
	}
	return out, b.gate(out.MedAbs, out.CvRel, out.DTc)
}

// pollEvery is serve_http's job status polling period.
const pollEvery = time.Millisecond

// jobSpec is the sample job serve_http submits: the smallest system, two
// windows, and a modification-factor target the first flat histogram
// meets, so the sampler does a few milliseconds of work and the journal,
// the registry and the HTTP plane do the rest.
func jobSpec(seed uint64) map[string]any {
	return map[string]any{
		"type":   "sample",
		"system": map[string]any{"cells": 2, "seed": seed},
		"dos":    map[string]any{"windows": 2, "bins": 16, "lnf_final": 0.9, "no_dl": true},
	}
}

// httpRep is one repetition of serve_http: POST /v1/jobs → poll → done →
// GET /v1/thermo, then (off the clock) the served curve against
// thermo.Curve on the job's own DOS artifact.
func (b *bench) httpRep(seed uint64, run string) (*repOut, error) {
	job, err := b.lb.runJob(jobSpec(seed), pollEvery, run)
	if err != nil {
		return nil, err
	}
	out := &repOut{ToCurveS: job.ToCurveS, Job: job, Points: job.Points}
	_, data, err := b.lb.do("GET", "/v1/artifacts/"+job.DOSArtifact+"/data", nil, 200, "http.artifact", run)
	if err != nil {
		return out, err
	}
	out.DOSBytes = data
	d, err := dos.Load(bytes.NewReader(data))
	if err != nil {
		return out, err
	}
	want, err := thermo.Curve(d, curveGrid())
	if err != nil {
		return out, err
	}
	return out, sameCurve(job.Points, want)
}

// trainModel is set-up's model for dl_batch_n16: the facade's generate and
// train, saved the way dtserve stores a model artifact.
func (b *bench) trainModel(seed uint64) ([]byte, error) {
	sys, err := deepthermo.NewSystem(deepthermo.SystemConfig{Cells: b.wl.Cells, Seed: seed})
	if err != nil {
		return nil, err
	}
	t := time.Now()
	ds, err := sys.GenerateData(&deepthermo.DataConfig{LadderLen: b.sz.Rungs, SamplesPerTemp: b.sz.PerRung})
	if err != nil {
		return nil, err
	}
	b.setupGenS, b.setupSamples = time.Since(t).Seconds(), ds.Len()
	t = time.Now()
	if err := sys.TrainProposal(trainOptions(seed, b.sz.Epochs)); err != nil {
		return nil, err
	}
	b.setupFitS = time.Since(t).Seconds()
	var buf bytes.Buffer
	if err := sys.SaveProposalModel(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// trainStats repeats the facade's TrainProposal with the layers' own
// functions, because the facade drops the per-epoch report: same dataset
// seed, same initial weights, same options, so the losses are the ones the
// timed repetition saw.
func (b *bench) trainStats(seed uint64) (finalLoss float64, diverged int, err error) {
	sys, err := deepthermo.NewSystem(deepthermo.SystemConfig{Cells: b.wl.Cells, Seed: seed})
	if err != nil {
		return 0, 0, err
	}
	ds, err := sys.GenerateData(&deepthermo.DataConfig{LadderLen: b.sz.Rungs, SamplesPerTemp: b.sz.PerRung})
	if err != nil {
		return 0, 0, err
	}
	model, err := vae.New(vae.Config{Sites: sys.Lat.NumSites(), Species: sys.Ham.NumSpecies(), Latent: 6, Hidden: 96, BetaKL: 1}, rng.New(seed+13))
	if err != nil {
		return 0, 0, err
	}
	stats, err := train.Fit(model, ds, *trainOptions(seed, b.sz.Epochs))
	if err != nil || len(stats) == 0 {
		return 0, 0, err
	}
	last := stats[len(stats)-1]
	return last.Recon + last.KL, train.TotalDiverged(stats), nil
}

// dirSize counts the regular files under dir and their bytes.
func dirSize(dir string) (files int, size int64) {
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			files++
			size += info.Size()
		}
		return nil
	})
	return files, size
}
