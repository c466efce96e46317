package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"time"

	"deepthermo"
	"deepthermo/internal/dos"
	"deepthermo/internal/thermo"
	"deepthermo/internal/vae"
)

// tracedRun is --trace 1. In order: set-up; a few untraced repetitions
// (counts and the untraced median every overhead is measured against); one
// repetition with the proposal and endpoint decorators and spans on; one at
// GOMAXPROCS=1, the serial baseline; for dist_tcp_n54 one more without
// checkpoints; the converging repetitions through System.SampleDOS; the
// isolated single-layer stopwatches; for serve_http the query phases with a
// span per request. Nothing here feeds an end-to-end metric.
func (b *bench) tracedRun(tracePath string) (map[string]float64, error) {
	m := map[string]float64{}
	tr := newTracer()

	sid := tr.begin("setup", "setup", 0)
	if err := b.setup(); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	tr.end(sid)

	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	reps := b.measure(0, b.sz.TraceReps, b.sz.TraceReps)
	if len(reps) == 0 {
		return nil, fmt.Errorf("no repetition of %s passed", b.wl.Name)
	}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	b.runGate(reps)
	untracedS := median(field(reps, func(r *repOut) float64 { return r.ToCurveS }))

	// One decorated, traced repetition. It reuses repetition 0's stream, so
	// it is the same spec as an untraced one.
	book := &proposalBook{}
	if b.lb != nil {
		b.lb.tr = tr
	}
	traced, err := b.timedRep(0, sampleHooks{book: book, tr: tr, run: "traced"}, true)
	if err != nil {
		return nil, fmt.Errorf("traced repetition: %w", err)
	}
	m["trace.overhead_share"] = (traced.ToCurveS - untracedS) / untracedS

	if b.wl.HTTP {
		b.jobMetrics(m, reps)
	} else {
		if err := b.samplingMetrics(m, reps, traced, book, ms1.Mallocs-ms0.Mallocs); err != nil {
			return nil, err
		}
	}

	// Artifact and reweighting stopwatches: on the workload's own last
	// solution, or for serve_http on the 4,096-bin DOS its query phases serve.
	dosBytes := reps[len(reps)-1].DOSBytes
	if b.wl.HTTP {
		dosBytes = b.synth
	}
	if err := artifactMetrics(m, dosBytes); err != nil {
		return nil, err
	}
	if b.wl.HTTP {
		if err := b.queryMetrics(m); err != nil {
			return nil, err
		}
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m["proc.gc_pause_ms"] = float64(ms.PauseTotalNs) / 1e6
	m["proc.heap_mb"] = float64(ms.HeapSys) / (1 << 20)
	m["trace.spans"] = float64(tr.count())

	fmt.Fprintf(os.Stderr, "%s: self time by span name (traced pass)\n", b.wl.Name)
	for i, lt := range tr.summary() {
		if i == 12 {
			break
		}
		fmt.Fprintf(os.Stderr, "  %-26s n=%-7d total %9.4f s  self %9.4f s  max %8.3f ms\n", lt.Name, lt.Count, lt.TotalS, lt.SelfS, lt.MaxMs)
	}
	if err := tr.write(tracePath, environment(b.seed, len(reps))); err != nil {
		return nil, err
	}
	return m, nil
}

// samplingMetrics fills the rewl, mc, infer, train, dos and transport
// rows from the untraced repetitions (counts, plain stopwatches) and the
// decorated one (busy times).
func (b *bench) samplingMetrics(m map[string]float64, reps []*repOut, traced *repOut, book *proposalBook, mallocs uint64) error {
	med := func(f func(*repOut) float64) float64 { return median(field(reps, f)) }
	last := reps[len(reps)-1]
	sites := float64(last.Sites)

	sampleS := med(func(r *repOut) float64 { return r.SampleS })
	sweeps := med(func(r *repOut) float64 { return float64(r.Run.TotalSweeps) })
	rounds := med(func(r *repOut) float64 { return float64(r.Run.Rounds) })
	cpu := med(func(r *repOut) float64 { return r.CPUS })
	m["rewl.sample_s"] = sampleS
	m["rewl.rounds"] = rounds
	m["rewl.sweeps"] = sweeps
	m["rewl.sweeps_per_s"] = sweeps / sampleS
	m["rewl.steps_per_s"] = sweeps * sites / sampleS
	m["rewl.round_ms_mean"] = sampleS / rounds * 1e3
	m["rewl.cpu_s"] = cpu
	m["rewl.cpu_per_wall"] = cpu / sampleS
	m["rewl.migrations"] = med(func(r *repOut) float64 { return float64(r.Run.Migrations) })
	m["rewl.exchange_accept_ratio"] = med(func(r *repOut) float64 {
		if r.Run.ExchangeTried == 0 {
			return 0
		}
		return float64(r.Run.ExchangeAccept) / float64(r.Run.ExchangeTried)
	})
	m["rewl.round_trips"] = med(func(r *repOut) float64 { return float64(r.Run.RoundTrips) })
	var totalSweeps float64
	for _, r := range reps {
		totalSweeps += float64(r.Run.TotalSweeps)
	}
	m["proc.allocs_per_sweep"] = float64(mallocs) / totalSweeps

	// The serial baseline: the same repetition with one P.
	prev := runtime.GOMAXPROCS(1)
	p1, err := b.timedRep(0, sampleHooks{run: "p1"}, true)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return fmt.Errorf("GOMAXPROCS=1 repetition: %w", err)
	}
	m["rewl.wall_p1_s"] = p1.SampleS
	m["rewl.parallel_speedup"] = p1.SampleS / sampleS

	if !b.wl.TCP {
		if err := b.convergeMetrics(m); err != nil {
			return err
		}
	}

	sw, dl := book.stats("swap"), book.stats("dl")
	m["mc.propose_swap_calls"] = float64(sw.Calls)
	m["mc.propose_swap_ns"] = sw.NsPerCall
	m["mc.propose_swap_busy_s"] = sw.BusyS
	if sw.Calls > 0 {
		m["mc.swap_accept_ratio"] = float64(sw.Accepts) / float64(sw.Calls)
	}
	m["mc.propose_dl_calls"] = float64(dl.Calls)
	m["mc.propose_dl_ns"] = dl.NsPerCall
	m["mc.propose_dl_busy_s"] = dl.BusyS
	if dl.Calls > 0 {
		m["mc.dl_accept_ratio"] = float64(dl.Accepts) / float64(dl.Calls)
		if traced.S.Batch == nil {
			// Through the engine a Propose also parks until the quorum
			// flushes, so its time is not CPU; see infer.call_busy_s.
			m["mc.dl_share_of_cpu"] = dl.BusyS / traced.CPUS
		}
	}

	sys, err := deepthermo.NewSystem(deepthermo.SystemConfig{Cells: b.wl.Cells, Seed: b.seed})
	if err != nil {
		return err
	}
	micro := b.sz.Micro
	m["alloy.swap_delta_e_ns"] = swapDeltaENs(sys, b.seed, 4_000_000/micro)
	if m["wanglandau.sweep_ns_per_step"], err = wlSweepNsPerStep(sys, b.seed, 40_000/micro); err != nil {
		return err
	}

	if b.wl.Pipeline || b.wl.Pretrained {
		// dl_batch_n16 generated and fitted in set-up, dl_pipeline_n16 in
		// every repetition; the stopwatches are the same either way.
		gen, fit, samples := b.setupGenS, b.setupFitS, b.setupSamples
		if b.wl.Pipeline {
			gen = med(func(r *repOut) float64 { return r.GenerateS })
			fit = med(func(r *repOut) float64 { return r.FitS })
			samples = last.Samples
		}
		m["workload.generate_s"] = gen
		m["workload.samples"] = float64(samples)
		m["train.fit_s"] = fit
		m["train.samples_per_s"] = float64(samples*b.sz.Epochs) / fit
		trainSeed := splitmix(b.seed, 0) // repetition 0's System seed
		if b.wl.Pretrained {
			trainSeed = splitmix(b.seed, 1<<32) // set-up's
		}
		loss, diverged, err := b.trainStats(trainSeed)
		if err != nil {
			return err
		}
		m["train.final_loss"] = loss
		m["train.diverged_epochs"] = float64(diverged)

		model, err := b.someModel()
		if err != nil {
			return err
		}
		m["vae.encode_ns"], m["vae.decode_ns"] = vaeNs(model, sys, b.seed, 20_000/micro)
		c := model.Config()
		m["tensor.matmul_b1_gflops"], _ = matmulGflops(1, c.Hidden, c.Hidden, b.seed, 200_000/micro)
		m["tensor.matmul_b8_gflops"], m["tensor.matmul_flops_per_byte"] = matmulGflops(8, c.Hidden, c.Hidden, b.seed, 50_000/micro)
	}
	if st := traced.S.Batch; st != nil {
		m["infer.flushes"] = float64(st.Batches)
		m["infer.requests"] = float64(st.Requests)
		if st.Batches > 0 {
			m["infer.mean_batch"] = float64(st.Requests) / float64(st.Batches)
		}
		m["infer.max_batch"] = float64(st.MaxBatch)
		m["infer.pass_through"] = float64(st.PassThrough)
		m["infer.call_busy_s"] = dl.BusyS
	}

	if b.wl.Cells == 2 {
		m["dos.rmse_vs_exact"] = med(func(r *repOut) float64 { return r.RMSE })
	} else {
		m["thermo.cv_rms_rel_err"] = med(func(r *repOut) float64 { return r.CvRel })
	}
	tc, _, err := thermo.TransitionTemperature(last.Points)
	if err != nil {
		return err
	}
	m["thermo.tc_K"] = tc

	if b.wl.TCP {
		var msgs int64
		var sendNs int64
		for _, ep := range traced.S.Endpoints {
			msgs += ep.msgs
			sendNs += ep.sendNs
		}
		r := float64(traced.Run.Rounds)
		m["transport.join_s"] = med(func(r *repOut) float64 { return r.S.JoinS })
		m["transport.msgs"] = float64(msgs)
		m["transport.bytes"] = float64(traced.S.BytesSent)
		m["transport.msgs_per_round"] = float64(msgs) / r
		m["transport.bytes_per_round"] = float64(traced.S.BytesSent) / r
		m["transport.send_s"] = float64(sendNs) / 1e9
		m["transport.wait_s"] = float64(traced.S.Endpoints[0].recvNs) / 1e9
		files, size := dirSize(b.lastCkptDir)
		m["rewl.ckpt_files"] = float64(files)
		m["rewl.ckpt_bytes"] = float64(size)
		os.RemoveAll(b.lastCkptDir)
		bare, err := b.timedRep(0, sampleHooks{run: "nockpt"}, false)
		if err != nil {
			return fmt.Errorf("repetition without checkpoints: %w", err)
		}
		m["rewl.ckpt_overhead_s"] = reps[0].SampleS - bare.SampleS
	}
	return nil
}

// convergeMetrics runs the workload's problem to its real ln f target
// through System.SampleDOS a few times: rounds and wall of the repetitions
// that converged and passed the accuracy gates, and their share of the
// attempts. A repetition that does not get there is the sampler wasting
// work, not a failed operation of the benchmark. Rounds repeat exactly for
// a given --seed, so two commits can be compared on them.
func (b *bench) convergeMetrics(m map[string]float64) error {
	if b.wl.Pipeline || b.wl.Pretrained {
		if _, err := b.someModel(); err != nil {
			return err
		}
	}
	var rounds, secs []float64
	for i := 0; i < b.sz.ConvergeReps; i++ {
		out, err := b.redraw(b.convergeRep, 1<<34+uint64(i))
		if out == nil {
			return fmt.Errorf("converging repetition %d: %w", i, err)
		}
		fmt.Fprintf(os.Stderr, "  converging rep %d: %.3f s, %d rounds, span %.1f: %v\n",
			i, out.ToCurveS, out.Facade.Rounds, out.Span, err)
		if err == nil {
			rounds = append(rounds, float64(out.Facade.Rounds))
			secs = append(secs, out.ToCurveS)
		}
	}
	m["rewl.converge_rounds"] = median(rounds)
	m["rewl.converge_s"] = median(secs)
	m["rewl.converged_share"] = float64(len(rounds)) / float64(b.sz.ConvergeReps)
	return nil
}

// someModel returns a trained model of the workload's shape for the
// isolated vae/tensor stopwatches.
func (b *bench) someModel() (*vae.Model, error) {
	if b.modelBytes == nil {
		var err error
		if b.modelBytes, err = b.trainModel(splitmix(b.seed, 1<<32)); err != nil {
			return nil, err
		}
	}
	return vae.Load(bytes.NewReader(b.modelBytes))
}

// queryMetrics runs serve_http's cold and hot /v1/thermo phases on the
// synthetic DOS and fills the serving rows.
func (b *bench) queryMetrics(m map[string]float64) error {
	ph, err := b.lb.queryPhases(b.synth, b.sz.Serve)
	if err != nil {
		return fmt.Errorf("query phase: %w", err)
	}
	if ph.Mismatch != nil {
		b.fail("query phase: %v", ph.Mismatch)
	}
	m["thermo_cold_ms_p50"] = median(ph.Cold)
	m["thermo_hot_ms_p50"] = median(ph.Hot)
	m["thermo_rps"] = float64(len(ph.Hot)) / ph.HotWallS
	m["server.upload_ms"] = ph.UploadMs
	m["server.thermo_cold_ms_p95"] = percentile(ph.Cold, 95)
	m["server.thermo_hot_ms_p99"] = percentile(ph.Hot, 99)
	m["server.thermo_resp_bytes"] = float64(ph.RespBytes)
	m["server.cache_hit_ratio"] = float64(ph.HotCached) / float64(len(ph.Hot))
	m["server.shed_total"] = float64(b.lb.shed)
	return nil
}

// jobMetrics fills serve_http's job rows from the untraced repetitions.
func (b *bench) jobMetrics(m map[string]float64, reps []*repOut) {
	m["server.job_turnaround_s_p50"] = median(field(reps, func(r *repOut) float64 { return r.Job.TurnaroundS }))
	m["server.queue_to_start_ms"] = median(field(reps, func(r *repOut) float64 { return r.Job.QueueToStartMs }))
	var polls float64
	for _, r := range reps {
		polls += float64(r.Job.Polls)
	}
	m["server.poll_requests"] = polls
}

// artifactMetrics times dos.Save, dos.Load and the 257-point thermo.Curve
// on one DOS, each as the median of a few calls.
func artifactMetrics(m map[string]float64, dosBytes []byte) error {
	d, err := dos.Load(bytes.NewReader(dosBytes))
	if err != nil {
		return err
	}
	ms := func(fn func() error) (float64, error) {
		var xs []float64
		for i := 0; i < 9; i++ {
			t := time.Now()
			if err := fn(); err != nil {
				return 0, err
			}
			xs = append(xs, float64(time.Since(t).Nanoseconds())/1e6)
		}
		return median(xs), nil
	}
	if m["dos.save_ms"], err = ms(func() error { var buf bytes.Buffer; return d.Save(&buf) }); err != nil {
		return err
	}
	if m["dos.load_ms"], err = ms(func() error { _, err := dos.Load(bytes.NewReader(dosBytes)); return err }); err != nil {
		return err
	}
	grid := curveGrid()
	if m["thermo.curve257_ms"], err = ms(func() error { _, err := thermo.Curve(d, grid); return err }); err != nil {
		return err
	}
	m["dos.bytes"] = float64(len(dosBytes))
	m["dos.span"] = d.Span()
	visited := 0
	for i := range d.LogG {
		if d.Visited(i) {
			visited++
		}
	}
	m["dos.bins_visited"] = float64(visited)
	return nil
}
