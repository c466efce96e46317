package main

// metricDef mirrors one entry of BENCHMARK.json. The table below is what
// the program emits; TestMetricsMatchBenchmarkJSON holds it equal to the
// file, so a name, unit or direction cannot drift between the two.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd is what a user of the system sees. Every workload reports every
// one of them with --trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"spec_to_curve_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer is reported with --trace 1, every name on every workload; a
// layer that does no work on a workload reports 0 there. For counts and
// diagnostics (rounds, T_c, span) "better" only fixes a reading direction.
var perLayer = []metricDef{
	// rewl: the round loop as a whole.
	{"rewl.sample_s", "s", "lower"},
	{"rewl.rounds", "count", "lower"},
	{"rewl.sweeps", "count", "lower"},
	{"rewl.sweeps_per_s", "1/s", "higher"},
	{"rewl.steps_per_s", "1/s", "higher"},
	{"rewl.round_ms_mean", "ms", "lower"},
	{"rewl.cpu_s", "s", "lower"},
	{"rewl.cpu_per_wall", "ratio", "lower"},
	{"rewl.wall_p1_s", "s", "lower"},
	{"rewl.parallel_speedup", "ratio", "higher"},
	{"rewl.migrations", "count", "lower"},
	{"rewl.exchange_accept_ratio", "ratio", "higher"},
	{"rewl.round_trips", "count", "higher"},
	// rewl through System.SampleDOS to its real ln f target (traced pass).
	{"rewl.converge_rounds", "count", "lower"},
	{"rewl.converge_s", "s", "lower"},
	{"rewl.converged_share", "ratio", "higher"},
	// alloy, mc, wanglandau: the local-swap step.
	{"alloy.swap_delta_e_ns", "ns", "lower"},
	{"wanglandau.sweep_ns_per_step", "ns", "lower"},
	{"mc.propose_swap_calls", "count", "lower"},
	{"mc.propose_swap_ns", "ns", "lower"},
	{"mc.propose_swap_busy_s", "s", "lower"},
	{"mc.swap_accept_ratio", "ratio", "higher"},
	// mc (DL), vae, tensor: the deep-learning proposal.
	{"mc.propose_dl_calls", "count", "lower"},
	{"mc.propose_dl_ns", "ns", "lower"},
	{"mc.propose_dl_busy_s", "s", "lower"},
	{"mc.dl_accept_ratio", "ratio", "higher"},
	{"mc.dl_share_of_cpu", "ratio", "lower"},
	{"vae.encode_ns", "ns", "lower"},
	{"vae.decode_ns", "ns", "lower"},
	{"tensor.matmul_b1_gflops", "GFLOP/s", "higher"},
	{"tensor.matmul_b8_gflops", "GFLOP/s", "higher"},
	{"tensor.matmul_flops_per_byte", "flop/B", "higher"},
	// infer: the batched engine.
	{"infer.flushes", "count", "lower"},
	{"infer.requests", "count", "lower"},
	{"infer.mean_batch", "count", "higher"},
	{"infer.max_batch", "count", "higher"},
	{"infer.pass_through", "count", "lower"},
	{"infer.call_busy_s", "s", "lower"},
	// workload, train: data generation and model fitting.
	{"workload.generate_s", "s", "lower"},
	{"workload.samples", "count", "higher"},
	{"train.fit_s", "s", "lower"},
	{"train.samples_per_s", "1/s", "higher"},
	{"train.final_loss", "nat", "lower"},
	{"train.diverged_epochs", "count", "lower"},
	// dos, thermo: the artifact and its reweighting.
	{"dos.rmse_vs_exact", "ln_g", "lower"},
	{"dos.span", "ln_g", "lower"},
	{"dos.bins_visited", "count", "higher"},
	{"dos.bytes", "B", "lower"},
	{"dos.save_ms", "ms", "lower"},
	{"dos.load_ms", "ms", "lower"},
	{"thermo.curve257_ms", "ms", "lower"},
	{"thermo.tc_K", "K", "lower"},
	{"thermo.cv_rms_rel_err", "ratio", "lower"},
	// transport, checkpoints: the price of distribution.
	{"transport.join_s", "s", "lower"},
	{"transport.msgs", "count", "lower"},
	{"transport.bytes", "B", "lower"},
	{"transport.msgs_per_round", "count", "lower"},
	{"transport.bytes_per_round", "B", "lower"},
	{"transport.send_s", "s", "lower"},
	{"transport.wait_s", "s", "lower"},
	{"rewl.ckpt_files", "count", "lower"},
	{"rewl.ckpt_bytes", "B", "lower"},
	{"rewl.ckpt_overhead_s", "s", "lower"},
	// server: the HTTP plane. The three thermo_* rows are the serving
	// numbers a user sees; they sit here, without a bound, because their
	// run-to-run spread on a shared 2-core machine (up to 0.28) is wider
	// than the widest bound a benchmark may declare (README.md).
	{"thermo_cold_ms_p50", "ms", "lower"},
	{"thermo_hot_ms_p50", "ms", "lower"},
	{"thermo_rps", "req/s", "higher"},
	{"server.job_turnaround_s_p50", "s", "lower"},
	{"server.queue_to_start_ms", "ms", "lower"},
	{"server.poll_requests", "count", "lower"},
	{"server.upload_ms", "ms", "lower"},
	{"server.thermo_cold_ms_p95", "ms", "lower"},
	{"server.thermo_hot_ms_p99", "ms", "lower"},
	{"server.thermo_resp_bytes", "B", "lower"},
	{"server.cache_hit_ratio", "ratio", "higher"},
	{"server.shed_total", "count", "lower"},
	// process, trace.
	{"proc.gc_pause_ms", "ms", "lower"},
	{"proc.heap_mb", "MB", "lower"},
	{"proc.allocs_per_sweep", "count", "lower"},
	{"trace.spans", "count", "lower"},
	{"trace.overhead_share", "ratio", "lower"},
}
