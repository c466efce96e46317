// Command dtworker runs DeepThermo's distributed jobs across OS
// processes: a rendezvous coordinator plus N workers form a transport
// world over TCP, and the world executes either a full REWL run
// (windows sharded across ranks, rank 0 leading the exchange phase) or
// data-parallel VAE training (one replica per rank, ring allreduce).
//
// Every job is seeded end to end, so a distributed run is bit-identical
// to the single-process run of the same job — the -local mode prints the
// same checksum a multi-process world must reproduce:
//
//	dtworker -coordinate -listen 127.0.0.1:7601 -world 2   # terminal 1
//	dtworker -join 127.0.0.1:7601 -job rewl                # terminal 2
//	dtworker -join 127.0.0.1:7601 -job rewl                # terminal 3
//	dtworker -local -job rewl                              # reference checksum
//
// A worker killed mid-run (kill -9) is detected by the coordinator (TCP
// disconnect, or -hb-timeout of heartbeat silence for a hung-but-connected
// rank) and broadcast to the survivors; the leader degrades the dead
// rank's windows to their frozen consensus and finishes the run, reporting
// degraded_windows in its summary line. With -checkpoint set, the leader
// (rank 0) writes one self-verifying world file per checkpoint round;
// workers never touch the directory. Restarting the whole world with
// -resume ships every rank its part of the newest round that verifies and
// continues bit-identically. With -rejoin-wait additionally set, the
// world is elastic: a replacement worker that joins the coordinator
// within the wait takes over the dead rank, the world rolls back to the
// leader's newest checkpoint round, and the run finishes with zero
// degraded windows and rejoins=1 in the summary — bit-identical to a run
// that never lost the worker.
package main

import (
	"context"
	"flag"
	"fmt"
	"hash/fnv"
	"log"
	"math"
	"os"
	"os/signal"
	"syscall"
	"time"

	"deepthermo/internal/alloy"
	"deepthermo/internal/dos"
	"deepthermo/internal/lattice"
	"deepthermo/internal/mc"
	"deepthermo/internal/nn"
	"deepthermo/internal/rewl"
	"deepthermo/internal/rng"
	"deepthermo/internal/train"
	"deepthermo/internal/transport"
	"deepthermo/internal/vae"
	"deepthermo/internal/wanglandau"
	"deepthermo/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dtworker: ")

	coordinate := flag.Bool("coordinate", false, "run the rendezvous coordinator instead of a worker")
	listen := flag.String("listen", "127.0.0.1:0", "coordinator listen address")
	world := flag.Int("world", 2, "world size (coordinator and -local modes)")
	join := flag.String("join", "", "coordinator address to join as a worker")
	bind := flag.String("bind", "127.0.0.1:0", "worker mesh listen address")
	local := flag.Bool("local", false, "run the job single-process and print the reference checksum")
	job := flag.String("job", "rewl", "rewl | ddp")
	seed := flag.Uint64("seed", 52, "master RNG seed (must match across the world)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-operation transport timeout")
	verbose := flag.Bool("v", false, "log per-round progress and rendezvous steps")
	hbInterval := flag.Duration("hb-interval", 2*time.Second, "coordinator: heartbeat ping period (negative disables)")
	hbTimeout := flag.Duration("hb-timeout", 20*time.Second, "coordinator: silence before a rank is declared dead")

	// REWL job parameters (must match across the world).
	nWindows := flag.Int("windows", 2, "rewl: energy windows (≥ world size)")
	nWalkers := flag.Int("walkers", 1, "rewl: walkers per window")
	lnfFinal := flag.Float64("lnf", 1e-4, "rewl: ln f convergence target")
	oneOverT := flag.Bool("one-over-t", false, "rewl: use the Belardinelli-Pereyra 1/t modification-factor schedule (must match across the world and across restarts)")
	maxRounds := flag.Int("max-rounds", 0, "rewl: round cap (0 = default)")
	exchangeEvery := flag.Int("exchange-interval", 20, "rewl: sweeps per exchange round")
	ckptDir := flag.String("checkpoint", "", "rewl: checkpoint directory, read and written by rank 0 only (empty disables)")
	resume := flag.Bool("resume", false, "rewl: rank 0 resumes the world from its -checkpoint files if present")
	ckptEvery := flag.Int("checkpoint-every", 0, "rewl: rounds between checkpoints (0 = default)")
	rejoinWait := flag.Duration("rejoin-wait", 0, "rewl: how long the leader waits for a replacement of a dead rank (0 disables elastic rejoin)")

	// DDP job parameters (must match across the world).
	epochs := flag.Int("epochs", 3, "ddp: training epochs")
	batch := flag.Int("batch", 16, "ddp: per-replica batch size")
	lr := flag.Float64("lr", 1e-3, "ddp: learning rate")
	flag.Parse()

	logf := func(string, ...any) {}
	if *verbose {
		logf = log.Printf
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	switch {
	case *coordinate:
		runCoordinator(ctx, *listen, *world, *hbInterval, *hbTimeout, logf)
	case *local:
		runLocal(*job, *world, jobParams{
			seed: *seed, windows: *nWindows, walkers: *nWalkers, lnf: *lnfFinal, oneOverT: *oneOverT,
			maxRounds: *maxRounds, exchange: *exchangeEvery, ckptDir: *ckptDir, resume: *resume,
			every: *ckptEvery, rejoinWait: *rejoinWait,
			epochs: *epochs, batch: *batch, lr: *lr, logf: logf,
		})
	case *join != "":
		runWorker(ctx, *join, *bind, *job, *timeout, jobParams{
			seed: *seed, windows: *nWindows, walkers: *nWalkers, lnf: *lnfFinal, oneOverT: *oneOverT,
			maxRounds: *maxRounds, exchange: *exchangeEvery, ckptDir: *ckptDir, resume: *resume,
			every: *ckptEvery, rejoinWait: *rejoinWait,
			epochs: *epochs, batch: *batch, lr: *lr, logf: logf,
		})
	default:
		fmt.Fprintln(os.Stderr, "need one of -coordinate, -join ADDR, or -local")
		flag.Usage()
		os.Exit(2)
	}
}

type jobParams struct {
	seed             uint64
	windows, walkers int
	lnf              float64
	oneOverT         bool
	maxRounds        int
	exchange         int
	ckptDir          string
	resume           bool
	every            int
	rejoinWait       time.Duration
	epochs, batch    int
	lr               float64
	logf             func(string, ...any)
}

func runCoordinator(ctx context.Context, listen string, world int, hbInterval, hbTimeout time.Duration, logf func(string, ...any)) {
	co, err := transport.NewCoordinatorOpts(listen, world, transport.CoordinatorOptions{
		HeartbeatInterval: hbInterval,
		HeartbeatTimeout:  hbTimeout,
		Logf:              logf,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer co.Close()
	fmt.Printf("coordinator: listening on %s for a world of %d\n", co.Addr(), world)
	failed, err := co.Wait(ctx)
	if err != nil {
		log.Fatal(err)
	}
	if len(failed) > 0 {
		fmt.Printf("coordinator: world finished, failed ranks: %v, rejoins: %d\n", failed, co.Rejoins())
		return
	}
	fmt.Printf("coordinator: world finished cleanly, rejoins: %d\n", co.Rejoins())
}

func runWorker(ctx context.Context, coordAddr, bind, job string, timeout time.Duration, p jobParams) {
	ep, err := transport.Join(ctx, coordAddr, transport.JoinOptions{Bind: bind, Logf: p.logf})
	if err != nil {
		log.Fatal(err)
	}
	defer ep.Close()
	// While the leader waits out -rejoin-wait for a replacement, the
	// survivors sit blocked in their next receive; the per-op timeout must
	// outlast that wait or survivors would wrongly give up mid-rejoin.
	if p.rejoinWait > 0 && timeout > 0 && timeout < p.rejoinWait+30*time.Second {
		timeout = p.rejoinWait + 30*time.Second
	}
	ep.SetTimeout(timeout)
	log.SetPrefix(fmt.Sprintf("dtworker[rank %d]: ", ep.Rank()))
	log.Printf("joined world of %d via %s", ep.Size(), coordAddr)

	switch job {
	case "rewl":
		res, err := runREWL(ctx, ep, p)
		if err != nil {
			log.Fatal(err)
		}
		if res != nil {
			printREWLSummary(res)
		} else {
			fmt.Printf("rank %d done (worker)\n", ep.Rank())
		}
	case "ddp":
		model, stats, err := runDDP(ctx, ep, ep.Rank() == 0, p)
		if err != nil {
			log.Fatal(err)
		}
		if ep.Rank() == 0 {
			printDDPSummary(model, stats, p.epochs)
		} else {
			fmt.Printf("rank %d done (worker, weights_checksum=%016x)\n", ep.Rank(), weightsChecksum(model))
		}
	default:
		log.Fatalf("unknown job %q (want rewl or ddp)", job)
	}
}

func runLocal(job string, world int, p jobParams) {
	switch job {
	case "rewl":
		m, seedCfg, wins, factory := rewlSetup(p)
		res, err := rewl.RunContext(context.Background(), m, seedCfg, wins, factory, rewlOptions(p))
		if err != nil {
			log.Fatal(err)
		}
		printREWLSummary(res)
	case "ddp":
		ds, vcfg := ddpSetup()
		model, stats, err := train.FitDDP(vcfg, ds, world, ddpOptions(p))
		if err != nil {
			log.Fatal(err)
		}
		printDDPSummary(model, stats, p.epochs)
	default:
		log.Fatalf("unknown job %q (want rewl or ddp)", job)
	}
}

// ---------------------------------------------------------------------------
// REWL job: the 8-site binary ordering model whose DOS is exactly
// enumerable, split into -windows overlapping windows. Small enough to
// run in seconds, rich enough that every subsystem (exchange, merging,
// degraded windows, checkpointing) is exercised.

func rewlSetup(p jobParams) (*alloy.Model, lattice.Config, []wanglandau.Window, rewl.ProposalFactory) {
	lat := lattice.MustNew(lattice.SC, 2, 2, 2)
	m := alloy.BinaryOrdering(lat, 0.05)
	exact, err := dos.EnumerateFixedComposition(m, []int{4, 4})
	if err != nil {
		log.Fatal(err)
	}
	ex, err := exact.ToLogDOS(0.025)
	if err != nil {
		log.Fatal(err)
	}
	wins, err := rewl.SplitWindows(ex.EMin, ex.EMax(), p.windows, 0.5, ex.BinWidth)
	if err != nil {
		log.Fatal(err)
	}
	seedCfg := lattice.EquiatomicConfig(lat, 2, rng.New(p.seed^0xd15c0))
	factory := func(win, widx int, s *rng.Source) mc.Proposal { return mc.NewSwapProposal(m) }
	return m, seedCfg, wins, factory
}

func rewlOptions(p jobParams) rewl.Options {
	return rewl.Options{
		Seed:             p.seed,
		WalkersPerWindow: p.walkers,
		ExchangeInterval: p.exchange,
		MaxRounds:        p.maxRounds,
		WL:               wanglandau.Options{LnFFinal: p.lnf},
		OneOverT:         p.oneOverT,
		CheckpointDir:    p.ckptDir,
		Resume:           p.resume,
		CheckpointEvery:  p.every,
		RejoinWait:       p.rejoinWait,
		Logf:             p.logf,
	}
}

func runREWL(ctx context.Context, ep transport.Endpoint, p jobParams) (*rewl.Result, error) {
	m, seedCfg, wins, factory := rewlSetup(p)
	return rewl.RunDistributed(ctx, ep, m, seedCfg, wins, factory, rewlOptions(p))
}

func printREWLSummary(res *rewl.Result) {
	fmt.Printf("rewl done rounds=%d converged=%v resumed=%v rejoins=%d exchanges=%d/%d round_trips=%d "+
		"failed_walkers=%d degraded_windows=%d total_sweeps=%d dos_checksum=%016x\n",
		res.Rounds, res.AllConverged, res.Resumed, res.Rejoins, res.ExchangeAccept, res.ExchangeTried,
		res.RoundTrips, res.FailedWalkers, res.DegradedWindows, res.TotalSweeps, dosChecksum(res.DOS))
}

// ---------------------------------------------------------------------------
// DDP job: the 16-site NbMoTaW VAE training workload the train package
// tests pin. Every replica regenerates the identical dataset and initial
// weights from the shared seeds, exactly like train.FitDDP's goroutines.

func ddpSetup() (*workload.Dataset, vae.Config) {
	m := alloy.NbMoTaW(lattice.MustNew(lattice.BCC, 2, 2, 2))
	ds, err := workload.Generate(m, workload.GenOptions{
		Temps:          []float64{500, 2000},
		SamplesPerTemp: 40,
		EquilSweeps:    30,
		GapSweeps:      2,
		Seed:           1,
	})
	if err != nil {
		log.Fatal(err)
	}
	return ds, vae.Config{Sites: 16, Species: 4, Latent: 3, Hidden: 24, BetaKL: 1}
}

func ddpOptions(p jobParams) train.Options {
	return train.Options{Epochs: p.epochs, BatchSize: p.batch, LR: p.lr, Seed: p.seed}
}

func runDDP(ctx context.Context, ep transport.Endpoint, isLeader bool, p jobParams) (*vae.Model, []train.EpochStats, error) {
	ds, vcfg := ddpSetup()
	model, err := vae.New(vcfg, rng.New(p.seed))
	if err != nil {
		return nil, nil, err
	}
	stats, err := train.FitDDPEndpoint(ctx, model, ep, ds, ddpOptions(p))
	if err != nil {
		return nil, nil, err
	}
	return model, stats, nil
}

func printDDPSummary(model *vae.Model, stats []train.EpochStats, epochs int) {
	last := stats[len(stats)-1]
	fmt.Printf("ddp done epochs=%d final_recon=%.12g final_kl=%.12g weights_checksum=%016x\n",
		len(stats), last.Recon, last.KL, weightsChecksum(model))
}

// ---------------------------------------------------------------------------
// Checksums: FNV-64a over the raw IEEE-754 bits, so two runs match iff
// their results are bit-identical.

func dosChecksum(d *dos.LogDOS) uint64 {
	if d == nil {
		return 0
	}
	return floatsChecksum(d.LogG)
}

func weightsChecksum(m *vae.Model) uint64 {
	if m == nil {
		return 0
	}
	return floatsChecksum(nn.FlattenValues(m.Params(), nil))
}

func floatsChecksum(vals []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vals {
		bits := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			b[i] = byte(bits >> (56 - 8*i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}
