package rewl

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"deepthermo/internal/alloy"
	"deepthermo/internal/chaos"
	"deepthermo/internal/lattice"
	"deepthermo/internal/mc"
	"deepthermo/internal/rng"
	"deepthermo/internal/transport"
	"deepthermo/internal/wanglandau"
)

func swapFactory(m *alloy.Model) ProposalFactory {
	return func(win, widx int, s *rng.Source) mc.Proposal { return mc.NewSwapProposal(m) }
}

// runWorld runs RunDistributed under ctx on every rank of an in-process
// world of n ranks, or of a TCP loopback world when tcp is set, and
// returns each rank's result and error, indexed by rank.
func runWorld(t *testing.T, ctx context.Context, tcp bool, n int, m *alloy.Model, seed lattice.Config, wins []wanglandau.Window, factory ProposalFactory, opts Options) ([]*Result, []error) {
	t.Helper()
	world := transport.NewChanWorld(n)
	var co *transport.Coordinator
	if tcp {
		var err error
		if co, err = transport.NewCoordinator("127.0.0.1:0", n); err != nil {
			t.Fatal(err)
		}
		defer co.Close()
	}
	results := make([]*Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var ep transport.Endpoint = world.Endpoint(i)
			if tcp {
				tep, err := transport.Join(context.Background(), co.Addr(), transport.JoinOptions{Timeout: 20 * time.Second})
				if err != nil {
					t.Error(err)
					return
				}
				defer tep.Close()
				ep = tep
			}
			r := ep.Rank()
			results[r], errs[r] = RunDistributed(ctx, ep, m, seed, wins, factory, opts)
		}(i)
	}
	wg.Wait()
	return results, errs
}

// runDist runs a world of n ranks (see runWorld) to the end and returns the
// leader's result, failing the test unless every rank returned cleanly and
// only the leader returned a result.
func runDist(t *testing.T, tcp bool, n int, m *alloy.Model, seed lattice.Config, wins []wanglandau.Window, opts Options) *Result {
	t.Helper()
	results, errs := runWorld(t, context.Background(), tcp, n, m, seed, wins, swapFactory(m), opts)
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for r := 1; r < n; r++ {
		if results[r] != nil {
			t.Fatalf("worker rank %d returned a result", r)
		}
	}
	if results[0] == nil {
		t.Fatal("leader returned no result")
	}
	return results[0]
}

// runDistChan executes RunDistributed over an in-process world of n ranks
// and returns the leader's result.
func runDistChan(t *testing.T, n int, m *alloy.Model, seed lattice.Config, wins []wanglandau.Window, opts Options) *Result {
	t.Helper()
	return runDist(t, false, n, m, seed, wins, opts)
}

// runDistTCP executes RunDistributed over a TCP loopback world of n ranks
// and returns the leader's result.
func runDistTCP(t *testing.T, n int, m *alloy.Model, seed lattice.Config, wins []wanglandau.Window, opts Options) *Result {
	t.Helper()
	return runDist(t, true, n, m, seed, wins, opts)
}

// sameResult asserts two runs are bit-identical: every counter, every
// per-window stat, and every DOS bin down to the float bits.
func sameResult(t *testing.T, got, want *Result) {
	t.Helper()
	if got.Rounds != want.Rounds || got.AllConverged != want.AllConverged {
		t.Errorf("rounds/converged: got %d/%v, want %d/%v", got.Rounds, got.AllConverged, want.Rounds, want.AllConverged)
	}
	if got.ExchangeTried != want.ExchangeTried || got.ExchangeAccept != want.ExchangeAccept {
		t.Errorf("exchanges: got %d/%d, want %d/%d", got.ExchangeAccept, got.ExchangeTried, want.ExchangeAccept, want.ExchangeTried)
	}
	if got.RoundTrips != want.RoundTrips {
		t.Errorf("round trips: got %d, want %d", got.RoundTrips, want.RoundTrips)
	}
	if got.TotalSweeps != want.TotalSweeps {
		t.Errorf("total sweeps: got %d, want %d", got.TotalSweeps, want.TotalSweeps)
	}
	if got.FailedWalkers != want.FailedWalkers || got.DegradedWindows != want.DegradedWindows {
		t.Errorf("failures: got %d walkers/%d windows, want %d/%d",
			got.FailedWalkers, got.DegradedWindows, want.FailedWalkers, want.DegradedWindows)
	}
	if len(got.Windows) != len(want.Windows) {
		t.Fatalf("window count: got %d, want %d", len(got.Windows), len(want.Windows))
	}
	for wi := range want.Windows {
		g, w := got.Windows[wi], want.Windows[wi]
		if g.Converged != w.Converged || g.Stages != w.Stages || g.Sweeps != w.Sweeps ||
			g.Degraded != w.Degraded || g.FailedWalkers != w.FailedWalkers ||
			math.Float64bits(g.FinalLnF) != math.Float64bits(w.FinalLnF) ||
			math.Float64bits(g.AcceptRatio) != math.Float64bits(w.AcceptRatio) {
			t.Errorf("window %d stats differ:\n got %+v\nwant %+v", wi, g, w)
		}
	}
	if got.DOS == nil || want.DOS == nil {
		t.Fatal("missing DOS")
	}
	if len(got.DOS.LogG) != len(want.DOS.LogG) {
		t.Fatalf("DOS bins: got %d, want %d", len(got.DOS.LogG), len(want.DOS.LogG))
	}
	for i := range want.DOS.LogG {
		if math.Float64bits(got.DOS.LogG[i]) != math.Float64bits(want.DOS.LogG[i]) {
			t.Fatalf("DOS bin %d differs: %g vs %g", i, got.DOS.LogG[i], want.DOS.LogG[i])
		}
	}
}

// TestRunDistributedChaosParity: an injected walker crash addresses the
// same global walker slot whether the windows run in one process or
// sharded, so the degraded outcome replays bit-identically — including a
// window losing all its walkers.
func TestRunDistributedChaosParity(t *testing.T) {
	m, exact := exact8(t)
	wins, err := SplitWindows(exact.EMin, exact.EMax(), 2, 0.5, exact.BinWidth)
	if err != nil {
		t.Fatal(err)
	}
	seed := lattice.EquiatomicConfig(m.Lattice(), 2, rng.New(35))
	// Kill both walkers of window 1 (global slots 2 and 3): the window
	// must degrade to its frozen consensus in both drivers.
	plan := chaos.NewPlan(
		chaos.Fault{Rank: 2, Step: 120, Kind: chaos.Crash},
		chaos.Fault{Rank: 3, Step: 160, Kind: chaos.Crash},
	)
	opts := Options{Seed: 36, WalkersPerWindow: 2, ExchangeInterval: 20,
		WL: wanglandau.Options{LnFFinal: 1e-3}, Faults: plan}

	ref, err := Run(m, seed, wins, swapFactory(m), opts)
	if err != nil {
		t.Fatal(err)
	}
	if ref.FailedWalkers != 2 || ref.DegradedWindows != 1 {
		t.Fatalf("reference run: %d failed walkers, %d degraded windows", ref.FailedWalkers, ref.DegradedWindows)
	}
	got := runDistChan(t, 2, m, seed, wins, opts)
	sameResult(t, got, ref)
}

// TestRunDistributedWorkerDeath: killing a worker's connection mid-run
// must not sink the world — the leader treats the rank like failed
// walkers, its windows degrade to the frozen consensus, and the run
// still produces a merged DOS.
func TestRunDistributedWorkerDeath(t *testing.T) {
	m, exact := exact8(t)
	wins, err := SplitWindows(exact.EMin, exact.EMax(), 3, 0.5, exact.BinWidth)
	if err != nil {
		t.Fatal(err)
	}
	seed := lattice.EquiatomicConfig(m.Lattice(), 2, rng.New(39))

	const ranks = 3
	co, err := transport.NewCoordinator("127.0.0.1:0", ranks)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	// Logf fires on the leader each round; after a couple of rounds the
	// frozen consensus exists and we cut rank 1's wires.
	var killOnce sync.Once
	rounds := make(chan struct{}, 64)
	opts := Options{Seed: 40, ExchangeInterval: 20, MaxRounds: 60,
		WL:   wanglandau.Options{LnFFinal: 1e-300}, // unreachable: the run ends at MaxRounds
		Logf: func(string, ...any) { rounds <- struct{}{} }}

	eps := make([]*transport.TCPEndpoint, ranks)
	results := make([]*Result, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	var epMu sync.Mutex
	for i := 0; i < ranks; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ep, err := transport.Join(context.Background(), co.Addr(), transport.JoinOptions{Timeout: 20 * time.Second})
			if err != nil {
				errs[i] = err
				return
			}
			epMu.Lock()
			eps[ep.Rank()] = ep
			epMu.Unlock()
			defer ep.Close()
			ep.SetTimeout(10 * time.Second)
			results[ep.Rank()], errs[i] = RunDistributed(context.Background(), ep, m, seed, wins, swapFactory(m), opts)
		}(i)
	}
	go func() {
		for i := 0; i < 2; i++ {
			<-rounds
		}
		killOnce.Do(func() {
			epMu.Lock()
			defer epMu.Unlock()
			eps[1].Kill()
		})
	}()
	wg.Wait()

	// The killed worker errors out; the leader must not.
	if results[0] == nil {
		t.Fatalf("leader returned no result (errs: %v)", errs)
	}
	res := results[0]
	if res.DegradedWindows == 0 {
		t.Error("no degraded windows after a worker was killed")
	}
	if !res.Windows[1].Degraded {
		t.Error("the killed rank's window is not flagged degraded")
	}
	if res.AllConverged {
		t.Error("a degraded run claims full convergence")
	}
	if res.FailedWalkers == 0 {
		t.Error("no failed walkers recorded for the dead rank")
	}
	if res.DOS == nil || len(res.DOS.LogG) == 0 {
		t.Error("no merged DOS from the degraded run")
	}
	// The surviving windows kept sampling.
	if !(res.Windows[0].Sweeps > 0 && res.Windows[2].Sweeps > 0) {
		t.Error("surviving windows did not sweep")
	}
}

// TestRunDistributedWorkerFailsToStart: a worker that cannot build its
// walkers must say so. The leader then treats the rank as dead — its
// windows degrade — instead of waiting forever for a sweep report from a
// rank that never entered the command loop.
func TestRunDistributedWorkerFailsToStart(t *testing.T) {
	m, exact := exact8(t)
	wins, err := SplitWindows(exact.EMin, exact.EMax(), 2, 0.5, exact.BinWidth)
	if err != nil {
		t.Fatal(err)
	}
	seed := lattice.EquiatomicConfig(m.Lattice(), 2, rng.New(61))
	opts := Options{Seed: 62, ExchangeInterval: 20, WL: wanglandau.Options{LnFFinal: 1e-3}}
	// Rank 1 is handed a ladder whose second window — the one it owns —
	// lies above the whole spectrum, so steering into it fails.
	unreachable := []wanglandau.Window{wins[0], {EMin: 100, EMax: 101, Bins: 4}}

	world := transport.NewChanWorld(2)
	workerErr := make(chan error, 1)
	go func() {
		_, err := RunDistributed(context.Background(), world.Endpoint(1), m, seed, unreachable, swapFactory(m), opts)
		workerErr <- err
	}()
	type outcome struct {
		res *Result
		err error
	}
	leader := make(chan outcome, 1)
	go func() {
		res, err := RunDistributed(context.Background(), world.Endpoint(0), m, seed, wins, swapFactory(m), opts)
		leader <- outcome{res, err}
	}()
	var got outcome
	select {
	case got = <-leader:
	case <-time.After(30 * time.Second):
		t.Fatal("leader still waiting on a rank that never started")
	}
	if got.err != nil {
		t.Fatalf("leader: %v", got.err)
	}
	if err := <-workerErr; err == nil {
		t.Error("worker reported a clean run without walkers")
	}
	res := got.res
	if !res.Windows[1].Degraded || res.DegradedWindows != 1 || res.FailedWalkers != 1 {
		t.Errorf("rank 1's window not degraded: %d degraded windows, %d failed walkers, window 1 %+v",
			res.DegradedWindows, res.FailedWalkers, res.Windows[1])
	}
	if res.Windows[0].Degraded || res.Windows[0].Sweeps == 0 || res.DOS == nil {
		t.Errorf("the leader's own window did not run: %+v", res.Windows[0])
	}
}

// TestRunDistributedValidation: a world larger than the window ladder is
// rejected on every rank.
func TestRunDistributedValidation(t *testing.T) {
	m, exact := exact8(t)
	wins, err := SplitWindows(exact.EMin, exact.EMax(), 2, 0.5, exact.BinWidth)
	if err != nil {
		t.Fatal(err)
	}
	seed := lattice.EquiatomicConfig(m.Lattice(), 2, rng.New(41))
	world := transport.NewChanWorld(3)
	if _, err := RunDistributed(context.Background(), world.Endpoint(0), m, seed, wins, swapFactory(m), Options{Seed: 42}); err == nil {
		t.Error("3 ranks over 2 windows accepted")
	}
}
