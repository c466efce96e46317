package rewl

// Golden REWL trajectories. Every other bit-identity test in this package
// compares two runs of the same build; these rows compare against results
// recorded on disk (testdata/golden_*.json, hex floats), so a change to the
// round loop that shifts every driver the same way still fails. Regenerate
// with `go test ./internal/rewl -run TestGoldenREWL -update-golden` only
// when a trajectory change is intended.

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"deepthermo/internal/alloy"
	"deepthermo/internal/chaos"
	"deepthermo/internal/dos"
	"deepthermo/internal/lattice"
	"deepthermo/internal/rng"
	"deepthermo/internal/wanglandau"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_*.json from RunContext")

type goldenWindow struct {
	Stages      int
	Sweeps      int64
	FinalLnF    string
	Converged   bool
	AcceptRatio string
}

// goldenResult is the part of a Result the goldens pin.
type goldenResult struct {
	Rounds          int
	TotalSweeps     int64
	ExchangeTried   int64
	ExchangeAccept  int64
	RoundTrips      int64
	FailedWalkers   int
	DegradedWindows int
	Windows         []goldenWindow
	Events          []MigrationEvent
	LogG            []string
}

func hexFloat(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

func goldenOf(res *Result) goldenResult {
	g := goldenResult{
		Rounds:          res.Rounds,
		TotalSweeps:     res.TotalSweeps,
		ExchangeTried:   res.ExchangeTried,
		ExchangeAccept:  res.ExchangeAccept,
		RoundTrips:      res.RoundTrips,
		FailedWalkers:   res.FailedWalkers,
		DegradedWindows: res.DegradedWindows,
		Events:          res.Events,
	}
	for _, ws := range res.Windows {
		g.Windows = append(g.Windows, goldenWindow{Stages: ws.Stages, Sweeps: ws.Sweeps, FinalLnF: hexFloat(ws.FinalLnF),
			Converged: ws.Converged, AcceptRatio: hexFloat(ws.AcceptRatio)})
	}
	for _, lg := range res.DOS.LogG {
		g.LogG = append(g.LogG, hexFloat(lg))
	}
	return g
}

func goldenPath(name string) string { return filepath.Join("testdata", "golden_"+name+".json") }

func loadGolden(t *testing.T, name string) goldenResult {
	t.Helper()
	b, err := os.ReadFile(goldenPath(name))
	if err != nil {
		t.Fatal(err)
	}
	var g goldenResult
	if err := json.Unmarshal(b, &g); err != nil {
		t.Fatalf("%s: %v", goldenPath(name), err)
	}
	return g
}

// requireGolden asserts res reproduces the named golden bit for bit.
func requireGolden(t *testing.T, name string, res *Result) {
	t.Helper()
	got, want := goldenOf(res), loadGolden(t, name)
	if reflect.DeepEqual(got, want) {
		return
	}
	gl, wl := got.LogG, want.LogG
	got.LogG, want.LogG = nil, nil
	if !reflect.DeepEqual(got, want) {
		t.Errorf("golden %s: counters differ:\n got %+v\nwant %+v", name, got, want)
	}
	if len(gl) != len(wl) {
		t.Fatalf("golden %s: %d DOS bins, want %d", name, len(gl), len(wl))
	}
	for i := range wl {
		if gl[i] != wl[i] {
			t.Fatalf("golden %s: DOS bin %d is %s, want %s", name, i, gl[i], wl[i])
		}
	}
}

// goldenRow is one pinned run. resumeAt > 0 interrupts the run at that
// round (checkpointing every 3) and resumes it; the golden is the final
// result either way.
type goldenRow struct {
	name     string
	system   func(testing.TB) (*alloy.Model, *dos.LogDOS)
	windows  int
	overlap  float64
	cfgSeed  uint64
	opts     Options
	static   bool // also replayed over chan worlds of 2 and 3 ranks
	tcp      bool // also replayed over a 2-rank TCP loopback world
	resumeAt int
}

func goldenRows() []goldenRow {
	wl := wanglandau.Options{LnFFinal: 1e-3}
	return []goldenRow{
		{name: "static_1walker", system: exact8, windows: 3, overlap: 0.5, cfgSeed: 51, static: true, tcp: true,
			opts: Options{Seed: 52, ExchangeInterval: 20, WL: wl}},
		{name: "static_2walkers", system: exact8, windows: 3, overlap: 0.5, cfgSeed: 53, static: true,
			opts: Options{Seed: 54, WalkersPerWindow: 2, ExchangeInterval: 20, WL: wl}},
		// static_2walkers stopped by MaxRounds in round 10, in which every
		// window ends a stage and window 1 its last: the capped Result
		// reports the ln f and convergence after those transitions.
		{name: "static_2walkers_capped", system: exact8, windows: 3, overlap: 0.5, cfgSeed: 53, static: true,
			opts: Options{Seed: 54, WalkersPerWindow: 2, ExchangeInterval: 20, WL: wl, MaxRounds: 10}},
		{name: "one_over_t", system: exact8, windows: 3, overlap: 0.5, cfgSeed: 55, static: true,
			opts: Options{Seed: 56, WalkersPerWindow: 2, ExchangeInterval: 20, OneOverT: true,
				WL: wanglandau.Options{LnFFinal: 1e-3, Flatness: 0.6}}},
		// one_over_t stopped by MaxRounds in round 12, in which windows 1
		// and 2 end a stage in the 1/t phase, where ending one keeps ln f.
		{name: "one_over_t_capped", system: exact8, windows: 3, overlap: 0.5, cfgSeed: 55, static: true,
			opts: Options{Seed: 56, WalkersPerWindow: 2, ExchangeInterval: 20, OneOverT: true, MaxRounds: 12,
				WL: wanglandau.Options{LnFFinal: 1e-3, Flatness: 0.6}}},
		{name: "adaptive", system: exact16, windows: 3, overlap: 0.75, cfgSeed: 21,
			opts: adaptiveTestOpts(wl)},
		// adaptive stopped by MaxRounds in round 20, whose rebalancing
		// retires walker 1 of window 0 into window 2 after the round's
		// reports: the capped Result leaves the retired walker's moves out.
		{name: "adaptive_capped", system: exact16, windows: 3, overlap: 0.75, cfgSeed: 21,
			opts: func() Options { o := adaptiveTestOpts(wl); o.MaxRounds = 20; return o }()},
		{name: "chaos_kill_walker", system: exact8, windows: 3, overlap: 0.5, cfgSeed: 57, static: true,
			opts: Options{Seed: 58, WalkersPerWindow: 2, ExchangeInterval: 20, WL: wl,
				// Slot 3 = walker 1 of window 1, dead after 120 of its own sweeps.
				Faults: chaos.NewPlan(chaos.Fault{Rank: 3, Step: 120, Kind: chaos.Crash})}},
		{name: "checkpoint_resume", system: exact8, windows: 3, overlap: 0.5, cfgSeed: 59, static: true, resumeAt: 7,
			opts: Options{Seed: 60, WalkersPerWindow: 2, ExchangeInterval: 20, WL: wl}},
	}
}

// TestGoldenREWL replays every golden row through RunContext, and the
// static rows through chan worlds of 2 and 3 ranks and (one row) a 2-rank
// TCP world: all of them must reproduce the recorded trajectory, and the
// other worlds the world of one's telemetry.
func TestGoldenREWL(t *testing.T) {
	for _, row := range goldenRows() {
		row := row
		t.Run(row.name, func(t *testing.T) {
			m, exact := row.system(t)
			wins, err := SplitWindows(exact.EMin, exact.EMax(), row.windows, row.overlap, exact.BinWidth)
			if err != nil {
				t.Fatal(err)
			}
			seed := lattice.EquiatomicConfig(m.Lattice(), 2, rng.New(row.cfgSeed))

			// run drives the row through one executor, interrupting and
			// resuming when the row asks for it.
			run := func(t *testing.T, exec func(Options) *Result) *Result {
				opts := row.opts
				if row.resumeAt == 0 {
					return exec(opts)
				}
				opts.CheckpointDir, opts.CheckpointEvery = t.TempDir(), 3
				part := opts
				part.MaxRounds = row.resumeAt
				if exec(part).AllConverged {
					t.Fatalf("converged within %d rounds; nothing left to resume", row.resumeAt)
				}
				opts.Resume = true
				res := exec(opts)
				if !res.Resumed {
					t.Error("run not flagged as resumed")
				}
				return res
			}
			local := func(opts Options) *Result {
				res, err := RunContext(context.Background(), m, seed, wins, swapFactory(m), opts)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}

			if *updateGolden {
				b, err := json.MarshalIndent(goldenOf(run(t, local)), "", " ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(goldenPath(row.name), append(b, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
			}

			// The world-of-one result, whose telemetry every other world
			// must reproduce.
			var localRes *Result
			localRun := func(t *testing.T) *Result {
				if localRes == nil {
					localRes = run(t, local)
				}
				return localRes
			}
			requireLocalTelemetry := func(t *testing.T, res *Result) {
				t.Helper()
				want := localRun(t).Telemetry
				if len(want) != len(wins) || !reflect.DeepEqual(res.Telemetry, want) {
					t.Errorf("telemetry differs from the world of one:\n got %+v\nwant %+v", res.Telemetry, want)
				}
			}

			t.Run("local", func(t *testing.T) {
				res := localRun(t)
				requireGolden(t, row.name, res)
				if res.Rounds < 4 || res.ExchangeTried == 0 {
					t.Errorf("row pins too little: %d rounds, %d exchanges tried", res.Rounds, res.ExchangeTried)
				}
				if row.opts.Adaptive.Enabled && res.Migrations == 0 {
					t.Errorf("adaptive row pins no migration")
				}
				if row.opts.Faults != nil && res.FailedWalkers != 1 {
					t.Errorf("chaos row lost %d walkers, want 1", res.FailedWalkers)
				}
			})
			if row.static {
				for _, ranks := range []int{2, 3} {
					ranks := ranks
					t.Run("chan"+strconv.Itoa(ranks), func(t *testing.T) {
						res := run(t, func(opts Options) *Result {
							return runDistChan(t, ranks, m, seed, wins, opts)
						})
						requireGolden(t, row.name, res)
						requireLocalTelemetry(t, res)
					})
				}
			}
			if row.tcp {
				t.Run("tcp2", func(t *testing.T) {
					res := run(t, func(opts Options) *Result {
						return runDistTCP(t, 2, m, seed, wins, opts)
					})
					requireGolden(t, row.name, res)
					requireLocalTelemetry(t, res)
				})
			}
		})
	}
}
