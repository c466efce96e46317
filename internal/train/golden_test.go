package train

// Golden training trajectories. Every other bit-identity test in this
// package compares two runs of the same build; these rows compare against
// results recorded on disk (testdata/golden_train.json: per-epoch
// statistics as hex floats, an FNV-64a hash of the final weights), so a
// change to the epoch loop that shifts every driver the same way still
// fails. Regenerate with
// `go test ./internal/train -run TestGoldenTrain -update-golden` only when
// a trajectory change is intended.

import (
	"context"
	"encoding/json"
	"flag"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"deepthermo/internal/nn"
	"deepthermo/internal/rng"
	"deepthermo/internal/transport"
	"deepthermo/internal/vae"
	"deepthermo/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_train.json")

type goldenEpoch struct {
	Recon, KL, Accuracy string
	Diverged            int
}

// goldenRun is the part of a training run the goldens pin.
type goldenRun struct {
	Epochs  []goldenEpoch
	Weights string // FNV-64a over the final weights' IEEE-754 bits
}

func hexFloat(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

func weightsHash(m *vae.Model) string {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range nn.FlattenValues(m.Params(), nil) {
		bits := math.Float64bits(v)
		for i := range b {
			b[i] = byte(bits >> (56 - 8*i))
		}
		h.Write(b[:])
	}
	return strconv.FormatUint(h.Sum64(), 16)
}

func goldenOf(m *vae.Model, stats []EpochStats) goldenRun {
	g := goldenRun{Weights: weightsHash(m)}
	for _, s := range stats {
		g.Epochs = append(g.Epochs, goldenEpoch{
			Recon: hexFloat(s.Recon), KL: hexFloat(s.KL), Accuracy: hexFloat(s.Accuracy), Diverged: s.Diverged,
		})
	}
	return g
}

var goldenFile = filepath.Join("testdata", "golden_train.json")

// goldenRow is one pinned configuration, run by one or more drivers that
// must all reproduce the same recorded trajectory.
type goldenRow struct {
	name    string
	opts    Options
	drivers []string    // "fit", "chan<n>" (FitDDP) or "tcp<n>" (FitDDPEndpoint)
	vcfg    *vae.Config // nil: testSetup's small model
}

// benchShape is the model the benchmark trains.
var benchShape = vae.Config{Sites: 16, Species: 4, Latent: 6, Hidden: 96, BetaKL: 1}

func goldenRows() []goldenRow {
	return []goldenRow{
		{name: "fit", drivers: []string{"fit"},
			opts: Options{Epochs: 4, BatchSize: 16, LR: 3e-3, Seed: 3}},
		{name: "fit_kl_warmup", drivers: []string{"fit"},
			opts: Options{Epochs: 4, BatchSize: 16, LR: 2e-3, Seed: 5, KLWarmupEpochs: 3}},
		// 1e158 overflows within a step; the guard rolls back and halves
		// the rate until training is finite again.
		{name: "fit_lr1e158", drivers: []string{"fit"},
			opts: Options{Epochs: 3, BatchSize: 16, LR: 1e158, Seed: 3}},
		{name: "ddp2", drivers: []string{"chan2", "tcp2"},
			opts: Options{Epochs: 3, BatchSize: 8, LR: 3e-3, Seed: 8}},
		{name: "ddp3", drivers: []string{"chan3"},
			opts: Options{Epochs: 3, BatchSize: 8, LR: 3e-3, Seed: 8}},
		// The benchmark's model and batch: hidden 96 and latent 6 give the
		// weight gradients 7-, 12- and 65-row shapes that the small model's
		// 24-wide layers never reach.
		{name: "fit_bench_shape", drivers: []string{"fit"},
			opts: Options{Epochs: 2, BatchSize: 32, LR: 2e-3, Seed: 11}, vcfg: &benchShape},
		{name: "ddp2_bench_shape", drivers: []string{"chan2", "tcp2"},
			opts: Options{Epochs: 2, BatchSize: 32, LR: 2e-3, Seed: 11}, vcfg: &benchShape},
	}
}

// runTCP runs FitDDPEndpoint on n replicas joined over a loopback TCP
// world, each initialised from opts.Seed, and returns every replica's
// model (by rank) with rank 0's statistics.
func runTCP(t *testing.T, vcfg vae.Config, ds *workload.Dataset, n int, opts Options) ([]*vae.Model, []EpochStats) {
	t.Helper()
	co, err := transport.NewCoordinator("127.0.0.1:0", n)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	models := make([]*vae.Model, n)
	stats := make([][]EpochStats, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ep, err := transport.Join(context.Background(), co.Addr(), transport.JoinOptions{Timeout: 20 * time.Second})
			if err != nil {
				errs[i] = err
				return
			}
			defer ep.Close()
			m, err := vae.New(vcfg, rng.New(opts.Seed))
			if err != nil {
				errs[i] = err
				return
			}
			models[ep.Rank()] = m
			stats[ep.Rank()], errs[i] = FitDDPEndpoint(context.Background(), m, ep, ds, opts)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("tcp replica %d: %v", i, err)
		}
	}
	return models, stats[0]
}

// TestGoldenTrain replays every row through each of its drivers: all of
// them must reproduce the recorded per-epoch statistics and final weights
// bit for bit, and every TCP replica must hold the same weights.
func TestGoldenTrain(t *testing.T) {
	_, ds, small := testSetup(t)
	run := func(t *testing.T, row goldenRow, driver string) goldenRun {
		vcfg, opts := small, row.opts
		if row.vcfg != nil {
			vcfg = *row.vcfg
		}
		switch {
		case driver == "fit":
			m, err := vae.New(vcfg, rng.New(opts.Seed))
			if err != nil {
				t.Fatal(err)
			}
			stats, err := Fit(m, ds, opts)
			if err != nil {
				t.Fatal(err)
			}
			return goldenOf(m, stats)
		case driver[:4] == "chan":
			n, _ := strconv.Atoi(driver[4:])
			m, stats, err := FitDDP(vcfg, ds, n, opts)
			if err != nil {
				t.Fatal(err)
			}
			return goldenOf(m, stats)
		default:
			n, _ := strconv.Atoi(driver[3:])
			models, stats := runTCP(t, vcfg, ds, n, opts)
			for r, m := range models[1:] {
				if weightsHash(m) != weightsHash(models[0]) {
					t.Errorf("tcp rank %d weights differ from rank 0", r+1)
				}
			}
			return goldenOf(models[0], stats)
		}
	}

	want := map[string]goldenRun{}
	if *updateGolden {
		for _, row := range goldenRows() {
			want[row.name] = run(t, row, row.drivers[0])
		}
		b, err := json.MarshalIndent(want, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("%s: %v", goldenFile, err)
	}

	for _, row := range goldenRows() {
		row := row
		t.Run(row.name, func(t *testing.T) {
			w, ok := want[row.name]
			if !ok {
				t.Fatalf("%s has no row %q", goldenFile, row.name)
			}
			if len(w.Epochs) != row.opts.Epochs {
				t.Fatalf("golden pins %d epochs, want %d", len(w.Epochs), row.opts.Epochs)
			}
			for _, driver := range row.drivers {
				driver := driver
				t.Run(driver, func(t *testing.T) {
					if got := run(t, row, driver); !reflect.DeepEqual(got, w) {
						t.Errorf("trajectory differs from the golden:\n got %+v\nwant %+v", got, w)
					}
				})
			}
		})
	}
}
