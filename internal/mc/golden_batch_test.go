package mc_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"deepthermo/internal/infer"
	"deepthermo/internal/lattice"
	"deepthermo/internal/mc"
	"deepthermo/internal/testfix"
	"deepthermo/internal/vae"
)

// The batch golden traces pin the shared-weight inference engine bit for
// bit against the sequential per-walker-model path: the fixture's 8-walker
// population is recorded running sequentially (each walker on its own copy
// of the shared weights), and the engine runs — at every tested group size,
// each walker on its own goroutine with its own engine client — must
// reproduce every walker's accept/reject stream and per-step energies
// exactly. Regenerate only when a change is *meant* to alter the chains:
//
//	go test ./internal/mc/ -run TestGoldenBatchTrace -update-batch-golden
var updateBatchGolden = flag.Bool("update-batch-golden", false, "rewrite batched golden traces")

const (
	batchWalkers    = 8
	batchRounds     = 8
	batchRoundSteps = 25 // rounds × steps = 200, matching the PR 5 traces
	batchTotalSteps = batchRounds * batchRoundSteps
)

func batchGoldenPath(name string) string {
	return filepath.Join("testdata", "dl_batch_"+name+".golden")
}

// countingModel is a sequential backend that counts the forwards it
// serves, as an engine client does, so the engine runs can be held to the
// sequential path's forward count.
type countingModel struct {
	*vae.Model
	calls int64
}

func (m *countingModel) EncodeInto(cfg lattice.Config, cond float64, mu, logvar []float64) ([]float64, []float64) {
	m.calls++
	return m.Model.EncodeInto(cfg, cond, mu, logvar)
}

func (m *countingModel) DecodeProbsInto(z []float64, cond float64, dst [][]float64) [][]float64 {
	m.calls++
	return m.Model.DecodeProbsInto(z, cond, dst)
}

func (m *countingModel) EncodeSampleDecode(cfg lattice.Config, cond float64, eps, mu, lv, z []float64, probs [][]float64) {
	m.calls++
	m.Model.EncodeSampleDecode(cfg, cond, eps, mu, lv, z, probs)
}

// runSequentialWalker records the reference trace: the spec's walker on a
// private model holding the fixture's shared weights. It also returns the
// number of forwards the walker asked of its model.
func runSequentialWalker(f testfix.Fixture, spec testfix.WalkerSpec) ([]testfix.TraceStep, int64) {
	model := &countingModel{Model: f.NewModel()}
	s := f.NewSampler(spec, model)
	beta := spec.Beta()
	trace := make([]testfix.TraceStep, batchTotalSteps)
	for i := range trace {
		acc := s.StepCanonical(beta)
		trace[i] = testfix.TraceStep{Accepted: acc, E: s.E}
	}
	return trace, model.calls
}

// runBatchedGroup drives a group of walkers concurrently through one shared
// engine, one goroutine per walker per round as the REWL sweep phase
// schedules them, and returns each walker's trace.
func runBatchedGroup(t *testing.T, f testfix.Fixture, specs []testfix.WalkerSpec) ([][]testfix.TraceStep, infer.Stats) {
	t.Helper()
	eng := infer.NewEngine(f.NewModel())
	samplers := make([]*mc.Sampler, len(specs))
	for i, spec := range specs {
		samplers[i] = f.NewSampler(spec, eng.NewClient())
	}
	traces := make([][]testfix.TraceStep, len(specs))
	for i := range traces {
		traces[i] = make([]testfix.TraceStep, 0, batchTotalSteps)
	}
	for round := 0; round < batchRounds; round++ {
		var wg sync.WaitGroup
		for i := range samplers {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				s := samplers[i]
				beta := specs[i].Beta()
				for st := 0; st < batchRoundSteps; st++ {
					acc := s.StepCanonical(beta)
					traces[i] = append(traces[i], testfix.TraceStep{Accepted: acc, E: s.E})
				}
			}(i)
		}
		wg.Wait()
	}
	return traces, eng.Stats()
}

// TestGoldenBatchTrace proves the engine is bit-identical to the
// sequential path for groups of 1, 2, 4, and the full walker count sharing
// one engine: every walker's 200-step trace must match its recorded
// sequential golden in every group (group membership cannot affect any
// walker's chain), and the engine must serve exactly the forwards the
// sequential walkers asked of their own models.
func TestGoldenBatchTrace(t *testing.T) {
	f := testfix.Small()
	specs := testfix.Walkers(batchWalkers)

	if *updateBatchGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		for _, spec := range specs {
			trace, _ := runSequentialWalker(f, spec)
			path := batchGoldenPath(spec.Name)
			if err := os.WriteFile(path, []byte(testfix.FormatTrace(trace)), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}

	golden := make([][]testfix.TraceStep, len(specs))
	for i, spec := range specs {
		data, err := os.ReadFile(batchGoldenPath(spec.Name))
		if err != nil {
			t.Fatalf("missing batch golden (run with -update-batch-golden to record): %v", err)
		}
		golden[i], err = testfix.ParseTrace(string(data))
		if err != nil {
			t.Fatal(err)
		}
	}

	// The sequential path itself must still match its recording (guards the
	// goldens against silent staleness before they gate the batched runs).
	// The sequential runs also count the forwards each walker asks of its
	// model; every engine group below must serve exactly that many.
	seq := make([][]testfix.TraceStep, len(specs))
	forwards := make([]int64, len(specs))
	for i, spec := range specs {
		seq[i], forwards[i] = runSequentialWalker(f, spec)
	}
	t.Run("sequential", func(t *testing.T) {
		for i, spec := range specs {
			if d := testfix.DiffTraces(seq[i], golden[i]); d != "" {
				t.Fatalf("walker %s: sequential path diverged from golden: %s", spec.Name, d)
			}
		}
	})

	for _, b := range []int{1, 2, 4, batchWalkers} {
		b := b
		t.Run(fmt.Sprintf("batch%d", b), func(t *testing.T) {
			for lo := 0; lo < len(specs); lo += b {
				hi := lo + b
				if hi > len(specs) {
					hi = len(specs)
				}
				traces, stats := runBatchedGroup(t, f, specs[lo:hi])
				for i, trace := range traces {
					spec := specs[lo+i]
					if d := testfix.DiffTraces(trace, golden[lo+i]); d != "" {
						t.Fatalf("walker %s at batch size %d: batched trace diverged: %s", spec.Name, b, d)
					}
				}
				var want int64
				for _, n := range forwards[lo:hi] {
					want += n
				}
				if stats.Requests == 0 || stats.Requests != want {
					t.Fatalf("batch group [%d,%d): engine served %d forwards, the sequential walkers made %d", lo, hi, stats.Requests, want)
				}
			}
		})
	}
}

// servingSteps is the number of canonical steps every walker takes per
// round of the serving-shape workload, all at 1200 K.
const servingSteps = 8

var servingBeta = testfix.WalkerSpec{TKelvin: 1200}.Beta()

// servingSamplers builds width DL walk-posterior walkers on the deployed
// model shape (Latent 6, Hidden 96) over the 54-site NbMoTaW quota, each
// warmed up by one step. Batched walkers are clients of one shared engine;
// the others each hold a private copy of the same weights.
func servingSamplers(width int, batched bool) []*mc.Sampler {
	f := testfix.Small()
	f.VAE.Latent, f.VAE.Hidden, f.ModelSeed = 6, 96, 101
	eng := infer.NewEngine(f.NewModel())
	samplers := make([]*mc.Sampler, width)
	for i := range samplers {
		spec := testfix.WalkerSpec{TKelvin: 1200, ChainSeed: uint64(202 + i), Mode: mc.WalkPosterior}
		var backend mc.Inferencer = f.NewModel()
		if batched {
			backend = eng.NewClient()
		}
		samplers[i] = f.NewSampler(spec, backend)
		samplers[i].StepCanonical(servingBeta)
	}
	return samplers
}

// engineRound runs one round: every walker takes servingSteps steps in its
// own goroutine, as the REWL sweep phase schedules them.
func engineRound(samplers []*mc.Sampler) {
	var wg sync.WaitGroup
	for _, s := range samplers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for st := 0; st < servingSteps; st++ {
				s.StepCanonical(servingBeta)
			}
		}()
	}
	wg.Wait()
}

// TestEngineRoundAllocs is the engine path's allocation budget: at 16
// walkers, a round may cost at most 2 allocations per walker-step. A
// client's own steps allocate nothing (TestGlobalProposeZeroAllocs); what
// this measures is the harness's goroutines, one per walker per round.
func TestEngineRoundAllocs(t *testing.T) {
	const width = 16
	samplers := servingSamplers(width, true)
	allocs := testing.AllocsPerRun(20, func() { engineRound(samplers) })
	perStep := allocs / (width * servingSteps)
	t.Logf("%.0f allocations per round, %.3f per walker-step", allocs, perStep)
	if perStep > 2 {
		t.Fatalf("engine path: %.3f allocations per walker-step, budget 2", perStep)
	}
}

// BenchmarkEngServingW8 and BenchmarkSeqServingW8 time one round of 8
// serving-shape walkers through the shared engine and on private weight
// copies, for pprof:
//
//	go test -run '^$' -bench ServingW8 -cpuprofile eng.prof ./internal/mc/
func BenchmarkEngServingW8(b *testing.B) {
	samplers := servingSamplers(8, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engineRound(samplers)
	}
}

func BenchmarkSeqServingW8(b *testing.B) {
	samplers := servingSamplers(8, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for st := 0; st < servingSteps; st++ {
			for _, s := range samplers {
				s.StepCanonical(servingBeta)
			}
		}
	}
}
