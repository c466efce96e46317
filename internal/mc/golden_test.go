package mc

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"deepthermo/internal/alloy"
	"deepthermo/internal/infer"
	"deepthermo/internal/lattice"
	"deepthermo/internal/rng"
	"deepthermo/internal/vae"
)

// The golden traces below pin the DL-proposal chain bit-for-bit: the same
// seed must yield the same accept/reject stream and the same per-step
// energies (recorded as exact hex floats) before and after any hot-path
// refactor. They were recorded against the pre-scratch-arena implementation
// (PR 5) and have been stable since; regenerate only when a change is
// *meant* to alter the chain (and say so in the commit):
//
//	go test ./internal/mc/ -run TestGoldenDLTrace -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite golden DL-proposal traces")

const goldenSteps = 200

// goldenChain describes one pinned chain variant. The three variants cover
// every branch of GlobalProposal.Propose: the fused forward/reverse path
// (fixed condition), the second-decode path (state-dependent condition),
// and the prior-latent path (no encoder term).
type goldenChain struct {
	name      string
	mode      GlobalMode
	condFunc  bool
	modelSeed uint64
	chainSeed uint64
}

var goldenChains = []goldenChain{
	{name: "walk_fixed_cond", mode: WalkPosterior, condFunc: false, modelSeed: 101, chainSeed: 202},
	{name: "walk_energy_cond", mode: WalkPosterior, condFunc: true, modelSeed: 103, chainSeed: 204},
	{name: "jump_fixed_cond", mode: JumpPrior, condFunc: false, modelSeed: 105, chainSeed: 206},
}

// traceStep is one recorded Metropolis decision.
type traceStep struct {
	accepted bool
	e        float64
}

// runGoldenChain replays a pinned 54-site NbMoTaW DL-proposal chain and
// returns its decision/energy trace.
func runGoldenChain(t testing.TB, gc goldenChain) []traceStep {
	t.Helper()
	lat := lattice.MustNew(lattice.BCC, 3, 3, 3)
	m := alloy.NbMoTaW(lat)
	quota := []int{14, 14, 13, 13}
	vcfg := vae.Config{Sites: 54, Species: 4, Latent: 4, Hidden: 16, BetaKL: 1}
	model, err := vae.New(vcfg, rng.New(gc.modelSeed))
	if err != nil {
		t.Fatal(err)
	}
	prop := NewGlobalProposal(model, m, quota, CondForT(1200))
	prop.SetMode(gc.mode)
	if gc.condFunc {
		prop.SetConditionFunc(func(e float64) float64 { return CondForEnergy(e, 54) })
	}
	src := rng.New(gc.chainSeed)
	cfg := make(lattice.Config, 0, 54)
	for sp, q := range quota {
		for i := 0; i < q; i++ {
			cfg = append(cfg, lattice.Species(sp))
		}
	}
	src.Shuffle(len(cfg), func(i, j int) { cfg[i], cfg[j] = cfg[j], cfg[i] })
	s := NewSampler(m, cfg, prop, src)
	beta := 1 / (alloy.KB * 1200)
	trace := make([]traceStep, goldenSteps)
	for i := range trace {
		acc := s.StepCanonical(beta)
		trace[i] = traceStep{accepted: acc, e: s.E}
	}
	return trace
}

func goldenPath(name string) string {
	return filepath.Join("testdata", "dl_trace_"+name+".golden")
}

func writeGolden(t *testing.T, path string, trace []traceStep) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, st := range trace {
		a := 0
		if st.accepted {
			a = 1
		}
		fmt.Fprintf(&sb, "%d %x\n", a, st.e)
	}
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

func readGolden(t *testing.T, path string) []traceStep {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("missing golden trace %s (run with -update-golden to record): %v", path, err)
	}
	defer f.Close()
	var trace []traceStep
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			t.Fatalf("%s: malformed line %q", path, sc.Text())
		}
		e, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("%s: bad energy %q: %v", path, fields[1], err)
		}
		trace = append(trace, traceStep{accepted: fields[0] == "1", e: e})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return trace
}

// TestGoldenDLTrace proves the DL-proposal chain is bit-identical across
// the zero-allocation refactor: same seed, same accept/reject stream, same
// energies to the last bit.
func TestGoldenDLTrace(t *testing.T) {
	for _, gc := range goldenChains {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			trace := runGoldenChain(t, gc)
			path := goldenPath(gc.name)
			if *updateGolden {
				writeGolden(t, path, trace)
				return
			}
			want := readGolden(t, path)
			if len(want) != len(trace) {
				t.Fatalf("golden trace has %d steps, run produced %d", len(want), len(trace))
			}
			for i, st := range trace {
				if st.accepted != want[i].accepted {
					t.Fatalf("step %d: accepted=%v, golden %v (chain diverged)", i, st.accepted, want[i].accepted)
				}
				if st.e != want[i].e {
					t.Fatalf("step %d: E=%x, golden %x (chain diverged)", i, st.e, want[i].e)
				}
			}
		})
	}
}

// TestResyncDriftWithReusedBuffers drives a DL-proposal chain for 1e5 steps
// on a small system and checks the incrementally tracked energy never
// drifts from a full recomputation by more than 1e-9 — the scratch-buffer
// reuse must not leak state between moves.
func TestResyncDriftWithReusedBuffers(t *testing.T) {
	if testing.Short() {
		t.Skip("1e5-step drift run skipped in -short mode")
	}
	lat := lattice.MustNew(lattice.SC, 2, 2, 2)
	m := alloy.BinaryOrdering(lat, 0.05)
	vcfg := vae.Config{Sites: 8, Species: 2, Latent: 2, Hidden: 8, BetaKL: 1}
	model, err := vae.New(vcfg, rng.New(31))
	if err != nil {
		t.Fatal(err)
	}
	prop := NewGlobalProposal(model, m, []int{4, 4}, CondForT(1500))
	src := rng.New(32)
	cfg := lattice.EquiatomicConfig(lat, 2, src)
	s := NewSampler(m, cfg, prop, src)
	beta := 1 / (alloy.KB * 1500)
	const steps = 100_000
	for i := 0; i < steps; i++ {
		s.StepCanonical(beta)
	}
	if drift := math.Abs(s.ResyncEnergy()); drift > 1e-9 {
		t.Fatalf("incremental energy drifted by %g over %d steps (> 1e-9)", drift, steps)
	}
}

// TestGlobalProposeZeroAllocs is the allocation budget of the DL proposal
// as a plain test: once the warm-up move has sized the lazily allocated
// scratch, a full Metropolis step through GlobalProposal.Propose —
// encode, decode, constrained sample, reverse density — allocates
// nothing, in either latent mode, whether the proposal runs its forwards
// on a model of its own or through a client of a shared-weight engine.
// The tensor kernels are on that path, so this also holds their arguments
// to the stack.
func TestGlobalProposeZeroAllocs(t *testing.T) {
	beta := 1 / (alloy.KB * 1200)
	backends := []struct {
		name string
		of   func(*vae.Model) Inferencer
	}{
		{"model", func(m *vae.Model) Inferencer { return m }},
		{"engine client", func(m *vae.Model) Inferencer { return infer.NewEngine(m).NewClient() }},
	}
	for _, be := range backends {
		for _, mode := range []GlobalMode{WalkPosterior, JumpPrior} {
			s := benchGlobalSamplerOn(t, mode, be.of)
			s.StepCanonical(beta)
			if allocs := testing.AllocsPerRun(200, func() { s.StepCanonical(beta) }); allocs != 0 {
				t.Errorf("%s, mode %v: %.2f allocations per steady-state DL step, want 0", be.name, mode, allocs)
			}
		}
	}
}
