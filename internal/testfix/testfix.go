// Package testfix provides the deterministic multi-walker trace fixture
// shared by the batched-inference test suites in internal/mc,
// internal/rewl, and internal/server. One fixture — a pinned 54-site BCC
// NbMoTaW system with a fixed-seed VAE — defines the walker population,
// seeds, and trace format, so the packages all gate the same identity
// claim: a walker driven through the batched engine produces the same
// decision/energy trace, bit for bit, as the same walker running the
// sequential per-walker-model path.
package testfix

import (
	"fmt"
	"strconv"
	"strings"

	"deepthermo/internal/alloy"
	"deepthermo/internal/lattice"
	"deepthermo/internal/mc"
	"deepthermo/internal/rng"
	"deepthermo/internal/vae"
)

// Fixture is the pinned small test system: the same 3×3×3 BCC NbMoTaW
// lattice and VAE shape as the PR 5 golden traces.
type Fixture struct {
	Lat   *lattice.Lattice
	Ham   *alloy.Model
	Quota []int
	VAE   vae.Config
	// ModelSeed seeds the shared proposal-model weights: every walker in
	// the fixture (sequential or batched) runs on exactly these weights.
	ModelSeed uint64
}

// Small returns the pinned fixture. Tests must not mutate the returned
// Hamiltonian or quota.
func Small() Fixture {
	lat := lattice.MustNew(lattice.BCC, 3, 3, 3)
	return Fixture{
		Lat:       lat,
		Ham:       alloy.NbMoTaW(lat),
		Quota:     []int{14, 14, 13, 13},
		VAE:       vae.Config{Sites: 54, Species: 4, Latent: 4, Hidden: 16, BetaKL: 1},
		ModelSeed: 901,
	}
}

// NewModel returns a fresh model carrying the fixture's shared weights
// (same seed ⇒ bit-identical weights on every call).
func (f Fixture) NewModel() *vae.Model {
	m, err := vae.New(f.VAE, rng.New(f.ModelSeed))
	if err != nil {
		panic(err)
	}
	return m
}

// WalkerSpec pins one walker of the fixture population: its latent-draw
// mode, temperature, and private chain seed. The shared model weights come
// from the Fixture.
type WalkerSpec struct {
	Name      string
	Mode      mc.GlobalMode
	TKelvin   float64 // sampling temperature, which the proposal conditions on
	ChainSeed uint64
}

// Walkers returns the deterministic population of n walker specs, mixing
// latent modes so a batch takes both Propose branches — fused
// walk-posterior forwards and prior draws — and per-request condition
// scalars differ across the batch. Walker i samples at 1100 + 100·(i mod 4)
// K from chain seed 1000 + 7i; indices i ≡ 1 (mod 3) are not part of the
// population, so the walkers keep the names and seeds their recorded traces
// were made with.
func Walkers(n int) []WalkerSpec {
	specs := make([]WalkerSpec, 0, n)
	for i := 0; len(specs) < n; i++ {
		if i%3 == 1 {
			continue
		}
		s := WalkerSpec{
			Mode:      mc.WalkPosterior,
			TKelvin:   1100 + 100*float64(i%4),
			ChainSeed: 1000 + uint64(i)*7,
		}
		if i%3 == 2 {
			s.Mode = mc.JumpPrior
		}
		s.Name = fmt.Sprintf("w%d_%s_t%d", i, s.Mode, int(s.TKelvin))
		specs = append(specs, s)
	}
	return specs
}

// NewSampler builds the spec's walker over the given inference backend
// (a *vae.Model for the sequential path, an *infer.Client for the
// shared-engine path). The walker's configuration, RNG stream, and proposal state depend
// only on the spec, so two backends that return bit-identical inference
// results yield bit-identical walkers.
func (f Fixture) NewSampler(spec WalkerSpec, backend mc.Inferencer) *mc.Sampler {
	gp := mc.NewGlobalProposalWith(backend, f.Ham, f.Quota, mc.CondForT(spec.TKelvin))
	gp.SetMode(spec.Mode)
	src := rng.New(spec.ChainSeed)
	return mc.NewSampler(f.Ham, lattice.QuotaConfig(f.Quota, src), gp, src)
}

// Beta returns the inverse temperature the spec's walker samples at.
func (s WalkerSpec) Beta() float64 { return 1 / (alloy.KB * s.TKelvin) }

// TraceStep is one recorded Metropolis decision of a fixture walker.
type TraceStep struct {
	Accepted bool
	E        float64
}

// FormatTrace renders a trace in the golden-file format: one "<0|1> <hexE>"
// line per step, with energies as exact hex floats so comparisons are
// bit-level.
func FormatTrace(trace []TraceStep) string {
	var sb strings.Builder
	for _, st := range trace {
		a := 0
		if st.Accepted {
			a = 1
		}
		fmt.Fprintf(&sb, "%d %x\n", a, st.E)
	}
	return sb.String()
}

// ParseTrace parses FormatTrace output.
func ParseTrace(s string) ([]TraceStep, error) {
	var trace []TraceStep
	for ln, line := range strings.Split(strings.TrimRight(s, "\n"), "\n") {
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 || (fields[0] != "0" && fields[0] != "1") {
			return nil, fmt.Errorf("testfix: malformed trace line %d: %q", ln+1, line)
		}
		e, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return nil, fmt.Errorf("testfix: bad energy on line %d: %v", ln+1, err)
		}
		trace = append(trace, TraceStep{Accepted: fields[0] == "1", E: e})
	}
	return trace, nil
}

// DiffTraces returns a description of the first bit-level divergence
// between two traces, or "" if they are identical.
func DiffTraces(got, want []TraceStep) string {
	if len(got) != len(want) {
		return fmt.Sprintf("length %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Accepted != want[i].Accepted {
			return fmt.Sprintf("step %d: accepted=%v vs %v", i, got[i].Accepted, want[i].Accepted)
		}
		if got[i].E != want[i].E {
			return fmt.Sprintf("step %d: E=%x vs %x", i, got[i].E, want[i].E)
		}
	}
	return ""
}
