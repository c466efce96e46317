package alloy_test

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"deepthermo/internal/alloy"
	"deepthermo/internal/lattice"
	"deepthermo/internal/mc"
	"deepthermo/internal/rng"
)

var presets = []struct {
	name  string
	build func(*lattice.Lattice) *alloy.Model
}{
	{"NbMoTaW", alloy.NbMoTaW},
	{"MoNbTaVW", alloy.MoNbTaVW},
}

// epiLattices are the supercells the exactness tests run on: BCC 2×2×2
// (where a shell-2 image of a site repeats in a neighbour row), 3×3×3 and
// 4×4×4, and simple cubic 2×2×2 (where both shells repeat) and 3×3×3.
var epiLattices = []struct {
	name string
	lat  *lattice.Lattice
}{
	{"BCC2", lattice.MustNew(lattice.BCC, 2, 2, 2)},
	{"BCC3", lattice.MustNew(lattice.BCC, 3, 3, 3)},
	{"BCC4", lattice.MustNew(lattice.BCC, 4, 4, 4)},
	{"SC2", lattice.MustNew(lattice.SC, 2, 2, 2)},
	{"SC3", lattice.MustNew(lattice.SC, 3, 3, 3)},
}

// randomEPI draws a symmetric EPI with k species on every shell of lat,
// entries uniform in ±scale; about one in eight is 0 or −0. It returns the
// model and the matrices it was built from.
func randomEPI(t testing.TB, lat *lattice.Lattice, k int, scale float64, src *rng.Source) (*alloy.Model, [][][]float64) {
	t.Helper()
	vs := make([][][]float64, lat.NumShells())
	for s := range vs {
		vs[s] = make([][]float64, k)
		for a := range vs[s] {
			vs[s][a] = make([]float64, k)
		}
		for a := 0; a < k; a++ {
			for b := a; b < k; b++ {
				v := scale * (2*src.Float64() - 1)
				switch src.Intn(16) {
				case 0:
					v = 0
				case 1:
					v = math.Copysign(0, -1)
				}
				vs[s][a][b], vs[s][b][a] = v, v
			}
		}
	}
	m, err := alloy.NewEPI(lat, k, vs, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m, vs
}

// checkQuantum holds a model to the quantum's contract: q is a power of
// two, every interaction is a whole multiple of q within q/2 of its input
// (when inputs is given), and B = Σ_s N·z_s·max|V_s| ≤ 2^53·q.
func checkQuantum(t *testing.T, m *alloy.Model, inputs [][][]float64) {
	t.Helper()
	q := m.Quantum()
	if frac, _ := math.Frexp(q); frac != 0.5 || q <= 0 {
		t.Fatalf("quantum %g is not a power of two", q)
	}
	lat, k := m.Lattice(), m.NumSpecies()
	b := 0.0
	for s := 0; s < m.NumShells(); s++ {
		vmax := 0.0
		for a := 0; a < k; a++ {
			for c := 0; c < k; c++ {
				v := m.Interaction(s, a, c)
				if v/q != math.Trunc(v/q) {
					t.Fatalf("shell %d V[%d][%d] = %v is not a multiple of q = %g", s, a, c, v, q)
				}
				if inputs != nil && math.Abs(v-inputs[s][a][c]) > q/2 {
					t.Fatalf("shell %d V[%d][%d] = %v moved %g from its input %v, more than q/2 = %g",
						s, a, c, v, v-inputs[s][a][c], inputs[s][a][c], q/2)
				}
				vmax = math.Max(vmax, math.Abs(v))
			}
		}
		b += float64(lat.NumSites()*lat.ShellSize(s)) * vmax
	}
	if b > math.Ldexp(q, 53) {
		t.Fatalf("B = %g exceeds 2^53·q = %g", b, math.Ldexp(q, 53))
	}
}

// TestEPIQuantum checks the quantum's contract on both presets, whose
// inputs are whole tenths of a meV, and on random EPIs at three magnitudes
// over every test lattice.
func TestEPIQuantum(t *testing.T) {
	for _, l := range epiLattices {
		if l.lat.Structure() != lattice.BCC {
			continue
		}
		for _, p := range presets {
			t.Run(l.name+"/"+p.name, func(t *testing.T) {
				m := p.build(l.lat)
				k := m.NumSpecies()
				inputs := make([][][]float64, m.NumShells())
				for s := range inputs {
					inputs[s] = make([][]float64, k)
					for a := range inputs[s] {
						inputs[s][a] = make([]float64, k)
						for c := range inputs[s][a] {
							inputs[s][a][c] = math.Round(m.Interaction(s, a, c)*1e4) / 1e4
						}
					}
				}
				checkQuantum(t, m, inputs)
			})
		}
	}
	src := rng.New(77)
	for _, l := range epiLattices {
		for _, scale := range []float64{1e-3, 0.05, 7} {
			for k := 2; k <= 5; k++ {
				t.Run(fmt.Sprintf("%s/random/k%d/scale%g", l.name, k, scale), func(t *testing.T) {
					m, vs := randomEPI(t, l.lat, k, scale, src)
					checkQuantum(t, m, vs)
				})
			}
		}
	}
}

// randomConfig fills every site with a uniformly drawn species, so pairs of
// every species combination (and same-species pairs) occur.
func randomConfig(n, k int, src *rng.Source) lattice.Config {
	cfg := make(lattice.Config, n)
	for i := range cfg {
		cfg[i] = lattice.Species(src.Intn(k))
	}
	return cfg
}

// TestSwapDeltaEReferenceLattices holds the one-pass SwapDeltaE to the bits
// of the mutate-and-sum reference over 1.02·10⁶ pairs: both presets on BCC
// 2×2×2 (where a shell-2 image of a site repeats in a neighbour row), 3×3×3
// and 4×4×4. A sixteenth of the pairs have i == j and a quarter are
// neighbours; the configuration walks by applying every 64th swap.
func TestSwapDeltaEReferenceLattices(t *testing.T) {
	const pairsPerCase = 170_000
	for _, L := range []int{2, 3, 4} {
		lat := lattice.MustNew(lattice.BCC, L, L, L)
		for _, p := range presets {
			t.Run(fmt.Sprintf("BCC%d/%s", L, p.name), func(t *testing.T) {
				m := p.build(lat)
				n := lat.NumSites()
				src := rng.New(uint64(100*L + m.NumSpecies()))
				cfg := randomConfig(n, m.NumSpecies(), src)
				var same, adjacent, self int
				for c := 0; c < pairsPerCase; c++ {
					i, j := src.Intn(n), src.Intn(n)
					switch r := src.Intn(16); {
					case r == 0:
						j = i
					case r <= 4:
						nbs := lat.AllNeighbors(i)
						j = int(nbs[src.Intn(len(nbs))])
						adjacent++
					}
					if i == j {
						self++
					} else if cfg[i] == cfg[j] {
						same++
					}
					want := alloy.RefSwapDeltaE(m, cfg, i, j)
					got := m.SwapDeltaE(cfg, i, j)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("pair %d (%d,%d) species (%d,%d): SwapDeltaE %v (%#x), reference %v (%#x)",
							c, i, j, cfg[i], cfg[j], got, math.Float64bits(got), want, math.Float64bits(want))
					}
					if c%64 == 0 {
						cfg[i], cfg[j] = cfg[j], cfg[i]
					}
				}
				if same == 0 || adjacent == 0 || self == 0 {
					t.Fatalf("coverage: %d same-species, %d adjacent, %d i == j pairs", same, adjacent, self)
				}
			})
		}
	}
}

// TestSwapDeltaEExact holds SwapDeltaE to the exactness contract: on both
// presets over BCC 2×2×2 to 4×4×4 and on random EPIs (2 to 5 species,
// three magnitudes) over every test lattice, it equals the mutate-and-sum
// reference and Energy(after) − Energy(before) bit for bit. An eighth of
// the pairs have i == j and a quarter are neighbours; the configuration
// walks by applying every eighth swap.
func TestSwapDeltaEExact(t *testing.T) {
	const pairsPerCase = 3000
	check := func(t *testing.T, m *alloy.Model, src *rng.Source) {
		lat := m.Lattice()
		n := lat.NumSites()
		cfg := randomConfig(n, m.NumSpecies(), src)
		var same, adjacent, self int
		for c := 0; c < pairsPerCase; c++ {
			i, j := src.Intn(n), src.Intn(n)
			switch r := src.Intn(8); {
			case r == 0:
				j = i
			case r <= 2:
				nbs := lat.AllNeighbors(i)
				j = int(nbs[src.Intn(len(nbs))])
				adjacent++
			}
			if i == j {
				self++
			} else if cfg[i] == cfg[j] {
				same++
			}
			got := m.SwapDeltaE(cfg, i, j)
			ref := alloy.RefSwapDeltaE(m, cfg, i, j)
			before := m.Energy(cfg)
			cfg[i], cfg[j] = cfg[j], cfg[i]
			diff := m.Energy(cfg) - before
			if c%8 != 0 {
				cfg[i], cfg[j] = cfg[j], cfg[i]
			}
			if math.Float64bits(got) != math.Float64bits(ref) || math.Float64bits(got) != math.Float64bits(diff) {
				t.Fatalf("pair %d (%d,%d): SwapDeltaE %v (%#x), reference %v (%#x), energy difference %v (%#x)",
					c, i, j, got, math.Float64bits(got), ref, math.Float64bits(ref), diff, math.Float64bits(diff))
			}
		}
		if same == 0 || adjacent == 0 || self == 0 {
			t.Fatalf("coverage: %d same-species, %d adjacent, %d i == j pairs", same, adjacent, self)
		}
	}
	src := rng.New(91)
	for _, l := range epiLattices {
		if l.lat.Structure() == lattice.BCC {
			for _, p := range presets {
				t.Run(l.name+"/"+p.name, func(t *testing.T) { check(t, p.build(l.lat), src) })
			}
		}
		for _, scale := range []float64{1e-3, 0.05, 7} {
			for k := 2; k <= 5; k++ {
				t.Run(fmt.Sprintf("%s/random/k%d/scale%g", l.name, k, scale), func(t *testing.T) {
					m, _ := randomEPI(t, l.lat, k, scale, src)
					check(t, m, src)
				})
			}
		}
	}
}

// TestSwapDeltaEReferenceKSwap replays KSwapProposal's moves through the
// reference: the K swaps' ΔE, each on the partially swapped configuration,
// must sum to the proposal's ΔE bit for bit.
func TestSwapDeltaEReferenceKSwap(t *testing.T) {
	for _, L := range []int{2, 3} {
		lat := lattice.MustNew(lattice.BCC, L, L, L)
		for _, p := range presets {
			for _, K := range []int{1, 3, 8} {
				t.Run(fmt.Sprintf("BCC%d/%s/K%d", L, p.name, K), func(t *testing.T) {
					m := p.build(lat)
					n := lat.NumSites()
					src := rng.New(uint64(7*L + K))
					cfg := lattice.EquiatomicConfig(lat, m.NumSpecies(), src)
					prop := mc.NewKSwapProposal(m, K)
					replay := rng.New(0)
					for move := 0; move < 2000; move++ {
						replay.Restore(src.State())
						got, _ := prop.Propose(cfg, 0, src)
						prop.Reject(cfg)

						after := cfg.Clone()
						var want float64
						for s := 0; s < K; s++ {
							i, j := replay.Intn(n), replay.Intn(n)
							for try := 0; j == i && try < 8; try++ {
								j = replay.Intn(n)
							}
							want += alloy.RefSwapDeltaE(m, after, i, j)
							after[i], after[j] = after[j], after[i]
						}
						if replay.State() != src.State() {
							t.Fatal("replay drew a different number of sites than KSwapProposal")
						}
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("move %d: KSwapProposal ΔE %v, reference %v", move, got, want)
						}
						if move%2 == 0 {
							copy(cfg, after)
						}
					}
				})
			}
		}
	}
}

// TestSwapDeltaEConcurrentReaders runs SwapDeltaE from two goroutines on
// one configuration. SwapDeltaE only reads, so -race stays quiet and both
// goroutines see the values a single reader computed.
func TestSwapDeltaEConcurrentReaders(t *testing.T) {
	lat := lattice.MustNew(lattice.BCC, 3, 3, 3)
	m := alloy.NbMoTaW(lat)
	n := lat.NumSites()
	src := rng.New(41)
	cfg := lattice.EquiatomicConfig(lat, m.NumSpecies(), src)
	type pair struct{ i, j int }
	pairs := make([]pair, 4096)
	want := make([]float64, len(pairs))
	for c := range pairs {
		pairs[c] = pair{src.Intn(n), src.Intn(n)}
		want[c] = m.SwapDeltaE(cfg, pairs[c].i, pairs[c].j)
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				for c, p := range pairs {
					if got := m.SwapDeltaE(cfg, p.i, p.j); got != want[c] {
						errs[g] = fmt.Errorf("goroutine %d pair %d: ΔE %v, want %v", g, c, got, want[c])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}
