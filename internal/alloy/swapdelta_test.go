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
