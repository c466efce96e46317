package alloy

import (
	"math"
	"testing"
	"testing/quick"

	"deepthermo/internal/lattice"
	"deepthermo/internal/rng"
)

func testModel(t *testing.T) *Model {
	t.Helper()
	lat := lattice.MustNew(lattice.BCC, 3, 3, 3)
	return NbMoTaW(lat)
}

func TestNewEPIValidation(t *testing.T) {
	lat := lattice.MustNew(lattice.SC, 2, 2, 2)
	sym := [][]float64{{0, 1}, {1, 0}}
	asym := [][]float64{{0, 1}, {2, 0}}
	if _, err := NewEPI(lat, 2, [][][]float64{asym}, nil); err == nil {
		t.Error("asymmetric matrix accepted")
	}
	if _, err := NewEPI(lat, 2, [][][]float64{sym, sym, sym}, nil); err == nil {
		t.Error("more shells than the lattice has accepted")
	}
	if _, err := NewEPI(lat, 1, [][][]float64{{{0}}}, nil); err == nil {
		t.Error("single species accepted")
	}
	if _, err := NewEPI(lat, 2, [][][]float64{sym}, []string{"A"}); err == nil {
		t.Error("wrong name count accepted")
	}
	if _, err := NewEPI(lat, 2, [][][]float64{{{0, 1}}}, nil); err == nil {
		t.Error("non-square matrix accepted")
	}
	for _, v := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := NewEPI(lat, 2, [][][]float64{{{0, v}, {v, 0}}}, nil); err == nil {
			t.Errorf("interaction %g accepted", v)
		}
	}
	if _, err := NewEPI(lat, 2, [][][]float64{{{0, 1e307}, {1e307, 0}}}, nil); err == nil {
		t.Error("interactions whose energies overflow accepted")
	}
	m, err := NewEPI(lat, 2, [][][]float64{sym}, []string{"A", "B"})
	if err != nil {
		t.Fatal(err)
	}
	if m.SpeciesName(0) != "A" || m.SpeciesName(1) != "B" {
		t.Error("species names wrong")
	}
	if m.Interaction(0, 0, 1) != 1 {
		t.Error("interaction lookup wrong")
	}
}

func TestSpeciesNameFallback(t *testing.T) {
	m := testModel(t)
	if m.SpeciesName(0) != "Nb" || m.SpeciesName(3) != "W" {
		t.Error("NbMoTaW names wrong")
	}
	lat := lattice.MustNew(lattice.SC, 2, 2, 2)
	b := BinaryOrdering(lat, 0.1)
	if b.SpeciesName(5) != "X5" {
		t.Errorf("fallback name = %q", b.SpeciesName(5))
	}
}

// TestEnergyTranslationInvariance: energy must be invariant under
// relabeling sites by a lattice translation; spot-check with the uniform
// configuration and its trivial invariance, plus species permutation of a
// symmetric model.
func TestEnergyUniformConfig(t *testing.T) {
	m := testModel(t)
	lat := m.Lattice()
	// All-Nb configuration: energy = Σ_shells bonds·V[Nb][Nb] = 0 for the
	// preset (zero diagonal).
	cfg := make(lattice.Config, lat.NumSites())
	if e := m.Energy(cfg); math.Abs(e) > 1e-12 {
		t.Errorf("uniform Nb energy = %g, want 0", e)
	}
}

func TestEnergyPairCountsConsistency(t *testing.T) {
	m := testModel(t)
	lat := m.Lattice()
	cfg := lattice.EquiatomicConfig(lat, 4, rng.New(1))
	// Independent energy computation from pair counts.
	var want float64
	for s := 0; s < m.NumShells(); s++ {
		counts := lattice.PairCounts(lat, cfg, s, 4)
		for a := 0; a < 4; a++ {
			for b := 0; b < 4; b++ {
				want += float64(counts[a][b]) * m.Interaction(s, a, b) / 2
			}
		}
	}
	got := m.Energy(cfg)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("Energy = %g, pair-count energy = %g", got, want)
	}
}

// TestSwapDeltaE is the central property test: the O(z) incremental energy
// difference must match the O(N·z) full recomputation for random swaps.
func TestSwapDeltaE(t *testing.T) {
	m := testModel(t)
	lat := m.Lattice()
	src := rng.New(2)
	cfg := lattice.EquiatomicConfig(lat, 4, src)
	n := lat.NumSites()
	err := quick.Check(func(a, b uint16) bool {
		i, j := int(a)%n, int(b)%n
		before := m.Energy(cfg)
		dE := m.SwapDeltaE(cfg, i, j)
		cfg[i], cfg[j] = cfg[j], cfg[i]
		after := m.Energy(cfg)
		cfg[i], cfg[j] = cfg[j], cfg[i] // restore
		return math.Abs((after-before)-dE) < 1e-9
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSwapDeltaESameSpecies(t *testing.T) {
	m := testModel(t)
	cfg := make(lattice.Config, m.Lattice().NumSites()) // all species 0
	if dE := m.SwapDeltaE(cfg, 0, 1); dE != 0 {
		t.Errorf("same-species swap ΔE = %g", dE)
	}
}

func TestSwapDeltaERestoresConfig(t *testing.T) {
	m := testModel(t)
	src := rng.New(3)
	cfg := lattice.EquiatomicConfig(m.Lattice(), 4, src)
	cp := cfg.Clone()
	m.SwapDeltaE(cfg, 5, 40)
	for i := range cfg {
		if cfg[i] != cp[i] {
			t.Fatal("SwapDeltaE mutated the configuration")
		}
	}
}

func TestMutateDeltaE(t *testing.T) {
	m := testModel(t)
	src := rng.New(4)
	cfg := lattice.EquiatomicConfig(m.Lattice(), 4, src)
	n := m.Lattice().NumSites()
	err := quick.Check(func(a uint16, spRaw uint8) bool {
		site := int(a) % n
		sp := lattice.Species(spRaw % 4)
		before := m.Energy(cfg)
		dE := m.MutateDeltaE(cfg, site, sp)
		old := cfg[site]
		cfg[site] = sp
		after := m.Energy(cfg)
		cfg[site] = old
		return math.Abs((after-before)-dE) < 1e-9
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEnergyBoundsContainSamples(t *testing.T) {
	m := testModel(t)
	lo, hi := m.EnergyBounds()
	src := rng.New(5)
	for trial := 0; trial < 20; trial++ {
		cfg := lattice.EquiatomicConfig(m.Lattice(), 4, src)
		e := m.Energy(cfg)
		if e < lo-1e-9 || e > hi+1e-9 {
			t.Fatalf("sampled energy %g outside bounds [%g, %g]", e, lo, hi)
		}
	}
	if !(hi > lo) {
		t.Fatalf("degenerate bounds [%g, %g]", lo, hi)
	}
}

func TestBondCount(t *testing.T) {
	m := testModel(t)
	// BCC 3³ = 54 sites: shell 1 has 54·8/2 = 216 bonds, shell 2 54·6/2=162.
	if c := m.BondCount(0); c != 216 {
		t.Errorf("shell-1 bonds = %d, want 216", c)
	}
	if c := m.BondCount(1); c != 162 {
		t.Errorf("shell-2 bonds = %d, want 162", c)
	}
}

// TestBinaryOrderingGroundState: on a bipartite BCC lattice the B2
// arrangement minimizes the unlike-attraction binary model; its energy is
// −j per shell-1 bond.
func TestBinaryOrderingGroundState(t *testing.T) {
	lat := lattice.MustNew(lattice.BCC, 4, 4, 4)
	j := 0.05
	m := BinaryOrdering(lat, j)
	b2 := make(lattice.Config, lat.NumSites())
	for i := range b2 {
		b2[i] = lattice.Species(i % 2)
	}
	want := -j * float64(m.BondCount(0))
	if got := m.Energy(b2); math.Abs(got-want) > 1e-9 {
		t.Errorf("B2 energy = %g, want %g", got, want)
	}
	// Any random configuration at the same composition must not be lower.
	src := rng.New(6)
	for trial := 0; trial < 10; trial++ {
		cfg := lattice.EquiatomicConfig(lat, 2, src)
		if m.Energy(cfg) < want-1e-9 {
			t.Fatalf("random config below B2 ground state")
		}
	}
}

func TestEnergySizeMismatchPanics(t *testing.T) {
	m := testModel(t)
	defer func() {
		if recover() == nil {
			t.Fatal("size mismatch did not panic")
		}
	}()
	m.Energy(make(lattice.Config, 3))
}

func TestKB(t *testing.T) {
	// Sanity anchor: room temperature ≈ 25.7 meV.
	if kt := KB * 298; math.Abs(kt-0.0256777) > 1e-4 {
		t.Errorf("k_B·298K = %g eV", kt)
	}
}

func BenchmarkEnergy(b *testing.B) {
	lat := lattice.MustNew(lattice.BCC, 8, 8, 8)
	m := NbMoTaW(lat)
	cfg := lattice.EquiatomicConfig(lat, 4, rng.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Energy(cfg)
	}
}

func BenchmarkSwapDeltaE(b *testing.B) {
	lat := lattice.MustNew(lattice.BCC, 8, 8, 8)
	m := NbMoTaW(lat)
	src := rng.New(1)
	cfg := lattice.EquiatomicConfig(lat, 4, src)
	n := lat.NumSites()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.SwapDeltaE(cfg, i%n, (i*7+13)%n)
	}
}
