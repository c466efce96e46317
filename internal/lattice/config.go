package lattice

import (
	"fmt"

	"deepthermo/internal/rng"
)

// Species is a site occupant, an index into an alloy's component list.
type Species = uint8

// Config is the occupancy of every site of a Lattice. Config values are
// plain slices so they copy, hash, and serialize cheaply; all structural
// information lives in the Lattice they were created for.
type Config []Species

// Clone returns an independent copy of c.
func (c Config) Clone() Config {
	out := make(Config, len(c))
	copy(out, c)
	return out
}

// Counts returns the number of sites occupied by each of k species.
func (c Config) Counts(k int) []int {
	counts := make([]int, k)
	for _, sp := range c {
		counts[sp]++
	}
	return counts
}

// EquiQuota returns the near-equiatomic composition of n sites over k
// species, with the remainder on the leading species (54 sites over 4
// species → 14, 14, 13, 13). RandomConfig and EquiatomicConfig put their
// remainder on the last species instead.
func EquiQuota(n, k int) []int {
	q := make([]int, k)
	for i := range q {
		q[i] = n / k
	}
	for i := 0; i < n%k; i++ {
		q[i]++
	}
	return q
}

// QuotaConfig returns a configuration with exactly quota[i] sites of
// species i, built in species order and then shuffled by one
// src.Shuffle over all its sites.
func QuotaConfig(quota []int, src *rng.Source) Config {
	n := 0
	for _, q := range quota {
		n += q
	}
	cfg := make(Config, 0, n)
	for sp, q := range quota {
		for i := 0; i < q; i++ {
			cfg = append(cfg, Species(sp))
		}
	}
	src.Shuffle(n, func(i, j int) { cfg[i], cfg[j] = cfg[j], cfg[i] })
	return cfg
}

// RandomConfig returns a configuration with exactly round(conc[i]*N) sites
// of species i (remainders assigned to the last species), shuffled uniformly
// at random. Fixed composition matters: the alloy Hamiltonian is sampled in
// the canonical (fixed-concentration) ensemble, where MC moves are swaps.
func RandomConfig(l *Lattice, conc []float64, src *rng.Source) (Config, error) {
	n := l.NumSites()
	cfg := make(Config, 0, n)
	total := 0.0
	for _, c := range conc {
		if c < 0 {
			return nil, fmt.Errorf("lattice: negative concentration %g", c)
		}
		total += c
	}
	if total <= 0 {
		return nil, fmt.Errorf("lattice: concentrations sum to %g", total)
	}
	for i, c := range conc {
		count := int(c/total*float64(n) + 0.5)
		if i == len(conc)-1 {
			count = n - len(cfg)
		}
		if count < 0 || len(cfg)+count > n {
			count = n - len(cfg)
		}
		for j := 0; j < count; j++ {
			cfg = append(cfg, Species(i))
		}
	}
	for len(cfg) < n { // rounding shortfall: pad with last species
		cfg = append(cfg, Species(len(conc)-1))
	}
	src.Shuffle(n, func(i, j int) { cfg[i], cfg[j] = cfg[j], cfg[i] })
	return cfg, nil
}

// EquiatomicConfig returns a random configuration with k species in equal
// proportions, the canonical high-entropy-alloy composition.
func EquiatomicConfig(l *Lattice, k int, src *rng.Source) Config {
	conc := make([]float64, k)
	for i := range conc {
		conc[i] = 1
	}
	cfg, err := RandomConfig(l, conc, src)
	if err != nil {
		panic(err) // unreachable: equal positive concentrations are valid
	}
	return cfg
}

// PairCounts returns the symmetric k×k matrix of ordered pair counts in
// shell s: entry [a][b] is the number of (site, neighbor) pairs with species
// a on the site and b on the neighbor. Each unordered bond is counted twice
// (once from each end), so the unordered bond count is PairCounts/2 on the
// diagonal-symmetrized matrix.
func PairCounts(l *Lattice, cfg Config, s, k int) [][]int {
	counts := make([][]int, k)
	for i := range counts {
		counts[i] = make([]int, k)
	}
	for site := 0; site < l.NumSites(); site++ {
		a := cfg[site]
		for _, nb := range l.Neighbors(site, s) {
			counts[a][cfg[nb]]++
		}
	}
	return counts
}

// WarrenCowley returns the Warren-Cowley short-range-order parameters
// α_ab for shell s: α_ab = 1 - P(b | neighbor of a) / c_b, where c_b is the
// global concentration of species b. α = 0 for an ideal random solution;
// α_ab < 0 signals preferred a-b ordering (e.g. B2), α_ab > 0 clustering.
func WarrenCowley(l *Lattice, cfg Config, s, k int) [][]float64 {
	counts := PairCounts(l, cfg, s, k)
	n := l.NumSites()
	speciesCount := cfg.Counts(k)
	z := float64(l.ShellSize(s))
	alpha := make([][]float64, k)
	for a := range alpha {
		alpha[a] = make([]float64, k)
		na := float64(speciesCount[a])
		if na == 0 {
			continue
		}
		for b := range alpha[a] {
			cb := float64(speciesCount[b]) / float64(n)
			if cb == 0 {
				continue
			}
			pab := float64(counts[a][b]) / (na * z)
			alpha[a][b] = 1 - pab/cb
		}
	}
	return alpha
}
