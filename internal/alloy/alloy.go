// Package alloy implements effective pair interaction (EPI) Hamiltonians
// for multi-component lattice alloys, the energy model DeepThermo samples.
//
// The EPI form is the pairwise truncation of a cluster expansion:
//
//	E(σ) = Σ_shells s Σ_bonds (i,j) ∈ s  V_s[σ_i][σ_j]
//
// where σ_i is the species on site i and V_s is a symmetric k×k matrix of
// pair energies for coordination shell s. This is the standard model for
// configurational thermodynamics of high-entropy alloys: the astronomical
// k^N configuration space the paper refers to is exactly the state space of
// this Hamiltonian on a supercell of N sites.
//
// All energies are in eV; temperatures in kelvin via the Boltzmann constant
// KB. The package provides O(z) swap energy differences (z = coordination),
// the operation on the Metropolis hot path; they only read the
// configuration.
package alloy

import (
	"fmt"

	"deepthermo/internal/lattice"
)

// KB is the Boltzmann constant in eV/K.
const KB = 8.617333262e-5

// Model is an EPI Hamiltonian bound to a lattice. It is immutable after
// construction and safe for concurrent use by many walkers (methods that
// take a configuration neither retain nor mutate it).
type Model struct {
	lat   *lattice.Lattice
	k     int
	names []string
	// v[s] is the flattened k×k interaction matrix of shell s:
	// v[s][a*k+b] = V_s[a][b]. Flattened for hot-path cache locality.
	v [][]float64
}

// NewEPI constructs an EPI model with k species and per-shell interaction
// matrices vs (vs[s][a][b], eV). Matrices must be k×k and symmetric; their
// number must not exceed the lattice's neighbor shells. names is optional
// (nil, or one name per species).
func NewEPI(lat *lattice.Lattice, k int, vs [][][]float64, names []string) (*Model, error) {
	if k < 2 || k > 255 {
		return nil, fmt.Errorf("alloy: need 2..255 species, got %d", k)
	}
	if len(vs) == 0 || len(vs) > lat.NumShells() {
		return nil, fmt.Errorf("alloy: %d interaction shells for a lattice with %d neighbor shells", len(vs), lat.NumShells())
	}
	if names != nil && len(names) != k {
		return nil, fmt.Errorf("alloy: %d names for %d species", len(names), k)
	}
	m := &Model{lat: lat, k: k, names: names}
	for s, mat := range vs {
		if len(mat) != k {
			return nil, fmt.Errorf("alloy: shell %d matrix is %dx?, want %dx%d", s, len(mat), k, k)
		}
		flat := make([]float64, k*k)
		for a := 0; a < k; a++ {
			if len(mat[a]) != k {
				return nil, fmt.Errorf("alloy: shell %d row %d has %d entries, want %d", s, a, len(mat[a]), k)
			}
			for b := 0; b < k; b++ {
				if mat[a][b] != mat[b][a] {
					return nil, fmt.Errorf("alloy: shell %d matrix not symmetric at (%d,%d)", s, a, b)
				}
				flat[a*k+b] = mat[a][b]
			}
		}
		m.v = append(m.v, flat)
	}
	return m, nil
}

// Lattice returns the lattice the model is bound to.
func (m *Model) Lattice() *lattice.Lattice { return m.lat }

// NumSpecies returns the number of alloy components k.
func (m *Model) NumSpecies() int { return m.k }

// NumShells returns the number of interacting coordination shells.
func (m *Model) NumShells() int { return len(m.v) }

// SpeciesName returns the name of species a, or its index as a string.
func (m *Model) SpeciesName(a int) string {
	if m.names != nil && a >= 0 && a < len(m.names) {
		return m.names[a]
	}
	return fmt.Sprintf("X%d", a)
}

// Interaction returns V_s[a][b] in eV.
func (m *Model) Interaction(s, a, b int) float64 { return m.v[s][a*m.k+b] }

// Energy returns the total configurational energy of cfg in eV.
// Each bond is visited twice (once from each end), hence the factor ½.
func (m *Model) Energy(cfg lattice.Config) float64 {
	if len(cfg) != m.lat.NumSites() {
		panic("alloy: configuration size mismatch")
	}
	total := 0.0
	for s, flat := range m.v {
		for site, a := range cfg {
			row := flat[int(a)*m.k : (int(a)+1)*m.k]
			for _, nb := range m.lat.Neighbors(site, s) {
				total += row[cfg[nb]]
			}
		}
	}
	return total / 2
}

// siteEnergy returns the sum of bond energies from site to all interacting
// neighbors, with the species on site overridden to sp.
func (m *Model) siteEnergy(cfg lattice.Config, site int, sp lattice.Species) float64 {
	e := 0.0
	for s, flat := range m.v {
		row := flat[int(sp)*m.k : (int(sp)+1)*m.k]
		for _, nb := range m.lat.Neighbors(site, s) {
			e += row[cfg[nb]]
		}
	}
	return e
}

// SwapDeltaE returns E(cfg with sites i and j swapped) − E(cfg) in O(z).
// It only reads cfg, so walkers may share a configuration with concurrent
// readers.
//
// One pass walks the neighbour rows of i and j together and keeps four
// running sums: the local energies of i and j before the swap, and after
// it, where the partner site reads as the swapped species (so the i–j
// bond, and its repeated images on a small supercell, are counted
// exactly). Each sum adds its terms in siteEnergy's order, so the result
// is bit-identical to evaluating the four local energies one after the
// other on the swapped and unswapped configurations. A lattice never
// lists a site as its own neighbour, so only the partner needs the
// override.
func (m *Model) SwapDeltaE(cfg lattice.Config, i, j int) float64 {
	a, b := cfg[i], cfg[j]
	if a == b {
		return 0
	}
	k := m.k
	ni, nj := m.lat.AllNeighbors(i), m.lat.AllNeighbors(j)
	pi, pj := int32(i), int32(j)
	var bi, bj, ai, aj float64
	off := 0
	for s, flat := range m.v {
		rowA := flat[int(a)*k : (int(a)+1)*k]
		rowB := flat[int(b)*k : (int(b)+1)*k]
		end := off + m.lat.ShellSize(s)
		xs := ni[off:end]
		ys := nj[off:end]
		ys = ys[:len(xs)] // lets the compiler drop the check on ys[t]
		for t, x := range xs {
			y := ys[t]
			sx, sy := cfg[x], cfg[y]
			bi += rowA[sx]
			bj += rowB[sy]
			if x == pj {
				sx = a
			}
			if y == pi {
				sy = b
			}
			ai += rowB[sx]
			aj += rowA[sy]
		}
		off = end
	}
	return (ai + aj) - (bi + bj)
}

// MutateDeltaE returns the energy change from setting cfg[site] = sp,
// in O(z). Used by semi-grand-canonical moves and by exact enumeration.
func (m *Model) MutateDeltaE(cfg lattice.Config, site int, sp lattice.Species) float64 {
	old := cfg[site]
	if old == sp {
		return 0
	}
	return m.siteEnergy(cfg, site, sp) - m.siteEnergy(cfg, site, old)
}

// BondCount returns the total number of (unordered) bonds in shell s.
func (m *Model) BondCount(s int) int {
	return m.lat.NumSites() * m.lat.ShellSize(s) / 2
}

// EnergyBounds returns loose per-configuration energy bounds obtained from
// the extreme interaction values: min/max bond energy times bond count,
// summed over shells. The true reachable range at fixed composition is
// narrower; these bounds are used to size Wang-Landau energy windows before
// sampling tightens them.
func (m *Model) EnergyBounds() (lo, hi float64) {
	for s, flat := range m.v {
		vmin, vmax := flat[0], flat[0]
		for _, v := range flat {
			if v < vmin {
				vmin = v
			}
			if v > vmax {
				vmax = v
			}
		}
		n := float64(m.BondCount(s))
		lo += n * vmin
		hi += n * vmax
	}
	return lo, hi
}
