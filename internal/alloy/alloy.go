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
//
// Energies are exact. NewEPI rounds every interaction to the nearest
// multiple of a quantum q = 2^(e−53), where 2^e is the first power of two
// above B = Σ_s N·z_s·max|V_s|, so an interaction moves by at most q/2
// (8.9·10⁻¹⁶ eV for NbMoTaW on 54 sites). Every energy, every ΔE and every
// partial sum of either is then a whole multiple of q below 2^53·q, which
// float64 represents and adds without rounding. Sums therefore do not
// depend on the order of their terms, a chain's running E + ΔE is the
// energy of its configuration to the bit, and the swap ΔE is one pass that
// adds D[σ_x] − D[σ_y] over the neighbour rows of both sites, with
// D[c] = V_s[σ_j][c] − V_s[σ_i][c] (see SwapDeltaE).
package alloy

import (
	"fmt"
	"math"

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
	// q is the energy quantum: every entry of v is a whole multiple of it.
	q float64
	// diff holds the swap ΔE's difference rows (see diffRow).
	diff []float64
}

// NewEPI constructs an EPI model with k species and per-shell interaction
// matrices vs (vs[s][a][b], eV). Matrices must be k×k, symmetric and
// finite; their number must not exceed the lattice's neighbor shells. names
// is optional (nil, or one name per species). Every interaction is rounded
// to the nearest multiple of the model's Quantum, so it moves by at most
// half a quantum.
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
				if math.IsNaN(mat[a][b]) || math.IsInf(mat[a][b], 0) {
					return nil, fmt.Errorf("alloy: shell %d interaction (%d,%d) is %g", s, a, b, mat[a][b])
				}
				if mat[a][b] != mat[b][a] {
					return nil, fmt.Errorf("alloy: shell %d matrix not symmetric at (%d,%d)", s, a, b)
				}
				flat[a*k+b] = mat[a][b]
			}
		}
		m.v = append(m.v, flat)
	}
	if err := m.quantize(); err != nil {
		return nil, err
	}
	m.buildDiffRows()
	return m, nil
}

// quantize rounds every interaction to the nearest multiple of
// q = 2^(e−53), where 2^e is the first power of two above
// B = Σ_s N·z_s·max|V_s| (z_s the shell's neighbour-list length), and
// records q (see the package doc). Energy's partial sums are bounded by B;
// a swap ΔE's 4·Σ_s z_s terms are too, because a lattice has at least 8
// sites. Should rounding push the rounded table's bound up to 2^e, q
// doubles.
func (m *Model) quantize() error {
	n := float64(m.lat.NumSites())
	bound := func(v [][]float64) float64 {
		b := 0.0
		for s, flat := range v {
			vmax := 0.0
			for _, x := range flat {
				vmax = math.Max(vmax, math.Abs(x))
			}
			b += n * float64(m.lat.ShellSize(s)) * vmax
		}
		return b
	}
	b := bound(m.v)
	if math.IsInf(b, 0) {
		return fmt.Errorf("alloy: interactions too large: a configuration energy overflows float64")
	}
	_, e := math.Frexp(b) // b < 2^e
	for ; ; e++ {
		q := math.Ldexp(1, e-53)
		rounded := make([][]float64, len(m.v))
		for s, flat := range m.v {
			rounded[s] = make([]float64, len(flat))
			for i, x := range flat {
				rounded[s][i] = math.RoundToEven(x/q) * q
			}
		}
		if bound(rounded) < math.Ldexp(1, e) {
			m.v, m.q = rounded, q
			return nil
		}
	}
}

// buildDiffRows fills m.diff from the quantised table: the row of shell s
// and species a, b starts at ((s·k+a)·k+b)·k, and the slice has 256 − k
// entries of tail so that the last row's 256-entry view fits.
func (m *Model) buildDiffRows() {
	k := m.k
	m.diff = make([]float64, len(m.v)*k*k*k+256-k)
	for s, flat := range m.v {
		for a := 0; a < k; a++ {
			for b := 0; b < k; b++ {
				row := m.diff[((s*k+a)*k+b)*k:]
				for c := 0; c < k; c++ {
					row[c] = flat[b*k+c] - flat[a*k+c]
				}
			}
		}
	}
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

// Quantum returns the model's energy quantum q in eV: every interaction,
// and so every configuration energy and every energy difference, is a
// whole multiple of it (see NewEPI).
func (m *Model) Quantum() float64 { return m.q }

// Interaction returns V_s[a][b] in eV, as rounded to the quantum.
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
// With a = σ_i and b = σ_j, every bond from i to a neighbour x changes by
// D[σ_x] and every bond from j to a neighbour y by −D[σ_y], where
// D[c] = V_s[b][c] − V_s[a][c] is the shell's a→b difference row. So one
// pass over both neighbour rows adds D[σ_x] − D[σ_y] per position. A bond
// between i and j itself does not change (V is symmetric) but was counted
// as D[b] − D[a], so that is taken off each time j appears among i's
// neighbours; a periodic lattice lists i among j's neighbours as often.
// The sum is exact (see NewEPI), so the result equals E(after) − E(before)
// to the bit, whatever the order of its terms.
func (m *Model) SwapDeltaE(cfg lattice.Config, i, j int) float64 {
	a, b := cfg[i], cfg[j]
	if a == b {
		return 0
	}
	ni, nj := m.lat.AllNeighbors(i), m.lat.AllNeighbors(j)
	pj := int32(j)
	acc := 0.0
	off := 0
	for s := range m.v {
		d := m.diffRow(s, a, b)
		end := off + m.lat.ShellSize(s)
		xs := ni[off:end]
		ys := nj[off:end]
		ys = ys[:len(xs)] // lets the compiler drop the check on ys[t]
		for t, x := range xs {
			acc += d[cfg[x]] - d[cfg[ys[t]]]
			if x == pj {
				acc -= d[b] - d[a]
			}
		}
		off = end
	}
	return acc
}

// diffRow returns shell s's a→b difference row, D[c] = V_s[b][c] − V_s[a][c].
// Rows are k entries apart in m.diff, and each is viewed as 256 entries so
// that a Species indexes it without a bounds check; entries from k on
// belong to the rows that follow and are never read for a valid
// configuration.
func (m *Model) diffRow(s int, a, b lattice.Species) *[256]float64 {
	off := ((s*m.k+int(a))*m.k + int(b)) * m.k
	return (*[256]float64)(m.diff[off : off+256])
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
