// Package lattice provides periodic crystal lattices for multi-component
// alloy Monte Carlo. It supports the three cubic Bravais lattices used in
// high-entropy-alloy modelling (simple cubic, BCC, FCC), precomputed
// neighbor tables grouped by coordination shell, and site-occupancy
// configurations with the Warren-Cowley short-range-order analysis used to
// detect order-disorder transitions.
//
// Internally every site is addressed in "doubled" integer coordinates
// (twice the fractional cell coordinate), which makes all basis offsets and
// neighbor vectors exact integers: BCC sites are the points with all-even or
// all-odd coordinates, FCC sites the points with even coordinate sum.
package lattice

import "fmt"

// Structure identifies a cubic crystal structure.
type Structure int

// Supported structures.
const (
	SC  Structure = iota // simple cubic: 1 site/cell, coordination 6
	BCC                  // body-centered cubic: 2 sites/cell, coordination 8
	FCC                  // face-centered cubic: 4 sites/cell, coordination 12
)

// String returns the conventional abbreviation.
func (s Structure) String() string {
	switch s {
	case SC:
		return "sc"
	case BCC:
		return "bcc"
	case FCC:
		return "fcc"
	}
	return fmt.Sprintf("Structure(%d)", int(s))
}

// basisOffsets returns the basis atom positions in doubled coordinates.
func (s Structure) basisOffsets() [][3]int {
	switch s {
	case SC:
		return [][3]int{{0, 0, 0}}
	case BCC:
		return [][3]int{{0, 0, 0}, {1, 1, 1}}
	case FCC:
		return [][3]int{{0, 0, 0}, {1, 1, 0}, {1, 0, 1}, {0, 1, 1}}
	}
	return nil
}

// shellVectors returns the neighbor displacement vectors for the first two
// coordination shells in doubled coordinates.
func (s Structure) shellVectors() [][][3]int {
	switch s {
	case SC:
		return [][][3]int{axis(2), diag2D(2)}
	case BCC:
		return [][][3]int{diag3D(1), axis(2)}
	case FCC:
		return [][][3]int{diag2D(1), axis(2)}
	}
	return nil
}

// axis returns the 6 vectors (±d,0,0),(0,±d,0),(0,0,±d).
func axis(d int) [][3]int {
	return [][3]int{{d, 0, 0}, {-d, 0, 0}, {0, d, 0}, {0, -d, 0}, {0, 0, d}, {0, 0, -d}}
}

// diag2D returns the 12 vectors with two coordinates ±d and one zero.
func diag2D(d int) [][3]int {
	var v [][3]int
	for _, a := range []int{d, -d} {
		for _, b := range []int{d, -d} {
			v = append(v, [3]int{a, b, 0}, [3]int{a, 0, b}, [3]int{0, a, b})
		}
	}
	return v
}

// diag3D returns the 8 vectors (±d,±d,±d).
func diag3D(d int) [][3]int {
	var v [][3]int
	for _, a := range []int{d, -d} {
		for _, b := range []int{d, -d} {
			for _, c := range []int{d, -d} {
				v = append(v, [3]int{a, b, c})
			}
		}
	}
	return v
}

// Lattice is an immutable periodic supercell with precomputed neighbor
// tables. It is safe for concurrent read access by many walkers.
type Lattice struct {
	structure  Structure
	nx, ny, nz int // conventional cells along each axis
	nSites     int

	// neighbors stores, for each site, the neighbor site indices of all
	// shells concatenated; shellOff[s]..shellOff[s+1] delimits shell s.
	// The layout is one flat []int32 slab for cache friendliness.
	neighbors []int32
	perSite   int   // neighbors per site (uniform on a periodic lattice)
	shellOff  []int // len = NumShells+1, offsets within a site's slab
}

// New constructs a periodic nx×ny×nz supercell of the given structure with
// two coordination shells of neighbors. It returns an error if any dimension
// is too small for the neighbor table to be well defined (a shell-2 vector
// must not wrap onto the origin site or onto a shell-1 site).
func New(structure Structure, nx, ny, nz int) (*Lattice, error) {
	if nx < 2 || ny < 2 || nz < 2 {
		return nil, fmt.Errorf("lattice: dimensions %dx%dx%d too small (need ≥2 cells per axis)", nx, ny, nz)
	}
	basis := structure.basisOffsets()
	if basis == nil {
		return nil, fmt.Errorf("lattice: unknown structure %v", structure)
	}
	shells := structure.shellVectors()
	lat := &Lattice{
		structure: structure,
		nx:        nx, ny: ny, nz: nz,
		nSites: nx * ny * nz * len(basis),
	}

	// Map doubled coordinates to site index.
	dx, dy, dz := 2*nx, 2*ny, 2*nz
	coordIndex := make(map[[3]int]int32, lat.nSites)
	coords := make([][3]int, lat.nSites)
	idx := 0
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			for k := 0; k < nz; k++ {
				for _, b := range basis {
					c := [3]int{2*i + b[0], 2*j + b[1], 2*k + b[2]}
					coordIndex[c] = int32(idx)
					coords[idx] = c
					idx++
				}
			}
		}
	}

	lat.shellOff = make([]int, len(shells)+1)
	for s, vecs := range shells {
		lat.shellOff[s+1] = lat.shellOff[s] + len(vecs)
	}
	lat.perSite = lat.shellOff[len(shells)]
	lat.neighbors = make([]int32, lat.nSites*lat.perSite)

	for site := 0; site < lat.nSites; site++ {
		c := coords[site]
		pos := site * lat.perSite
		for _, vecs := range shells {
			for _, v := range vecs {
				n := [3]int{mod(c[0]+v[0], dx), mod(c[1]+v[1], dy), mod(c[2]+v[2], dz)}
				ni, ok := coordIndex[n]
				if !ok {
					return nil, fmt.Errorf("lattice: internal error, neighbor %v of site %d not on lattice", n, site)
				}
				if int(ni) == site {
					return nil, fmt.Errorf("lattice: %dx%dx%d %v supercell too small, neighbor wraps to self", nx, ny, nz, structure)
				}
				lat.neighbors[pos] = ni
				pos++
			}
		}
	}
	return lat, nil
}

func mod(a, m int) int {
	a %= m
	if a < 0 {
		a += m
	}
	return a
}

// MustNew is New but panics on error, for tests and examples with
// compile-time-known dimensions.
func MustNew(structure Structure, nx, ny, nz int) *Lattice {
	lat, err := New(structure, nx, ny, nz)
	if err != nil {
		panic(err)
	}
	return lat
}

// Structure returns the crystal structure.
func (l *Lattice) Structure() Structure { return l.structure }

// Dims returns the supercell dimensions in conventional cells.
func (l *Lattice) Dims() (nx, ny, nz int) { return l.nx, l.ny, l.nz }

// NumSites returns the total number of lattice sites.
func (l *Lattice) NumSites() int { return l.nSites }

// NumShells returns the number of coordination shells in the neighbor table.
func (l *Lattice) NumShells() int { return len(l.shellOff) - 1 }

// ShellSize returns the coordination number of shell s.
func (l *Lattice) ShellSize(s int) int { return l.shellOff[s+1] - l.shellOff[s] }

// Neighbors returns the neighbor indices of site in shell s. The returned
// slice aliases the internal table and must not be modified.
func (l *Lattice) Neighbors(site, s int) []int32 {
	base := site * l.perSite
	return l.neighbors[base+l.shellOff[s] : base+l.shellOff[s+1]]
}

// AllNeighbors returns the neighbors of site across all shells (shell order).
// The returned slice aliases the internal table and must not be modified.
func (l *Lattice) AllNeighbors(site int) []int32 {
	base := site * l.perSite
	return l.neighbors[base : base+l.perSite]
}
