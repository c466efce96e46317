package dos

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
)

// dosFile is the on-disk representation of a density of states. -Inf
// (unvisited bins) does not round-trip through all encoders safely, so
// visited-ness is stored explicitly.
type dosFile struct {
	Magic    string
	Version  int
	EMin     float64
	BinWidth float64
	LogG     []float64
	Visited  []bool
}

const (
	dosMagic   = "deepthermo-dos"
	dosVersion = 1
)

// gob assigns concrete type IDs process-globally in first-use order, so
// without pinning, the byte encoding of a dosFile depends on whatever
// the process gob-encoded earlier (a server that wrote a REWL checkpoint
// before its first Save emits different — though compatible — bytes
// than one that did not). Registering the type at init fixes its IDs at
// process start, making Save a pure function of the DOS; fleet failover
// and the smoke tests rely on that to compare artifacts byte-for-byte
// across processes.
func init() {
	warm := dosFile{LogG: []float64{0}, Visited: []bool{true}}
	if err := gob.NewEncoder(io.Discard).Encode(&warm); err != nil {
		panic(fmt.Sprintf("dos: pinning gob type IDs: %v", err))
	}
}

// Save writes the density of states to w. Converged ln g estimates are the
// expensive artifact of a sampling campaign; Save/Load let thermodynamics
// be re-derived at any later time without resampling.
func (d *LogDOS) Save(w io.Writer) error {
	f := dosFile{
		Magic:    dosMagic,
		Version:  dosVersion,
		EMin:     d.EMin,
		BinWidth: d.BinWidth,
		LogG:     make([]float64, len(d.LogG)),
		Visited:  make([]bool, len(d.LogG)),
	}
	for i, lg := range d.LogG {
		if d.Visited(i) {
			f.LogG[i] = lg
			f.Visited[i] = true
		}
	}
	if err := gob.NewEncoder(w).Encode(&f); err != nil {
		return fmt.Errorf("dos: saving: %w", err)
	}
	return nil
}

var errCorrupt = errors.New("dos: corrupt DOS file")

// Load reads a density of states previously written by Save. The grid
// must be finite and a visited bin's ln g must be finite or -Inf: a NaN
// or +Inf would poison every thermodynamic average derived from it.
func Load(r io.Reader) (*LogDOS, error) {
	var f dosFile
	if err := gob.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("dos: loading: %w", err)
	}
	if f.Magic != dosMagic {
		return nil, fmt.Errorf("dos: not a DeepThermo DOS file")
	}
	if f.Version != dosVersion {
		return nil, fmt.Errorf("dos: unsupported version %d", f.Version)
	}
	if len(f.LogG) != len(f.Visited) || len(f.LogG) == 0 || !(f.BinWidth > 0) {
		return nil, errCorrupt
	}
	d := &LogDOS{EMin: f.EMin, BinWidth: f.BinWidth, LogG: make([]float64, len(f.LogG))}
	// A finite EMax above EMin needs a finite EMin and BinWidth too.
	if eMax := d.EMax(); math.IsInf(eMax, 0) || !(eMax > d.EMin) {
		return nil, errCorrupt
	}
	for i, v := range f.Visited {
		lg := f.LogG[i]
		switch {
		case !v:
			lg = math.Inf(-1)
		case math.IsNaN(lg) || math.IsInf(lg, 1):
			return nil, errCorrupt
		}
		d.LogG[i] = lg
	}
	return d, nil
}
