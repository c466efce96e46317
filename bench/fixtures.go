package main

import (
	"context"
	"embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"deepthermo"
	"deepthermo/internal/dos"
	"deepthermo/internal/thermo"
)

//go:embed testdata/spectrum_n16.json testdata/cvref_n54.json
var fixtureFS embed.FS

// spectrumFixture is the exact energy spectrum of 16-site equiatomic
// NbMoTaW: every distinct energy with its microstate count
// (dos.EnumerateFixedComposition, 63,063,000 states, ~20 s once — far too
// slow for setup_s, hence committed).
type spectrumFixture struct {
	Alloy  string    `json:"alloy"`
	Cells  int       `json:"cells"`
	Quota  []int     `json:"quota"`
	States float64   `json:"states"`
	E      []float64 `json:"e"`
	Count  []float64 `json:"count"`
}

// curveFixture is the 54-site reference C_v(T) curve on the 257-point
// grid, from one long run of the same recipe (regenFixtures).
type curveFixture struct {
	Alloy    string    `json:"alloy"`
	Cells    int       `json:"cells"`
	Seed     uint64    `json:"seed"`
	Rounds   int       `json:"rounds"`
	FinalLnF float64   `json:"final_lnf"`
	TLo      float64   `json:"t_lo"`
	THi      float64   `json:"t_hi"`
	Cv       []float64 `json:"cv"`
	TcK      float64   `json:"tc_K"`
}

func loadFixture(name string, v any) error {
	data, err := fixtureFS.ReadFile("testdata/" + name)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("fixture %s: %w", name, err)
	}
	return nil
}

func loadSpectrum() (*spectrumFixture, error) {
	var s spectrumFixture
	if err := loadFixture("spectrum_n16.json", &s); err != nil {
		return nil, err
	}
	if len(s.E) == 0 || len(s.E) != len(s.Count) {
		return nil, fmt.Errorf("fixture spectrum_n16.json: %d energies, %d counts", len(s.E), len(s.Count))
	}
	return &s, nil
}

func loadCurveRef() (*curveFixture, error) {
	var c curveFixture
	if err := loadFixture("cvref_n54.json", &c); err != nil {
		return nil, err
	}
	if len(c.Cv) != curvePoints {
		return nil, fmt.Errorf("fixture cvref_n54.json: %d points, want %d", len(c.Cv), curvePoints)
	}
	return &c, nil
}

// rebin puts the exact spectrum on an estimate's grid: ln of the state
// count per bin, -Inf where the bin holds no level. The second result is
// the number of states that fell inside the grid.
func (s *spectrumFixture) rebin(grid *dos.LogDOS) ([]float64, float64) {
	acc := make([]float64, grid.Bins())
	var inside float64
	for i, e := range s.E {
		if b := grid.Bin(e); b >= 0 {
			acc[b] += s.Count[i]
			inside += s.Count[i]
		}
	}
	out := make([]float64, len(acc))
	for i, c := range acc {
		out[i] = math.Inf(-1)
		if c > 0 {
			out[i] = math.Log(c)
		}
	}
	return out, inside
}

// errors compares est with the exact spectrum over the bins both hold,
// after removing the free additive constant: the RMS residual (about the
// mean offset) and the median absolute residual (about the median offset),
// and the number of bins compared.
func (s *spectrumFixture) errors(est *dos.LogDOS) (rms, medAbs float64, n int) {
	exact, _ := s.rebin(est)
	var res []float64
	for i, x := range exact {
		if est.Visited(i) && !math.IsInf(x, -1) {
			res = append(res, est.LogG[i]-x)
		}
	}
	if len(res) == 0 {
		return math.Inf(1), math.Inf(1), 0
	}
	var sum float64
	for _, r := range res {
		sum += r
	}
	mean, med := sum/float64(len(res)), median(res)
	abs := make([]float64, len(res))
	var ss float64
	for i, r := range res {
		ss += (r - mean) * (r - mean)
		abs[i] = math.Abs(r - med)
	}
	return math.Sqrt(ss / float64(len(res))), median(abs), len(res)
}

// The temperature grid every workload reweights on.
const (
	curveTLo    = 100.0
	curveTHi    = 3500.0
	curvePoints = 257
)

func curveGrid() []float64 { return thermo.TempRange(curveTLo, curveTHi, curvePoints) }

// cvDeviation is the RMS of (C_v − ref)/max(ref) over the grid, and the
// distance between the two C_v peaks in kelvin.
func (c *curveFixture) cvDeviation(pts []thermo.Point) (rmsRel, dTc float64, err error) {
	if len(pts) != len(c.Cv) {
		return 0, 0, fmt.Errorf("curve has %d points, reference %d", len(pts), len(c.Cv))
	}
	var peak float64
	for _, v := range c.Cv {
		peak = math.Max(peak, v)
	}
	var ss float64
	for i, p := range pts {
		r := (p.Cv - c.Cv[i]) / peak
		ss += r * r
	}
	tc, _, err := thermo.TransitionTemperature(pts)
	if err != nil {
		return 0, 0, err
	}
	return math.Sqrt(ss / float64(len(pts))), math.Abs(tc - c.TcK), nil
}

// regenFixtures rewrites both fixtures under dir (bench/testdata). The
// spectrum takes ~20 s, the reference curve about a minute.
func regenFixtures(dir string) error {
	sys, err := deepthermo.NewSystem(deepthermo.SystemConfig{Cells: 2})
	if err != nil {
		return err
	}
	x, err := dos.EnumerateFixedComposition(sys.Ham, sys.Quota)
	if err != nil {
		return err
	}
	spec := spectrumFixture{Alloy: "NbMoTaW", Cells: 2, Quota: sys.Quota, States: x.Total(), E: x.E, Count: x.Count}
	if err := writeJSON(filepath.Join(dir, "spectrum_n16.json"), spec); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "spectrum_n16.json: %d levels, %.0f states\n", len(x.E), x.Total())

	// Reference curve: the swap_rewl_n54 recipe, eight single-walker
	// windows (the layout that converges most reliably at this size), run
	// far past the workload's schedule.
	const seed, rounds = 1, 60000
	sys54, err := deepthermo.NewSystem(deepthermo.SystemConfig{Cells: 3, Seed: seed})
	if err != nil {
		return err
	}
	res, err := sample(context.Background(), sys54, sampleSpec{
		Seed: seed, DOSConfig: deepthermo.DOSConfig{Windows: 8, Walkers: 1, NoDL: true, LnFFinal: 1e-7}, MaxRounds: rounds,
	}, sampleHooks{})
	if err != nil {
		return err
	}
	pts, err := thermo.Curve(res.Run.DOS, curveGrid())
	if err != nil {
		return err
	}
	tc, _, err := thermo.TransitionTemperature(pts)
	if err != nil {
		return err
	}
	ref := curveFixture{Alloy: "NbMoTaW", Cells: 3, Seed: seed, Rounds: res.Run.Rounds, TLo: curveTLo, THi: curveTHi, TcK: tc}
	for _, w := range res.Run.Windows {
		ref.FinalLnF = math.Max(ref.FinalLnF, w.FinalLnF)
	}
	for _, p := range pts {
		ref.Cv = append(ref.Cv, p.Cv)
	}
	fmt.Fprintf(os.Stderr, "cvref_n54.json: %d rounds, final ln f %.3g, T_c %.1f K, converged %v\n",
		res.Run.Rounds, ref.FinalLnF, tc, res.Run.AllConverged)
	return writeJSON(filepath.Join(dir, "cvref_n54.json"), ref)
}

func writeJSON(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
