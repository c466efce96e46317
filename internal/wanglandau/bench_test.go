package wanglandau_test

import (
	"testing"

	"deepthermo/internal/alloy"
	"deepthermo/internal/lattice"
	"deepthermo/internal/mc"
	"deepthermo/internal/rewl"
	"deepthermo/internal/rng"
	"deepthermo/internal/wanglandau"
)

// BenchmarkSweep54 times the swap Wang-Landau step on its own: one walker
// of the 54-site NbMoTaW system (BCC 3×3×3) on window 4 of an 8-window
// ladder with 48 bins over the whole range and overlap 0.75, the shape of
// the swap REWL runs. The energy range comes from hot sampling and an
// anneal, as the facade's does. Reports ns/step besides ns/op (one sweep,
// 54 steps).
//
//	go test -run '^$' -bench Sweep54 ./internal/wanglandau/
func BenchmarkSweep54(b *testing.B) {
	lat := lattice.MustNew(lattice.BCC, 3, 3, 3)
	m := alloy.NbMoTaW(lat)
	src := rng.New(1)
	s := mc.NewSampler(m, lattice.EquiatomicConfig(lat, m.NumSpecies(), src), mc.NewSwapProposal(m), src)
	hi := s.E
	for i := 0; i < 100; i++ {
		s.Sweep(6000)
		hi = max(hi, s.E)
	}
	s.Anneal([]float64{3000, 1500, 800, 400, 200, 100, 50}, 120)
	lo := s.E
	span := hi - lo
	lo, hi = lo-0.02*span, hi+0.10*span
	wins, err := rewl.SplitWindows(lo, hi, 8, 0.75, (hi-lo)/48)
	if err != nil {
		b.Fatal(err)
	}
	win := wins[4]
	cfg := s.Cfg.Clone()
	if _, err := wanglandau.PrepareInWindow(m, cfg, win, src, 20000); err != nil {
		b.Fatal(err)
	}
	w, err := wanglandau.NewWalker(m, cfg, mc.NewSwapProposal(m), rng.New(2), win, wanglandau.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		w.Sweep()
	}
	before := w.Steps()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Sweep()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(w.Steps()-before), "ns/step")
}
