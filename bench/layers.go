package main

import (
	"time"

	"deepthermo"
	"deepthermo/internal/lattice"
	"deepthermo/internal/mc"
	"deepthermo/internal/rng"
	"deepthermo/internal/tensor"
	"deepthermo/internal/vae"
	"deepthermo/internal/wanglandau"
)

// Isolated single-layer stopwatches, run once in the traced pass. Each
// calls one public function of one layer in a tight loop on one goroutine,
// so the number is the layer's own cost with no barrier, no exchange and
// no second walker.

var sink float64 // keeps the measured calls from being optimised away

// swapDeltaENs is alloy.Model.SwapDeltaE on random site pairs of a random
// equiatomic configuration.
func swapDeltaENs(sys *deepthermo.System, seed uint64, calls int) float64 {
	src := rng.New(seed)
	cfg := lattice.EquiatomicConfig(sys.Lat, sys.Ham.NumSpecies(), src)
	n := len(cfg)
	pairs := make([][2]int, 1024)
	for i := range pairs {
		pairs[i] = [2]int{src.Intn(n), src.Intn(n)}
	}
	start := time.Now()
	var acc float64
	for i := 0; i < calls; i++ {
		p := pairs[i&1023]
		acc += sys.Ham.SwapDeltaE(cfg, p[0], p[1])
	}
	sink += acc
	return float64(time.Since(start).Nanoseconds()) / float64(calls)
}

// wlSweepNsPerStep is one Wang-Landau walker with the local-swap proposal
// over the whole energy range: propose, ΔE, ln g lookup, accept/reject,
// histogram update — everything a step costs except other walkers.
func wlSweepNsPerStep(sys *deepthermo.System, seed uint64, sweeps int) (float64, error) {
	lo, hi, cfg := energyRange(sys, seed)
	src := rng.New(seed + 1)
	w, err := wanglandau.NewWalker(sys.Ham, cfg, mc.NewSwapProposal(sys.Ham), src,
		wanglandau.Window{EMin: lo, EMax: hi, Bins: 48}, wanglandau.Options{})
	if err != nil {
		return 0, err
	}
	for i := 0; i < sweeps/10; i++ {
		w.Sweep()
	}
	before := w.Steps()
	start := time.Now()
	for i := 0; i < sweeps; i++ {
		w.Sweep()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(w.Steps()-before), nil
}

// vaeNs times the two batch-1 forwards the DL proposal makes per step.
func vaeNs(model *vae.Model, sys *deepthermo.System, seed uint64, calls int) (encodeNs, decodeNs float64) {
	src := rng.New(seed)
	m := model.CloneWeights(src)
	cfg := lattice.EquiatomicConfig(sys.Lat, sys.Ham.NumSpecies(), src)
	c := m.Config()
	mu, lv := make([]float64, c.Latent), make([]float64, c.Latent)
	probs := vae.NewProbs(c.Sites, c.Species)
	cond := mc.CondForT(1000)
	mu, lv = m.EncodeInto(cfg, cond, mu, lv)
	m.DecodeProbsInto(mu, cond, probs)

	start := time.Now()
	for i := 0; i < calls; i++ {
		mu, lv = m.EncodeInto(cfg, cond, mu, lv)
	}
	encodeNs = float64(time.Since(start).Nanoseconds()) / float64(calls)
	start = time.Now()
	for i := 0; i < calls; i++ {
		m.DecodeProbsInto(mu, cond, probs)
	}
	decodeNs = float64(time.Since(start).Nanoseconds()) / float64(calls)
	sink += mu[0] + lv[0] + probs[0][0]
	return encodeNs, decodeNs
}

// matmulGflops is tensor.MatMul on a (batch × k)·(k × n) product — the
// shape of the proposal network's hidden layers — in GFLOP/s, with the
// operations per byte computed from the three matrix sizes (not measured:
// cache misses are not counted).
func matmulGflops(batch, k, n int, seed uint64, calls int) (gflops, flopsPerByte float64) {
	src := rng.New(seed)
	a, b, dst := tensor.NewMatrix(batch, k), tensor.NewMatrix(k, n), tensor.NewMatrix(batch, n)
	for i := range a.Data {
		a.Data[i] = src.Float64()
	}
	for i := range b.Data {
		b.Data[i] = src.Float64()
	}
	tensor.MatMul(dst, a, b)
	start := time.Now()
	for i := 0; i < calls; i++ {
		tensor.MatMul(dst, a, b)
	}
	el := time.Since(start).Seconds()
	sink += dst.Data[0]
	flops := 2 * float64(batch) * float64(k) * float64(n)
	bytes := 8 * float64(batch*k+k*n+batch*n)
	return flops * float64(calls) / el / 1e9, flops / bytes
}
