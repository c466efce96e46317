package train

import (
	"testing"

	"deepthermo/internal/alloy"
	"deepthermo/internal/lattice"
	"deepthermo/internal/rng"
	"deepthermo/internal/vae"
	"deepthermo/internal/workload"
)

// BenchmarkFitBenchShape is one fit at the shape the dl_* benchmark
// workloads train in set-up: the 16-site NbMoTaW model of benchShape
// (hidden 96, latent 6) on 5 rungs × 100 samples, batch 32, two epochs
// (32 steps). Run it at -cpu 1,2 to see what the second core buys.
func BenchmarkFitBenchShape(b *testing.B) {
	m := alloy.NbMoTaW(lattice.MustNew(lattice.BCC, 2, 2, 2))
	ds, err := workload.Generate(m, workload.GenOptions{
		Temps:          []float64{250, 1000, 1750, 2500, 3250},
		SamplesPerTemp: 100,
		EquilSweeps:    30,
		GapSweeps:      2,
		Seed:           1,
	})
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{Epochs: 2, BatchSize: 32, LR: 2e-3, Seed: 11}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		model, err := vae.New(benchShape, rng.New(13))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := Fit(model, ds, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ds.Len()*opts.Epochs*b.N)/b.Elapsed().Seconds(), "samples/s")
}
