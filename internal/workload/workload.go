// Package workload generates the training data for the DeepThermo proposal
// model. The paper trains its generative model on configurations collected
// from conventional MC runs across a temperature ladder; this package
// reproduces that pipeline with the local-swap baseline sampler, running
// the ladder's temperatures concurrently (they are independent chains).
package workload

import (
	"context"
	"fmt"
	"math"
	"sync"

	"deepthermo/internal/alloy"
	"deepthermo/internal/lattice"
	"deepthermo/internal/mc"
	"deepthermo/internal/rng"
)

// Dataset is a labelled set of configurations for conditional VAE training.
type Dataset struct {
	Configs  []lattice.Config
	Conds    []float64 // conditioning scalar (normalized temperature)
	Energies []float64 // configurational energies (eV), for analysis
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Configs) }

// Append adds a sample.
func (d *Dataset) Append(cfg lattice.Config, cond, energy float64) {
	d.Configs = append(d.Configs, cfg)
	d.Conds = append(d.Conds, cond)
	d.Energies = append(d.Energies, energy)
}

// Shuffle permutes the dataset in place.
func (d *Dataset) Shuffle(src *rng.Source) {
	src.Shuffle(d.Len(), func(i, j int) {
		d.Configs[i], d.Configs[j] = d.Configs[j], d.Configs[i]
		d.Conds[i], d.Conds[j] = d.Conds[j], d.Conds[i]
		d.Energies[i], d.Energies[j] = d.Energies[j], d.Energies[i]
	})
}

// Split divides the dataset into a training and validation set, with frac
// (0,1) of the samples in the training set.
func (d *Dataset) Split(frac float64) (train, val *Dataset) {
	n := int(frac * float64(d.Len()))
	if n < 1 {
		n = 1
	}
	if n > d.Len() {
		n = d.Len()
	}
	train = &Dataset{Configs: d.Configs[:n], Conds: d.Conds[:n], Energies: d.Energies[:n]}
	val = &Dataset{Configs: d.Configs[n:], Conds: d.Conds[n:], Energies: d.Energies[n:]}
	return train, val
}

// Copy returns a Dataset with fresh index slices over the same underlying
// configurations, so reordering the copy (Shuffle) leaves the original
// untouched. Configurations themselves are shared and must be treated as
// immutable.
func (d *Dataset) Copy() *Dataset {
	return &Dataset{
		Configs:  append([]lattice.Config(nil), d.Configs...),
		Conds:    append([]float64(nil), d.Conds...),
		Energies: append([]float64(nil), d.Energies...),
	}
}

// Shard returns the i-th of n contiguous shards (data-parallel workers
// each train on one shard).
func (d *Dataset) Shard(i, n int) *Dataset {
	lo := i * d.Len() / n
	hi := (i + 1) * d.Len() / n
	return &Dataset{Configs: d.Configs[lo:hi], Conds: d.Conds[lo:hi], Energies: d.Energies[lo:hi]}
}

// GenOptions controls training-set generation.
type GenOptions struct {
	Temps          []float64 // temperature ladder (K)
	SamplesPerTemp int       // configurations recorded per temperature
	EquilSweeps    int       // discarded equilibration sweeps (default 200)
	GapSweeps      int       // decorrelation sweeps between samples (default 10)
	Seed           uint64
	Quota          []int // fixed composition; nil = equiatomic (lattice.EquiQuota)
}

func (o *GenOptions) setDefaults(m *alloy.Model) {
	if o.EquilSweeps == 0 {
		o.EquilSweeps = 200
	}
	if o.GapSweeps == 0 {
		o.GapSweeps = 10
	}
	if o.Quota == nil {
		o.Quota = lattice.EquiQuota(m.Lattice().NumSites(), m.NumSpecies())
	}
}

// Generate runs one local-swap MC chain per ladder temperature (in
// parallel) and collects decorrelated configurations labelled with their
// normalized temperature.
func Generate(m *alloy.Model, opts GenOptions) (*Dataset, error) {
	return GenerateContext(context.Background(), m, opts)
}

// GenerateContext is Generate with cooperative cancellation. The chains
// poll ctx between sweeps; on cancellation the partial dataset collected so
// far is returned alongside ctx's error.
func GenerateContext(ctx context.Context, m *alloy.Model, opts GenOptions) (*Dataset, error) {
	if len(opts.Temps) == 0 || opts.SamplesPerTemp <= 0 {
		return nil, fmt.Errorf("workload: need temperatures and a positive sample count")
	}
	opts.setDefaults(m)
	total := 0
	for _, q := range opts.Quota {
		total += q
	}
	if total != m.Lattice().NumSites() {
		return nil, fmt.Errorf("workload: quota sums to %d for %d sites", total, m.Lattice().NumSites())
	}

	streams := rng.NewStreams(opts.Seed, len(opts.Temps))
	perTemp := make([]*Dataset, len(opts.Temps))
	done := ctx.Done()
	var wg sync.WaitGroup
	for ti, t := range opts.Temps {
		wg.Add(1)
		go func(ti int, t float64) {
			defer wg.Done()
			src := streams[ti]
			s := mc.NewSampler(m, lattice.QuotaConfig(opts.Quota, src), mc.NewSwapProposal(m), src)
			ds := &Dataset{}
			perTemp[ti] = ds
			for i := 0; i < opts.EquilSweeps; i++ {
				select {
				case <-done:
					return
				default:
				}
				s.Sweep(t)
			}
			cond := mc.CondForT(t)
			for i := 0; i < opts.SamplesPerTemp; i++ {
				for g := 0; g < opts.GapSweeps; g++ {
					s.Sweep(t)
				}
				ds.Append(s.Cfg.Clone(), cond, s.E)
				select {
				case <-done:
					return
				default:
				}
			}
		}(ti, t)
	}
	wg.Wait()

	all := &Dataset{}
	for _, ds := range perTemp {
		all.Configs = append(all.Configs, ds.Configs...)
		all.Conds = append(all.Conds, ds.Conds...)
		all.Energies = append(all.Energies, ds.Energies...)
	}
	all.Shuffle(rng.New(opts.Seed ^ 0xa5a5a5a5))
	if err := ctx.Err(); err != nil {
		return all, err
	}
	return all, nil
}

// TempLadder returns n temperatures geometrically spaced in [lo, hi], the
// conventional ladder shape (denser at low T where correlation grows).
func TempLadder(lo, hi float64, n int) []float64 {
	if n <= 1 {
		return []float64{lo}
	}
	out := make([]float64, n)
	ratio := hi / lo
	for i := range out {
		out[i] = lo * math.Pow(ratio, float64(i)/float64(n-1))
	}
	return out
}
