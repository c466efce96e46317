// Package experiments implements the DeepThermo evaluation suite's report
// tables: one entry point per reconstructed table/figure E1-E5 and for
// ablation A6 (see DESIGN.md). cmd/dtreport is its only front-end — each
// table is the section `dtreport -only <ID>` writes. The methods-section
// cross-checks E11-E13 are tier-1 tests in internal/rewl and the root
// package instead.
package experiments

import (
	"fmt"

	"deepthermo/internal/alloy"
	"deepthermo/internal/lattice"
	"deepthermo/internal/mc"
	"deepthermo/internal/rng"
	"deepthermo/internal/train"
	"deepthermo/internal/vae"
	"deepthermo/internal/workload"
)

// Testbed is the shared experimental setup: the NbMoTaW-like refractory
// HEA on a BCC supercell with a trained conditional-VAE proposal model.
type Testbed struct {
	Lat        *lattice.Lattice
	Ham        *alloy.Model
	Quota      []int
	Model      *vae.Model
	TrainStats []train.EpochStats
	Dataset    *workload.Dataset
	Seed       uint64
}

// TestbedOptions sizes a testbed. Zero values select the defaults noted.
type TestbedOptions struct {
	Cells          int     // BCC cells per axis (default 3 → 54 atoms)
	Seed           uint64  // master seed (default 1)
	SamplesPerTemp int     // training configurations per ladder rung (default 300)
	Epochs         int     // VAE training epochs (default 60)
	Latent         int     // latent dimension (default 8)
	Hidden         int     // hidden width (default 96)
	TempLo, TempHi float64 // training-data temperature ladder (default 250..3000 K)
	LadderLen      int     // ladder rungs (default 10)
}

func (o *TestbedOptions) setDefaults() {
	if o.Cells == 0 {
		o.Cells = 3
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.SamplesPerTemp == 0 {
		o.SamplesPerTemp = 300
	}
	if o.Epochs == 0 {
		o.Epochs = 60
	}
	if o.Latent == 0 {
		o.Latent = 8
	}
	if o.Hidden == 0 {
		o.Hidden = 96
	}
	if o.TempLo == 0 {
		o.TempLo = 250
	}
	if o.TempHi == 0 {
		o.TempHi = 3000
	}
	if o.LadderLen == 0 {
		o.LadderLen = 10
	}
}

// EquiQuota returns the near-equiatomic composition for n sites and k
// species (remainder on the leading species, matching the paper's
// equiatomic NbMoTaW).
func EquiQuota(n, k int) []int {
	q := make([]int, k)
	for i := range q {
		q[i] = n / k
	}
	for i := 0; i < n-(n/k)*k; i++ {
		q[i]++
	}
	return q
}

// QuotaConfig builds a shuffled configuration with the exact composition.
func QuotaConfig(quota []int, src *rng.Source) lattice.Config {
	n := 0
	for _, q := range quota {
		n += q
	}
	cfg := make(lattice.Config, 0, n)
	for sp, q := range quota {
		for i := 0; i < q; i++ {
			cfg = append(cfg, lattice.Species(sp))
		}
	}
	src.Shuffle(len(cfg), func(i, j int) { cfg[i], cfg[j] = cfg[j], cfg[i] })
	return cfg
}

// NewTestbed builds the lattice, Hamiltonian, training set, and trained
// VAE with the standard DeepThermo recipe (temperature-ladder data,
// KL-warmup Adam training).
func NewTestbed(opts TestbedOptions) (*Testbed, error) {
	opts.setDefaults()
	lat, err := lattice.New(lattice.BCC, opts.Cells, opts.Cells, opts.Cells)
	if err != nil {
		return nil, err
	}
	ham := alloy.NbMoTaW(lat)
	n := lat.NumSites()
	quota := EquiQuota(n, 4)

	ds, err := workload.Generate(ham, workload.GenOptions{
		Temps:          workload.TempLadder(opts.TempLo, opts.TempHi, opts.LadderLen),
		SamplesPerTemp: opts.SamplesPerTemp,
		EquilSweeps:    150,
		GapSweeps:      5,
		Seed:           opts.Seed + 7,
		Quota:          quota,
	})
	if err != nil {
		return nil, err
	}

	vcfg := vae.Config{Sites: n, Species: 4, Latent: opts.Latent, Hidden: opts.Hidden, BetaKL: 1.0}
	model, err := vae.New(vcfg, rng.New(opts.Seed+13))
	if err != nil {
		return nil, err
	}
	stats, err := train.Fit(model, ds, train.Options{
		Epochs:         opts.Epochs,
		BatchSize:      32,
		LR:             2e-3,
		Seed:           opts.Seed + 17,
		KLWarmupEpochs: opts.Epochs / 3,
	})
	if err != nil {
		return nil, err
	}
	return &Testbed{Lat: lat, Ham: ham, Quota: quota, Model: model, TrainStats: stats, Dataset: ds, Seed: opts.Seed}, nil
}

// NewDLProposal builds a walker-owned DL proposal from the testbed model.
func (tb *Testbed) NewDLProposal(tKelvin float64, mode mc.GlobalMode, src *rng.Source) *mc.GlobalProposal {
	p := mc.NewGlobalProposal(tb.Model.CloneWeights(src), tb.Ham, tb.Quota, mc.CondForT(tKelvin))
	p.SetMode(mode)
	return p
}

// NewMixtureProposal builds the production proposal: mostly local swaps
// with a fraction dlWeight of DL global moves.
func (tb *Testbed) NewMixtureProposal(tKelvin, dlWeight float64, mode mc.GlobalMode, src *rng.Source) mc.Proposal {
	return mc.NewMixture(
		[]mc.Proposal{mc.NewSwapProposal(tb.Ham), tb.NewDLProposal(tKelvin, mode, src)},
		[]float64{1 - dlWeight, dlWeight},
	)
}

// fmtHeader renders an experiment banner used by all report formatters.
func fmtHeader(id, title string) string {
	return fmt.Sprintf("== %s: %s ==\n", id, title)
}
