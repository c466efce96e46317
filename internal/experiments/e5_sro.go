package experiments

import (
	"fmt"
	"strings"

	"deepthermo"
	"deepthermo/internal/alloy"
	"deepthermo/internal/lattice"
	"deepthermo/internal/mc"
	"deepthermo/internal/rng"
)

// E5Options configures the short-range-order study.
type E5Options struct {
	Temps       []float64 // default 200..3000, 10 points
	EquilSweeps int       // default 400
	MeasSweeps  int       // default 200
	Samples     int       // SRO snapshots per temperature (default 20)
	Seed        uint64
}

// E5Row is one temperature's Warren-Cowley parameters for the chemically
// active pairs of the NbMoTaW preset (shell 1).
type E5Row struct {
	T             float64
	AlphaMoTa     float64 // strongest ordering pair
	AlphaNbW      float64 // second ordering pair
	AlphaMoW      float64 // weakly clustering pair
	EtaB2         float64 // max |B2 long-range order parameter| over species
	EnergyPerSite float64
}

// E5Result is the SRO-vs-temperature table (reconstructed Fig. E5): the
// onset of chemical short-range order marks the same transition E4 finds
// in C_v.
type E5Result struct {
	Sites int
	Rows  []E5Row
	// OnsetT is the temperature where |α_MoTa| first exceeds half its
	// lowest-temperature magnitude (scanning from hot to cold).
	OnsetT float64
}

// ShortRangeOrder measures equilibrium Warren-Cowley parameters across a
// temperature ladder with canonical swap MC.
func ShortRangeOrder(sys *deepthermo.System, opts E5Options) (*E5Result, error) {
	if opts.Temps == nil {
		opts.Temps = []float64{200, 400, 600, 800, 1000, 1300, 1600, 2000, 2500, 3000}
	}
	if opts.EquilSweeps == 0 {
		opts.EquilSweeps = 400
	}
	if opts.MeasSweeps == 0 {
		opts.MeasSweeps = 200
	}
	if opts.Samples == 0 {
		opts.Samples = 20
	}
	if opts.Seed == 0 {
		opts.Seed = sys.Seed() + 500
	}

	res := &E5Result{Sites: sys.Lat.NumSites()}
	rows := make([]E5Row, len(opts.Temps))
	for ti, t := range opts.Temps {
		src := rng.New(opts.Seed + uint64(ti)*0x77)
		cfg := lattice.QuotaConfig(sys.Quota, src)
		s := mc.NewSampler(sys.Ham, cfg, mc.NewSwapProposal(sys.Ham), src)
		for i := 0; i < opts.EquilSweeps; i++ {
			s.Sweep(t)
		}
		var aMoTa, aNbW, aMoW, eta, e float64
		gap := opts.MeasSweeps / opts.Samples
		if gap < 1 {
			gap = 1
		}
		for snap := 0; snap < opts.Samples; snap++ {
			for g := 0; g < gap; g++ {
				s.Sweep(t)
			}
			alpha := lattice.WarrenCowley(sys.Lat, s.Cfg, 0, 4)
			aMoTa += alpha[alloy.Mo][alloy.Ta]
			aNbW += alpha[alloy.Nb][alloy.W]
			aMoW += alpha[alloy.Mo][alloy.W]
			etas, err := lattice.B2OrderParameters(sys.Lat, s.Cfg, 4)
			if err != nil {
				return nil, err
			}
			max := 0.0
			for _, v := range etas {
				if v > max {
					max = v
				}
			}
			eta += max
			e += s.E
		}
		k := float64(opts.Samples)
		rows[ti] = E5Row{
			T:             t,
			AlphaMoTa:     aMoTa / k,
			AlphaNbW:      aNbW / k,
			AlphaMoW:      aMoW / k,
			EtaB2:         eta / k,
			EnergyPerSite: e / k / float64(res.Sites),
		}
	}
	res.Rows = rows

	// Onset: scan from hot to cold for |α_MoTa| crossing half the coldest
	// magnitude.
	coldest := rows[0]
	for _, r := range rows {
		if r.T < coldest.T {
			coldest = r
		}
	}
	half := coldest.AlphaMoTa / 2
	res.OnsetT = rows[0].T
	for i := len(rows) - 1; i >= 0; i-- { // rows ascend in T; scan downward
		if rows[i].AlphaMoTa <= half { // α is negative for ordering
			res.OnsetT = rows[i].T
			break
		}
	}
	return res, nil
}

// Format renders the E5 table.
func (r *E5Result) Format() string {
	var b strings.Builder
	b.WriteString(fmtHeader("E5", fmt.Sprintf("Warren-Cowley short-range order vs temperature (N=%d, shell 1)", r.Sites)))
	fmt.Fprintf(&b, "%8s %12s %12s %12s %10s %14s\n", "T(K)", "α(Mo-Ta)", "α(Nb-W)", "α(Mo-W)", "|η(B2)|", "E/N (eV)")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%8.0f %12.4f %12.4f %12.4f %10.4f %14.5f\n",
			row.T, row.AlphaMoTa, row.AlphaNbW, row.AlphaMoW, row.EtaB2, row.EnergyPerSite)
	}
	fmt.Fprintf(&b, "SRO onset (|α_MoTa| half-maximum): T ≈ %.0f K\n", r.OnsetT)
	return b.String()
}
