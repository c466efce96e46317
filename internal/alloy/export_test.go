package alloy

import "deepthermo/internal/lattice"

// RefSwapDeltaE is the mutate-and-sum form of SwapDeltaE: the local
// energies of i and j on the configuration, then on the configuration with
// the two sites swapped, each evaluated by siteEnergy. SwapDeltaE must
// return its bits exactly; it writes cfg and restores it, so it is not safe
// for concurrent readers.
func RefSwapDeltaE(m *Model, cfg lattice.Config, i, j int) float64 {
	a, b := cfg[i], cfg[j]
	if a == b {
		return 0
	}
	before := m.siteEnergy(cfg, i, a) + m.siteEnergy(cfg, j, b)
	cfg[i], cfg[j] = b, a
	after := m.siteEnergy(cfg, i, b) + m.siteEnergy(cfg, j, a)
	cfg[i], cfg[j] = a, b
	return after - before
}
