// Package experiments implements the DeepThermo evaluation suite's report
// tables: one entry point per reconstructed table/figure E1-E5 and for
// ablation A6 (see DESIGN.md). The sampling tables run on a trained
// deepthermo.System, the system users, dtserve and the benchmark run;
// E3 builds one per cell size. cmd/dtreport is its only front-end — each
// table is the section `dtreport -only <ID>` writes. The methods-section
// cross-checks E11-E13 are tier-1 tests in internal/rewl and the root
// package instead.
package experiments

import (
	"fmt"

	"deepthermo"
	"deepthermo/internal/mc"
	"deepthermo/internal/rng"
)

// newDLProposal builds a walker-owned DL proposal over the walker's
// replica of the system's trained model.
func newDLProposal(sys *deepthermo.System, tKelvin float64, mode mc.GlobalMode, src *rng.Source) *mc.GlobalProposal {
	p := mc.NewGlobalProposal(sys.WalkerModel(src), sys.Ham, sys.Quota, mc.CondForT(tKelvin))
	p.SetMode(mode)
	return p
}

// newMixtureProposal builds the production proposal: mostly local swaps
// with a fraction dlWeight of DL global moves.
func newMixtureProposal(sys *deepthermo.System, tKelvin, dlWeight float64, mode mc.GlobalMode, src *rng.Source) *mc.Mixture {
	return mc.NewMixture(
		[]mc.Proposal{mc.NewSwapProposal(sys.Ham), newDLProposal(sys, tKelvin, mode, src)},
		[]float64{1 - dlWeight, dlWeight},
	)
}

// fmtHeader renders an experiment banner used by all report formatters.
func fmtHeader(id, title string) string {
	return fmt.Sprintf("== %s: %s ==\n", id, title)
}
