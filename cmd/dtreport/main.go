// Command dtreport runs the DeepThermo evaluation suite — experiments
// E1-E5 and ablation A6 — and writes a single markdown report with every
// regenerated table. It is the only front-end of package experiments and
// the tool behind EXPERIMENTS.md:
//
//	dtreport -out report.md            # full suite (several minutes)
//	dtreport -only E1,E2,A6            # a subset
//	dtreport -cells 2 -only E1         # smaller system for a fast look
//
// The methods-section cross-checks E11-E13 are tier-1 tests, not report
// sections: TestE11Validation and TestE13ChaosResilience in internal/rewl,
// TestE12CrossCheck in the root package. E6 is the benchmark's train.*
// metrics; the scaling studies E7-E10 are not reproduced (EXPERIMENTS.md,
// "Scaling").
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
	"strings"
	"time"

	"deepthermo"
	"deepthermo/internal/experiments"
)

// tableIDs lists every table dtreport regenerates, in report order.
var tableIDs = []string{
	"E1", "E2", "E3", "E4", "E5", "A6",
}

// parseOnly turns the -only flag (comma-separated table IDs, or "all")
// into the selected set. IDs are case-insensitive; an unknown ID is an
// error rather than an empty section.
func parseOnly(only string) (map[string]bool, error) {
	want := map[string]bool{}
	for _, raw := range strings.Split(only, ",") {
		id := strings.ToUpper(strings.TrimSpace(raw))
		switch {
		case id == "ALL":
			for _, t := range tableIDs {
				want[t] = true
			}
		case id == "A2":
			return nil, fmt.Errorf("A2 (latent-draw mode) has no section of its own: it is the dl-walk and dl-jump columns of E1")
		case slices.Contains(tableIDs, id):
			want[id] = true
		default:
			return nil, fmt.Errorf("unknown table ID %q", strings.TrimSpace(raw))
		}
	}
	return want, nil
}

// trainedSystem builds the report's system: a temperature-ladder dataset
// of 300 samples on each of 10 rungs over 250–3000 K, and a proposal
// model of latent 8 and hidden 96 trained for 60 epochs.
func trainedSystem(cells int, seed uint64) (*deepthermo.System, error) {
	sys, err := deepthermo.NewSystem(deepthermo.SystemConfig{Cells: cells, Seed: seed, Latent: 8, Hidden: 96})
	if err != nil {
		return nil, err
	}
	if _, err := sys.GenerateData(&deepthermo.DataConfig{TempLo: 250, TempHi: 3000, LadderLen: 10, SamplesPerTemp: 300}); err != nil {
		return nil, err
	}
	const epochs = 60
	return sys, sys.TrainProposal(&deepthermo.TrainOptions{
		Epochs: epochs, BatchSize: 32, LR: 2e-3, Seed: sys.Seed() + 17, KLWarmupEpochs: epochs / 3,
	})
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("dtreport: ")

	outPath := flag.String("out", "", "output file (default stdout)")
	only := flag.String("only", "all", "comma-separated table IDs ("+strings.Join(tableIDs, ",")+") or 'all'")
	cells := flag.Int("cells", 3, "BCC cells per axis of the sampling experiments' system")
	seed := flag.Uint64("seed", 1, "master seed")
	flag.Parse()

	want, err := parseOnly(*only)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dtreport: -only: %v\nvalid IDs: %s, all\n", err, strings.Join(tableIDs, ", "))
		os.Exit(2)
	}

	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		out = f
	}

	fmt.Fprintf(out, "# DeepThermo evaluation report\n\ngenerated %s\n\n", time.Now().Format(time.RFC3339))

	// The sampling experiments share one trained system.
	var sys *deepthermo.System
	if want["E1"] || want["E2"] || want["E5"] || want["A6"] {
		log.Printf("training the shared system (cells=%d)...", *cells)
		if sys, err = trainedSystem(*cells, *seed); err != nil {
			log.Fatal(err)
		}
	}

	section := func(id string, run func() (string, error)) {
		if !want[id] {
			return
		}
		log.Printf("running %s...", id)
		start := time.Now()
		body, err := run()
		if err != nil {
			log.Fatal(fmt.Errorf("%s: %w", id, err))
		}
		fmt.Fprintf(out, "## %s\n\n```\n%s```\n\n_(%.1fs)_\n\n", id, body, time.Since(start).Seconds())
	}

	section("E1", func() (string, error) {
		r, err := experiments.AcceptanceVsTemperature(sys, experiments.E1Options{IncludeJump: true})
		if err != nil {
			return "", err
		}
		return r.Format(), nil
	})
	section("E2", func() (string, error) {
		r, err := experiments.WLConvergence(sys, experiments.E2Options{Stages: 8})
		if err != nil {
			return "", err
		}
		return r.Format(), nil
	})
	var e3 *experiments.E3Result
	section("E3", func() (string, error) {
		r, err := experiments.DOSRange(experiments.E3Options{})
		if err != nil {
			return "", err
		}
		e3 = r
		return r.Format(), nil
	})
	section("E4", func() (string, error) {
		if e3 == nil {
			var err error
			e3, err = experiments.DOSRange(experiments.E3Options{CellSizes: []int{3}, Bins: 64})
			if err != nil {
				return "", err
			}
		}
		row := e3.Rows[len(e3.Rows)-1]
		r, err := experiments.Thermodynamics(e3.LargestDOS, row.Sites, e3.LargestQuota, experiments.E4Options{})
		if err != nil {
			return "", err
		}
		return r.Format(), nil
	})
	section("E5", func() (string, error) {
		r, err := experiments.ShortRangeOrder(sys, experiments.E5Options{})
		if err != nil {
			return "", err
		}
		return r.Format(), nil
	})
	section("A6", func() (string, error) {
		r, err := experiments.AblationScheduledMixture(sys, 0)
		if err != nil {
			return "", err
		}
		return r.Format(), nil
	})

	log.Print("done")
}
