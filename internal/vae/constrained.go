package vae

import (
	"fmt"
	"math"

	"deepthermo/internal/lattice"
	"deepthermo/internal/rng"
	"deepthermo/internal/tensor"
)

// The functions below implement composition-preserving sampling from the
// decoder's factorized categorical distribution. The physical ensemble is
// canonical — the number of atoms of each species is fixed — but an
// unconstrained factorized sample would almost never hit the exact
// composition on a large lattice. Instead, sites are visited in a given
// order and species are drawn from the decoder probabilities reweighted by
// the remaining quota of each species:
//
//	P(σ_site = a | history) ∝ p_site[a] · remaining[a]
//
// The product of these conditionals is a tractable proposal density over
// exactly-on-composition configurations, which is what the Metropolis-
// Hastings correction in mc.GlobalProposal evaluates. The visiting order is
// part of the proposal's auxiliary state.

// initRemaining validates quota against n sites and writes the float
// remaining-counts into rem (which must have len(quota) entries).
func initRemaining(rem []float64, quota []int, n int) error {
	total := 0
	for a, q := range quota {
		if q < 0 {
			return fmt.Errorf("vae: negative quota")
		}
		rem[a] = float64(q)
		total += q
	}
	if total != n {
		return fmt.Errorf("vae: quota sums to %d for %d sites", total, n)
	}
	return nil
}

// SampleConstrained draws a configuration with exact composition quota from
// the per-site distributions probs, visiting sites in the given order, and
// returns the configuration and its log proposal density. quota[a] must sum
// to len(probs); order must be a permutation of the site indices. It
// consumes exactly one uniform draw per site and is the allocating
// reference for SampleAndReverse's forward half.
func SampleConstrained(probs [][]float64, quota []int, order []int, src *rng.Source) (lattice.Config, float64, error) {
	n := len(probs)
	if len(order) != n {
		return nil, 0, fmt.Errorf("vae: order has %d entries for %d sites", len(order), n)
	}
	remaining, args := make([]float64, len(quota)), make([]float64, n)
	if err := initRemaining(remaining, quota, n); err != nil {
		return nil, 0, err
	}
	dst := make(lattice.Config, n)
	for i, site := range order {
		choice, arg := drawSite(probs[site], remaining, src)
		dst[site] = lattice.Species(choice)
		args[i] = arg
		remaining[choice]--
	}
	return dst, sumLogs(args), nil
}

// splitScratch returns scratch (allocated when nil) as k remaining-quota
// entries and n log arguments.
func splitScratch(scratch []float64, k, n int) (remaining, args []float64, err error) {
	if scratch == nil {
		scratch = make([]float64, k+n)
	} else if len(scratch) < k+n {
		return nil, nil, fmt.Errorf("vae: scratch has %d entries for %d species and %d sites", len(scratch), k, n)
	}
	return scratch[:k], scratch[k : k+n], nil
}

// sumLogs returns Σ ln args[i], summed from 0 in ascending i — the site
// visiting order — after one tensor.Log pass that overwrites args.
func sumLogs(args []float64) float64 {
	tensor.Log(args, args)
	sum := 0.0
	for _, v := range args {
		sum += v
	}
	return sum
}

// drawSite draws one species from p reweighted by the remaining quota and
// returns the choice with its conditional probability, the argument of
// the log the caller sums. The k=4 path (the usual HEA species count)
// performs the identical multiplies, partial sums, and comparisons as the
// generic loop, so the draw and its probability are bit-identical.
func drawSite(p []float64, remaining []float64, src *rng.Source) (int, float64) {
	if len(remaining) == 4 && len(p) == 4 {
		w0 := p[0] * remaining[0]
		w1 := p[1] * remaining[1]
		w2 := p[2] * remaining[2]
		w3 := p[3] * remaining[3]
		norm := ((w0 + w1) + w2) + w3
		u := src.Float64() * norm
		choice := -1
		var w float64
		acc := w0
		if u < acc {
			choice, w = 0, w0
		} else if acc += w1; u < acc {
			choice, w = 1, w1
		} else if acc += w2; u < acc {
			choice, w = 2, w2
		} else if acc += w3; u < acc {
			choice, w = 3, w3
		}
		if choice < 0 { // fp edge: u == norm
			for a := 3; a >= 0; a-- {
				if remaining[a] > 0 {
					choice = a
					break
				}
			}
			w = p[choice] * remaining[choice]
		}
		return choice, w / norm
	}
	var norm float64
	for a, r := range remaining {
		norm += p[a] * r
	}
	// norm > 0 always: softmax probabilities are strictly positive and
	// some species has remaining quota while sites remain.
	u := src.Float64() * norm
	var acc float64
	choice := -1
	for a, r := range remaining {
		acc += p[a] * r
		if u < acc {
			choice = a
			break
		}
	}
	if choice < 0 { // fp edge: u == norm
		for a := len(remaining) - 1; a >= 0; a-- {
			if remaining[a] > 0 {
				choice = a
				break
			}
		}
	}
	return choice, p[choice] * remaining[choice] / norm
}

// LogProbConstrained returns the log density of cfg under the constrained
// sampling scheme with the given per-site distributions, quota, and order.
// It is the reverse-move density of the exact MH correction, and the
// allocating reference for SampleAndReverse's reverse half.
func LogProbConstrained(probs [][]float64, cfg lattice.Config, quota []int, order []int) (float64, error) {
	n := len(probs)
	if len(cfg) != n || len(order) != n {
		return 0, fmt.Errorf("vae: size mismatch (%d probs, %d cfg, %d order)", n, len(cfg), len(order))
	}
	remaining, args := make([]float64, len(quota)), make([]float64, n)
	for a, q := range quota {
		remaining[a] = float64(q)
	}
	for i, site := range order {
		p := probs[site]
		var norm float64
		for a, r := range remaining {
			norm += p[a] * r
		}
		a := int(cfg[site])
		if a >= len(remaining) || remaining[a] <= 0 {
			return math.Inf(-1), nil // cfg violates the quota: impossible under this proposal
		}
		args[i] = p[a] * remaining[a] / norm
		remaining[a]--
	}
	return sumLogs(args), nil
}

// SampleAndReverse is SampleConstrained fused with LogProbConstrained of
// old under the same probs and order: the per-site probability rows are
// read once instead of twice, and no allocation occurs when dst and the
// scratch arguments are non-nil. fwd and rev each hold len(quota) entries
// of remaining quota followed by one log argument per site. Both log
// densities are summed in the same per-site order as the two reference
// functions, so the results are bit-identical to calling them separately
// (the vae tests and the mc correction property test rely on this). It consumes exactly one uniform draw per site — the reverse
// evaluation draws nothing.
func SampleAndReverse(probs [][]float64, quota []int, order []int, old lattice.Config, src *rng.Source, dst lattice.Config, fwd, rev []float64) (lattice.Config, float64, float64, error) {
	n := len(probs)
	if len(order) != n || len(old) != n {
		return nil, 0, 0, fmt.Errorf("vae: size mismatch (%d probs, %d old, %d order)", n, len(old), len(order))
	}
	remFwd, argsFwd, err := splitScratch(fwd, len(quota), n)
	if err != nil {
		return nil, 0, 0, err
	}
	remRev, argsRev, err := splitScratch(rev, len(quota), n)
	if err != nil {
		return nil, 0, 0, err
	}
	if err := initRemaining(remFwd, quota, n); err != nil {
		return nil, 0, 0, err
	}
	for a, q := range quota {
		remRev[a] = float64(q)
	}
	if dst == nil {
		dst = make(lattice.Config, n)
	} else if len(dst) != n {
		return nil, 0, 0, fmt.Errorf("vae: dst has %d sites for %d probs", len(dst), n)
	}
	revValid := true
	for i, site := range order {
		p := probs[site]
		choice, arg := drawSite(p, remFwd, src)
		dst[site] = lattice.Species(choice)
		argsFwd[i] = arg
		remFwd[choice]--

		if revValid {
			var norm float64
			if len(remRev) == 4 && len(p) == 4 {
				norm = ((p[0]*remRev[0] + p[1]*remRev[1]) + p[2]*remRev[2]) + p[3]*remRev[3]
			} else {
				for a, r := range remRev {
					norm += p[a] * r
				}
			}
			a := int(old[site])
			if a >= len(remRev) || remRev[a] <= 0 {
				revValid = false // old violates the quota: density zero
			} else {
				argsRev[i] = p[a] * remRev[a] / norm
				remRev[a]--
			}
		}
	}
	logRev := math.Inf(-1)
	if revValid {
		logRev = sumLogs(argsRev)
	}
	return dst, sumLogs(argsFwd), logRev, nil
}
