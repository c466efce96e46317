package rewl

// Owner state: the windows one rank hosts, shared by the leader (locally)
// and the workers (behind the command loop).

import (
	"context"
	"fmt"
	"math"

	"deepthermo/internal/alloy"
	"deepthermo/internal/cacheline"
	"deepthermo/internal/lattice"
	"deepthermo/internal/rng"
	"deepthermo/internal/wanglandau"
)

type ownerState struct {
	opts    Options
	windows []wanglandau.Window    // the whole ladder
	lo      int                    // first owned window
	walkers [][]*wanglandau.Walker // [wi-lo][k], one entry per owned window
	alive   [][]bool
	sweep   *sweepScratch // reused across rounds; nil until the first sweep
}

// newOwnerState builds the rank's walkers fresh. Walker k of window wi
// draws from stream wi·WalkersPerWindow+k of the jump-separated family, so
// a walker's chain does not depend on which rank hosts its window.
func newOwnerState(m *alloy.Model, seedCfg lattice.Config, windows []wanglandau.Window, newProposal ProposalFactory, opts Options, lo, hi int) (*ownerState, error) {
	nWalk := opts.WalkersPerWindow
	streams := rng.NewStreams(opts.Seed, len(windows)*nWalk+1)
	o := &ownerState{opts: opts, windows: windows, lo: lo}
	for wi := lo; wi < hi; wi++ {
		ws := make([]*wanglandau.Walker, nWalk)
		al := make([]bool, nWalk)
		for k := 0; k < nWalk; k++ {
			src := streams[wi*nWalk+k]
			cfg := seedCfg.Clone()
			if _, err := wanglandau.PrepareInWindow(m, cfg, windows[wi], src, opts.PrepareSweeps); err != nil {
				return nil, fmt.Errorf("rewl: window %d walker %d: %w", wi, k, err)
			}
			w, err := wanglandau.NewWalker(m, cfg, newProposal(wi, k, src), src, windows[wi], opts.WL)
			if err != nil {
				return nil, fmt.Errorf("rewl: window %d walker %d: %w", wi, k, err)
			}
			ws[k] = w
			al[k] = true
		}
		o.walkers = append(o.walkers, ws)
		o.alive = append(o.alive, al)
	}
	return o, nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// reportWindowFields is the number of per-window fields of a round report
// between the walker fields and the consensus ln g.
const reportWindowFields = 8

// round is an owner's whole part of one REWL round (dopSweep): the sweep
// phase over the owned windows, the within-window ln g consensus merge, the
// stage transitions — a window whose surviving walkers are all flat and not
// all converged ends its stage — and the report the leader's coordination
// phase reads and builds the Result from. A cancelled sweep phase leaves
// the round partial: its windows are merged, but it reports nothing (nil)
// and ends no stage, and the leader stops on rank 0's nil.
//
// The report holds, per owned window: the walker count n; per walker
// [alive, energy] (dead slots ship zeros); [converged, ended, lnF, sweeps,
// flatness, coverage, accepted, proposed]; then the consensus ln g. A
// window without survivors ships zeros for all of it. converged and lnF
// describe the window after its stage transition, as its checkpoint holds
// it; ended is the ln f the window ended a stage at, 0 when it ended none
// (a stage ends only at ln f ≥ LnFFinal > 0). sweeps, accepted and
// proposed are summed over the surviving walkers, flatness and coverage
// are the worst over them before the transition.
func (o *ownerState) round(ctx context.Context) []float64 {
	o.sweepPhase(ctx)
	aws := make([][]*wanglandau.Walker, len(o.walkers))
	for i, ws := range o.walkers {
		aws[i] = aliveIn(ws, o.alive[i])
		mergeWindowDOS(aws[i])
	}
	if ctx.Err() != nil {
		return nil
	}
	n := 0
	for i, ws := range o.walkers {
		n += 1 + 2*len(ws) + reportWindowFields + o.windows[o.lo+i].Bins
	}
	msg := make([]float64, 0, n)
	for i, ws := range o.walkers {
		al, aw := o.alive[i], aws[i]
		msg = append(msg, float64(len(ws)))
		for k, w := range ws {
			if w == nil || !al[k] {
				msg = append(msg, 0, 0)
				continue
			}
			msg = append(msg, 1, w.Energy())
		}
		if len(aw) == 0 {
			msg = append(msg, make([]float64, reportWindowFields+o.windows[o.lo+i].Bins)...)
			continue
		}
		flat := true
		var sweeps, acc, prop int64
		flatness, coverage := math.Inf(1), math.Inf(1)
		for _, w := range aw {
			flat = flat && w.Flat()
			sweeps += w.Sweeps()
			acc += w.Sampler().Accepted
			prop += w.Sampler().Proposed
			flatness = math.Min(flatness, w.FlatnessRatio())
			coverage = math.Min(coverage, w.Coverage())
		}
		ended := 0.0
		if flat && !windowConverged(aw) {
			ended = aw[0].LnF()
			for _, w := range aw {
				w.EndStage()
			}
		}
		msg = append(msg, b2f(windowConverged(aw)), ended, aw[0].LnF(), float64(sweeps), flatness, coverage, float64(acc), float64(prop))
		msg = append(msg, aw[0].DOS().LogG...)
	}
	return msg
}

// getCfg returns a walker's configuration and energy for an accepted swap.
func (o *ownerState) getCfg(wi, k int) (e float64, cfg []float64) {
	w := o.walkers[wi-o.lo][k]
	s := w.Sampler()
	cfg = make([]float64, len(s.Cfg))
	for i, sp := range s.Cfg {
		cfg[i] = float64(sp)
	}
	return s.E, cfg
}

// setCfg installs the partner's configuration and energy — the walker's
// half of an accepted configuration swap — by copying into the
// configuration the walker owns: re-pointing Cfg at a fresh slice would
// move it out of the walker's cache lines. Only a payload of another
// lattice size, which no well-formed peer sends, still replaces the slice.
func (o *ownerState) setCfg(wi, k int, e float64, cfg []float64) {
	s := o.walkers[wi-o.lo][k].Sampler()
	if len(s.Cfg) != len(cfg) {
		s.Cfg = cacheline.Make[lattice.Species](len(cfg))
	}
	for i, v := range cfg {
		s.Cfg[i] = lattice.Species(v)
	}
	s.E = e
}
