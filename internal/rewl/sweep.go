package rewl

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"deepthermo/internal/wanglandau"
)

// sweepScratch is the sweep phase's per-round bookkeeping, kept on the
// ownerState and reused from round to round. done and dead are indexed by
// the flat walker index offsets[wi]+k.
type sweepScratch struct {
	offsets      []int
	done, dead   []atomic.Bool
	participants []int
	wg           sync.WaitGroup
}

// sweepPhase is one round's parallel sweep: every live, unconverged walker
// advances by opts.ExchangeInterval sweeps independently, polling for
// cancellation and abandonment between sweeps. Fault injection is keyed on
// the walker's global slot — (o.lo+wi)·WalkersPerWindow+k — and the
// walker's own sweep count, so it is independent of goroutine scheduling,
// survives checkpoint/restart, and addresses the same walker whether the
// windows sit on one rank (o.lo 0, all windows) or are sharded across
// transport ranks (o.lo = the rank's first window). Walker slices may
// be longer than WalkersPerWindow when the adaptive controller has
// migrated walkers in; migrant slots (k ≥ WalkersPerWindow) carry slot -1,
// which no chaos plan addresses, so fault plans keep targeting the static
// population they were written against. Newly dead walkers (crashes,
// panics, straggler timeouts) are cleared from o.alive.
func (o *ownerState) sweepPhase(ctx context.Context) {
	opts, walkers, alive := &o.opts, o.walkers, o.alive
	nWalk := opts.WalkersPerWindow
	done := ctx.Done()
	if o.sweep == nil {
		o.sweep = new(sweepScratch)
	}
	sc := o.sweep
	// Flat index over the (possibly ragged) walker slices.
	sc.offsets = append(sc.offsets[:0], 0)
	for wi := range walkers {
		sc.offsets = append(sc.offsets, sc.offsets[wi]+len(walkers[wi]))
	}
	offsets := sc.offsets
	if n := offsets[len(walkers)]; n > len(sc.done) {
		sc.done, sc.dead = make([]atomic.Bool, n), make([]atomic.Bool, n)
	}
	for i := range sc.dead {
		sc.dead[i].Store(false)
	}
	sc.participants = sc.participants[:0]

	// abandon stays nil — a select case that never fires — unless a
	// straggler timeout is set.
	var abandon chan struct{}
	if opts.WalkerTimeout > 0 {
		abandon = make(chan struct{})
	}
	for wi := range walkers {
		for k, w := range walkers[wi] {
			if w == nil || !alive[wi][k] || w.Converged() {
				continue
			}
			local := offsets[wi] + k
			slot := -1
			if k < nWalk {
				slot = (o.lo+wi)*nWalk + k
			}
			sc.done[local].Store(false)
			sc.participants = append(sc.participants, local)
			sc.wg.Add(1)
			go func(w *wanglandau.Walker, local, slot int) {
				defer sc.wg.Done()
				defer sc.done[local].Store(true)
				defer func() {
					if r := recover(); r != nil {
						sc.dead[local].Store(true)
					}
				}()
				for s := 0; s < opts.ExchangeInterval; s++ {
					select {
					case <-done:
						return
					case <-abandon:
						return
					default:
					}
					if opts.Faults.ShouldCrash(slot, w.Sweeps()) {
						sc.dead[local].Store(true)
						return
					}
					if d := opts.Faults.SweepDelay(slot, w.Sweeps()); d > 0 {
						t := time.NewTimer(d)
						select {
						case <-t.C:
						case <-done:
							t.Stop()
							return
						case <-abandon:
							t.Stop()
							return
						}
					}
					w.Sweep()
				}
			}(w, local, slot)
		}
	}
	if opts.WalkerTimeout > 0 {
		roundDone := make(chan struct{})
		go func() { sc.wg.Wait(); close(roundDone) }()
		timer := time.NewTimer(opts.WalkerTimeout)
		select {
		case <-roundDone:
			timer.Stop()
		case <-timer.C:
			// Stragglers are declared dead and abandoned: the driver
			// never reads their state again, and their goroutines exit
			// at the next sweep boundary (injected stalls are
			// interruptible, so chaos tests converge promptly). They
			// still hold this round's scratch — its wait group and
			// flags — so the next round starts a fresh one.
			for _, local := range sc.participants {
				if !sc.done[local].Load() {
					sc.dead[local].Store(true)
				}
			}
			close(abandon)
			o.sweep = nil
		}
	} else {
		sc.wg.Wait()
	}
	for wi := range walkers {
		for k := range walkers[wi] {
			if sc.dead[offsets[wi]+k].Load() {
				alive[wi][k] = false
			}
		}
	}
}
