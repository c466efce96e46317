// Package chaos provides deterministic, seed-driven fault plans for
// exercising the fault-tolerance paths of the parallel samplers (package
// rewl) and the message-passing layer (package transport).
//
// At the scale the DeepThermo paper targets — thousands of GPUs on
// Summit/Crusher — node failures and stragglers are routine, and a
// production REWL deployment must survive them. A Plan is the simulated
// cluster's failure script: which rank fails, at which step, and how.
// Because plans are pure functions of a seed, every chaos experiment and
// fault-injection test replays bit-identically, which is what lets the
// test suite assert exact degraded-mode behavior instead of flaky
// timing-dependent outcomes.
//
// The "step" axis is interpreted by the consumer: package rewl queries
// faults by a walker's own sweep count (scheduling-independent), package
// transport by an endpoint's operation sequence number.
package chaos

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"deepthermo/internal/rng"
)

// Kind enumerates injectable fault types.
type Kind int

const (
	// Crash permanently fails the rank at the configured step: a rewl
	// walker exits mid-run; a transport rank's later operations error with
	// ErrRankFailed.
	Crash Kind = iota
	// DropSend silently discards the rank's send with the configured
	// sequence number (a lost message).
	DropSend
	// DelaySend stalls the rank's send with the configured sequence number
	// by Delay (network congestion).
	DelaySend
	// DelaySweep stalls the rank before its configured sweep by Delay (a
	// straggler walker, detected by the rewl driver's walker timeout).
	DelaySweep
	// LoseHeartbeat silences the rank's lease heartbeats from the
	// configured renewal sequence number onward: the replica keeps running
	// its job but stops renewing its lease, modelling a GC pause, SIGSTOP,
	// or partitioned replica whose lease expires under it. Queried by the
	// fleet lease store via HeartbeatLost.
	LoseHeartbeat
	// StaleWrite delays the rank's fenced commit with the configured
	// sequence number until after its lease TTL has elapsed unrenewed, so
	// the commit arrives from a stale owner and must be rejected by fence
	// validation once a successor holds the lease. Queried via
	// StaleWriteAt.
	StaleWrite
	// TornLease tears the rank's lease renewal with the configured
	// sequence number: the lease file is left with truncated content, as
	// if power was lost mid-write, exercising the corrupt-lease recovery
	// path (fence-file token restoration). Queried via TornLeaseAt.
	TornLease
)

// String returns a short identifier for reports.
func (k Kind) String() string {
	switch k {
	case Crash:
		return "crash"
	case DropSend:
		return "drop-send"
	case DelaySend:
		return "delay-send"
	case DelaySweep:
		return "delay-sweep"
	case LoseHeartbeat:
		return "lose-heartbeat"
	case StaleWrite:
		return "stale-write"
	case TornLease:
		return "torn-lease"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Fault schedules one fault: rank Rank experiences Kind at step Step (a
// sweep count for walker faults, an op sequence number for transport faults).
type Fault struct {
	Rank  int
	Step  int64
	Kind  Kind
	Delay time.Duration // DelaySend / DelaySweep only
}

// Plan is an immutable fault schedule, queryable by rank. A nil *Plan is
// the valid empty plan (no faults), so consumers thread it unconditionally.
type Plan struct {
	faults map[int][]Fault // per rank, sorted by step
	crash  map[int]int64   // first crash step per rank
}

// NewPlan builds a plan from an explicit fault list. A rank with several
// Crash entries fails at the earliest.
func NewPlan(faults ...Fault) *Plan {
	p := &Plan{faults: make(map[int][]Fault), crash: make(map[int]int64)}
	for _, f := range faults {
		p.faults[f.Rank] = append(p.faults[f.Rank], f)
		if f.Kind == Crash {
			if cur, ok := p.crash[f.Rank]; !ok || f.Step < cur {
				p.crash[f.Rank] = f.Step
			}
		}
	}
	for r := range p.faults {
		fs := p.faults[r]
		sort.Slice(fs, func(i, j int) bool { return fs[i].Step < fs[j].Step })
	}
	return p
}

// SampleOptions parameterizes Sample.
type SampleOptions struct {
	// Ranks is the number of ranks (walkers) the plan covers.
	Ranks int
	// CrashProb is each rank's probability of one permanent crash.
	CrashProb float64
	// CrashMinStep/CrashMaxStep bound the uniform crash step,
	// [CrashMinStep, CrashMaxStep). Defaults [0, 1000).
	CrashMinStep, CrashMaxStep int64
	// DropProb is each rank's probability of one dropped send, with the
	// sequence number uniform in [0, DropMaxSeq) (default 100).
	DropProb   float64
	DropMaxSeq int64
}

// Sample draws a deterministic plan from seed: every rank independently
// receives faults with the configured probabilities. The same seed and
// options always produce the same plan.
func Sample(seed uint64, opts SampleOptions) *Plan {
	if opts.CrashMaxStep <= opts.CrashMinStep {
		opts.CrashMinStep, opts.CrashMaxStep = 0, 1000
	}
	if opts.DropMaxSeq <= 0 {
		opts.DropMaxSeq = 100
	}
	src := rng.New(seed)
	var faults []Fault
	for r := 0; r < opts.Ranks; r++ {
		if src.Float64() < opts.CrashProb {
			step := opts.CrashMinStep + int64(src.Intn(int(opts.CrashMaxStep-opts.CrashMinStep)))
			faults = append(faults, Fault{Rank: r, Step: step, Kind: Crash})
		}
		if src.Float64() < opts.DropProb {
			faults = append(faults, Fault{Rank: r, Step: int64(src.Intn(int(opts.DropMaxSeq))), Kind: DropSend})
		}
	}
	return NewPlan(faults...)
}

// Faults returns the schedule sorted by (rank, step), for reports.
func (p *Plan) Faults() []Fault {
	if p == nil {
		return nil
	}
	var out []Fault
	for _, fs := range p.faults {
		out = append(out, fs...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rank != out[j].Rank {
			return out[i].Rank < out[j].Rank
		}
		return out[i].Step < out[j].Step
	})
	return out
}

// NumCrashes counts ranks scheduled to crash.
func (p *Plan) NumCrashes() int {
	if p == nil {
		return 0
	}
	return len(p.crash)
}

// CrashStep returns the step at which rank permanently fails.
func (p *Plan) CrashStep(rank int) (int64, bool) {
	if p == nil {
		return 0, false
	}
	s, ok := p.crash[rank]
	return s, ok
}

// ShouldCrash reports whether rank has reached its crash step.
func (p *Plan) ShouldCrash(rank int, step int64) bool {
	s, ok := p.CrashStep(rank)
	return ok && step >= s
}

// SendFault returns the drop/delay verdict for rank's seq-th send.
func (p *Plan) SendFault(rank int, seq int64) (drop bool, delay time.Duration) {
	if p == nil {
		return false, 0
	}
	for _, f := range p.faults[rank] {
		if f.Step != seq {
			continue
		}
		switch f.Kind {
		case DropSend:
			drop = true
		case DelaySend:
			delay += f.Delay
		}
	}
	return drop, delay
}

// HeartbeatLost reports whether rank's seq-th lease heartbeat is
// suppressed. A LoseHeartbeat fault at step S silences every renewal from
// S onward — the replica is "paused", not flaky — so once a rank loses
// its heartbeat it stays lost.
func (p *Plan) HeartbeatLost(rank int, seq int64) bool {
	if p == nil {
		return false
	}
	for _, f := range p.faults[rank] {
		if f.Kind == LoseHeartbeat && seq >= f.Step {
			return true
		}
	}
	return false
}

// StaleWriteAt reports whether rank's seq-th fenced commit is scheduled
// to be delayed past its lease expiry (a stale-owner write).
func (p *Plan) StaleWriteAt(rank int, seq int64) bool {
	if p == nil {
		return false
	}
	for _, f := range p.faults[rank] {
		if f.Kind == StaleWrite && f.Step == seq {
			return true
		}
	}
	return false
}

// TornLeaseAt reports whether rank's seq-th lease renewal is scheduled to
// be torn mid-write.
func (p *Plan) TornLeaseAt(rank int, seq int64) bool {
	if p == nil {
		return false
	}
	for _, f := range p.faults[rank] {
		if f.Kind == TornLease && f.Step == seq {
			return true
		}
	}
	return false
}

// SweepDelay returns the injected stall before rank's sweep-th sweep.
func (p *Plan) SweepDelay(rank int, sweep int64) time.Duration {
	if p == nil {
		return 0
	}
	var d time.Duration
	for _, f := range p.faults[rank] {
		if f.Kind == DelaySweep && f.Step == sweep {
			d += f.Delay
		}
	}
	return d
}

// String renders a compact description ("rank 3: crash@120, rank 5:
// drop-send@17"), or "no faults".
func (p *Plan) String() string {
	fs := p.Faults()
	if len(fs) == 0 {
		return "no faults"
	}
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = fmt.Sprintf("rank %d: %s@%d", f.Rank, f.Kind, f.Step)
	}
	return strings.Join(parts, ", ")
}
