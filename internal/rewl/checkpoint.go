package rewl

// Run checkpointing. Every rank persists its own windows' walker chains —
// including RNG stream positions — to per-round files in CheckpointDir (see
// manifest.go for the retention and checksum machinery); rank 0's files
// additionally carry the coordination state (coordinator RNG position, the
// global alive mask, frozen consensus of degraded windows, replica flow,
// counters, and the adaptive controller's walker bookkeeping and decision
// trace). All live ranks write in the same round, so each round's file set
// is a consistent world snapshot, and a world of one writes the same layout
// as a world of N. On resume the leader gathers every rank's verifiable
// rounds, picks the newest round all of them hold, and the world restores
// that snapshot bit-identically; ranks whose newest rounds are corrupt or
// lagging simply pull the negotiated round back — nothing aborts.

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"

	"deepthermo/internal/alloy"
	"deepthermo/internal/rng"
	"deepthermo/internal/wanglandau"
)

// CheckpointPath returns the file whose existence says dir holds a
// checkpoint: the leader's round manifest, committed after the first round
// file.
func CheckpointPath(dir string) string { return DistManifestPath(dir, 0) }

// HasCheckpoint reports whether dir holds a checkpoint round to resume from.
func HasCheckpoint(dir string) bool {
	return dir != "" && len(readManifest(dir, 0).Rounds) > 0
}

// checkpointVersion guards against format drift across releases; files of
// another version are not offered for resume. Version 3: a walker's
// sampler state has no resync counter, and its energy must equal its
// configuration's exactly.
const checkpointVersion = 3

// distCoordState is the leader-only coordination state.
type distCoordState struct {
	Coord       rng.State
	AliveG      [][]bool
	FrozenLogG  [][]float64
	LastLnF     []float64
	Stages      []int
	ReplicaID   [][]int
	LastExtreme []uint8

	ExchangeTried  int64
	ExchangeAccept int64
	RoundTrips     int64
	FailedWalkers  int

	// Adaptive marks a run with the rebalancing controller enabled: the
	// checkpoint's walker slices (after migrations) are authoritative over
	// the caller's walker count.
	Adaptive      bool
	Gen           int // migrant generation counter
	Retired       []int
	RetiredSweeps []int64
	Migrations    int
	Events        []MigrationEvent
}

// distCheckpoint is one rank's serialized state. Dead walker slots hold
// the zero WalkerState (gob cannot encode nil pointers) and are skipped on
// restore via the Alive mask.
type distCheckpoint struct {
	Version int
	Seed    uint64
	Windows []wanglandau.Window // the whole ladder
	NWalk   int
	Rank    int
	Size    int
	Round   int // next round index to execute

	Alive   [][]bool                   // owned windows, indexed wi-lo
	Walkers [][]wanglandau.WalkerState // likewise

	// OneOverT records the modification-factor schedule the run used.
	OneOverT bool

	HasCoord bool
	Coord    distCoordState
}

// wellFormed reports whether the checkpoint is one rank of a world of size
// ranks can restore from: right version and placement, arrays consistent
// with its own window ladder. A file that fails is not offered for resume.
func (ck *distCheckpoint) wellFormed(rank, size int) error {
	if ck.Version != checkpointVersion {
		return fmt.Errorf("rewl: rank %d checkpoint version %d, want %d", rank, ck.Version, checkpointVersion)
	}
	if ck.Rank != rank || ck.Size != size || size > len(ck.Windows) {
		return fmt.Errorf("rewl: checkpoint is for rank %d/%d over %d windows, run has rank %d/%d",
			ck.Rank, ck.Size, len(ck.Windows), rank, size)
	}
	nWin := len(ck.Windows)
	lo, hi := winRange(nWin, size, rank)
	if len(ck.Alive) != hi-lo || len(ck.Walkers) != hi-lo {
		return fmt.Errorf("rewl: rank %d checkpoint holds %d windows, owns %d", rank, len(ck.Alive), hi-lo)
	}
	for i := range ck.Alive {
		if len(ck.Alive[i]) < 1 || len(ck.Walkers[i]) != len(ck.Alive[i]) {
			return fmt.Errorf("rewl: rank %d checkpoint window %d walker arrays inconsistent", rank, lo+i)
		}
	}
	if ck.HasCoord != (rank == 0) {
		return fmt.Errorf("rewl: rank %d checkpoint coordination state mismatch", rank)
	}
	if !ck.HasCoord {
		return nil
	}
	cs := &ck.Coord
	if len(cs.AliveG) != nWin || len(cs.FrozenLogG) != nWin || len(cs.LastLnF) != nWin || len(cs.Stages) != nWin ||
		len(cs.ReplicaID) != nWin || len(cs.Retired) != nWin || len(cs.RetiredSweeps) != nWin {
		return fmt.Errorf("rewl: leader checkpoint coordination arrays inconsistent with %d windows", nWin)
	}
	for wi := range cs.AliveG {
		if len(cs.ReplicaID[wi]) != len(cs.AliveG[wi]) || (wi < hi && len(cs.AliveG[wi]) != len(ck.Alive[wi])) {
			return fmt.Errorf("rewl: leader checkpoint window %d walker arrays inconsistent", wi)
		}
		if n := len(cs.FrozenLogG[wi]); n != 0 && n != ck.Windows[wi].Bins {
			return fmt.Errorf("rewl: leader checkpoint window %d frozen ln g has %d bins, window has %d", wi, n, ck.Windows[wi].Bins)
		}
		for _, id := range cs.ReplicaID[wi] {
			if id < 0 || id >= len(cs.LastExtreme) {
				return fmt.Errorf("rewl: leader checkpoint window %d carries unknown replica %d", wi, id)
			}
		}
	}
	return nil
}

// matchesRun reports whether the checkpoint belongs to the run described
// by (windows, opts). Restoring a checkpoint of a different run would
// silently diverge from the recorded state, so a mismatch is an error.
func (ck *distCheckpoint) matchesRun(windows []wanglandau.Window, opts Options) error {
	if ck.OneOverT != opts.WL.OneOverT {
		return fmt.Errorf("rewl: rank %d checkpoint was written with OneOverT=%v, run has %v", ck.Rank, ck.OneOverT, opts.WL.OneOverT)
	}
	if ck.HasCoord && ck.Coord.Adaptive != opts.Adaptive.Enabled {
		return fmt.Errorf("rewl: checkpoint was written with Adaptive=%v, run has %v", ck.Coord.Adaptive, opts.Adaptive.Enabled)
	}
	if ck.NWalk != opts.WalkersPerWindow {
		return fmt.Errorf("rewl: checkpoint is for %d walkers per window, run has %d", ck.NWalk, opts.WalkersPerWindow)
	}
	if len(ck.Windows) != len(windows) {
		return fmt.Errorf("rewl: checkpoint is for %d windows, run has %d", len(ck.Windows), len(windows))
	}
	for i := range windows {
		if ck.Windows[i] != windows[i] {
			return fmt.Errorf("rewl: checkpoint window %d is [%g,%g)×%d, run has [%g,%g)×%d",
				i, ck.Windows[i].EMin, ck.Windows[i].EMax, ck.Windows[i].Bins,
				windows[i].EMin, windows[i].EMax, windows[i].Bins)
		}
	}
	if opts.Adaptive.Enabled {
		// Migration leaves an adaptive run's walker slices ragged.
		return nil
	}
	for i := range ck.Alive {
		if len(ck.Alive[i]) != ck.NWalk {
			return fmt.Errorf("rewl: rank %d checkpoint window slot %d holds %d walkers, want %d", ck.Rank, i, len(ck.Alive[i]), ck.NWalk)
		}
	}
	return nil
}

// decodeDistCheckpoint decodes one checkpoint blob and checks it is well
// formed for (rank, size).
func decodeDistCheckpoint(blob []byte, rank, size int) (*distCheckpoint, error) {
	ck := new(distCheckpoint)
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(ck); err != nil {
		return nil, fmt.Errorf("rewl: corrupt checkpoint gob for rank %d: %w", rank, err)
	}
	if err := ck.wellFormed(rank, size); err != nil {
		return nil, err
	}
	return ck, nil
}

// saveDistCheckpoint writes the rank's state atomically as one retained
// round (see manifest.go): the round file plus a manifest entry carrying
// its size and FNV-64a checksum, pruning rounds beyond
// Options.CheckpointRetain. coord is the leader's coordination state, nil
// on workers.
func (o *ownerState) saveDistCheckpoint(nextRound, rank, size int, coord *distCoordState) error {
	ck := &distCheckpoint{
		Version:  checkpointVersion,
		Seed:     o.opts.Seed,
		Windows:  o.windows,
		NWalk:    o.opts.WalkersPerWindow,
		Rank:     rank,
		Size:     size,
		Round:    nextRound,
		Alive:    o.alive,
		Walkers:  make([][]wanglandau.WalkerState, len(o.walkers)),
		OneOverT: o.opts.WL.OneOverT,
	}
	for i := range o.walkers {
		ck.Walkers[i] = make([]wanglandau.WalkerState, len(o.walkers[i]))
		for k, w := range o.walkers[i] {
			if o.alive[i][k] && w != nil {
				ck.Walkers[i][k] = w.State()
			}
		}
	}
	if coord != nil {
		ck.HasCoord = true
		ck.Coord = *coord
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ck); err != nil {
		return err
	}
	return writeDistRound(o.opts.CheckpointDir, rank, nextRound, o.opts.CheckpointRetain, buf.Bytes())
}

// restoreOwnerState rebuilds a rank's walkers from its checkpoint on the
// caller's ladder, which matchesRun has checked is the checkpoint's.
func restoreOwnerState(m *alloy.Model, windows []wanglandau.Window, newProposal ProposalFactory, opts Options, ck *distCheckpoint) (*ownerState, error) {
	if err := ck.matchesRun(windows, opts); err != nil {
		return nil, err
	}
	lo, hi := winRange(len(windows), ck.Size, ck.Rank)
	o := &ownerState{opts: opts, windows: windows, lo: lo, alive: ck.Alive}
	// Proposal factories may consume RNG draws at construction (the VAE
	// global proposal clones network weights, re-running initialization);
	// feed them a throwaway stream, then RestoreWalker rewinds each
	// walker's real stream to its checkpointed position, so the resumed
	// chains are bit-identical regardless of what the factory drew.
	throwaway := rng.New(ck.Seed ^ 0x5ca1ab1edeadbeef)
	for wi := lo; wi < hi; wi++ {
		ws := make([]*wanglandau.Walker, len(ck.Walkers[wi-lo]))
		for k := range ws {
			if !o.alive[wi-lo][k] {
				continue
			}
			st := ck.Walkers[wi-lo][k]
			if !sameGrid(st.Window, windows[wi]) {
				return nil, fmt.Errorf("rewl: checkpoint window %d walker %d is on [%g,%g)×%d, not its window",
					wi, k, st.Window.EMin, st.Window.EMax, st.Window.Bins)
			}
			// Rebuild on the ladder's own window, so the restored bin grid
			// is the one a fresh walker there gets, bit for bit.
			st.Window = windows[wi]
			w, err := wanglandau.RestoreWalker(m, newProposal(wi, k, throwaway), rng.New(1), st, opts.WL)
			if err != nil {
				return nil, fmt.Errorf("rewl: restoring window %d walker %d: %w", wi, k, err)
			}
			ws[k] = w
		}
		o.walkers = append(o.walkers, ws)
	}
	return o, nil
}

// sameGrid reports whether a walker state's window is win. A walker
// reports its upper edge rebuilt from its bin width, so that edge may
// differ from win.EMax in the last bits.
func sameGrid(st, win wanglandau.Window) bool {
	return st.EMin == win.EMin && st.Bins == win.Bins && math.Abs(st.EMax-win.EMax) <= 1e-9*(win.EMax-win.EMin)
}

// coordState snapshots the leader's coordination state for its checkpoint.
// The encoder reads it before the round loop mutates anything again, so the
// slices are shared, not copied.
func (L *distLeader) coordState() *distCoordState {
	return &distCoordState{
		Coord:          L.coord.State(),
		AliveG:         L.aliveG,
		FrozenLogG:     L.frozenG,
		LastLnF:        L.lastLnFG,
		Stages:         L.stages,
		ReplicaID:      L.replicaID,
		LastExtreme:    L.extreme,
		ExchangeTried:  L.res.ExchangeTried,
		ExchangeAccept: L.res.ExchangeAccept,
		RoundTrips:     L.res.RoundTrips,
		FailedWalkers:  L.res.FailedWalkers,
		Adaptive:       L.opts.Adaptive.Enabled,
		Gen:            L.gen,
		Retired:        L.retired,
		RetiredSweeps:  L.retiredSweeps,
		Migrations:     L.res.Migrations,
		Events:         L.res.Events,
	}
}

// restoreCoord installs a checkpoint's coordination state.
func (L *distLeader) restoreCoord(ck *distCheckpoint) error {
	if !ck.HasCoord {
		return fmt.Errorf("rewl: leader checkpoint lacks coordination state")
	}
	cs := ck.Coord
	L.coord = rng.FromState(cs.Coord)
	L.aliveG = cs.AliveG
	L.frozenG = cs.FrozenLogG
	L.lastLnFG = cs.LastLnF
	L.stages = cs.Stages
	L.replicaID = cs.ReplicaID
	L.extreme = cs.LastExtreme
	L.gen = cs.Gen
	L.retired = cs.Retired
	L.retiredSweeps = cs.RetiredSweeps
	L.res.ExchangeTried = cs.ExchangeTried
	L.res.ExchangeAccept = cs.ExchangeAccept
	L.res.RoundTrips = cs.RoundTrips
	L.res.FailedWalkers = cs.FailedWalkers
	L.res.Migrations = cs.Migrations
	L.res.Events = cs.Events
	return nil
}
