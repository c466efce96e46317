package rewl

// Run checkpointing. Every CheckpointEvery rounds the leader collects each
// rank's walker chains — including RNG stream positions — as the rank's
// dopCheckpoint reply and writes them, with its coordination state
// (coordinator RNG position, the global alive mask, frozen consensus of
// degraded windows, replica flow, counters, and the adaptive controller's
// walker bookkeeping and decision trace), as one world file per round:
// rewl-round<n>.ckpt in CheckpointDir, a header holding the payload's
// length and FNV-64a checksum, then the payload. The payload has the
// layout of a world of one whatever the world size, so every executor
// writes the same bytes for the same round. The newest three rounds are
// kept, and a round in which any rank is dead is not written: the newest
// file is always a round the whole world completed. Resume, rollback and
// rejoin read the newest round that verifies, decodes and belongs to the
// run — a truncated or corrupt round is skipped, not fatal — and the
// leader ships every other rank its part, so workers never touch the
// directory.

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"deepthermo/internal/alloy"
	"deepthermo/internal/fsx"
	"deepthermo/internal/rng"
	"deepthermo/internal/wanglandau"
)

// HasCheckpoint reports whether dir holds a checkpoint round that
// verifies.
func HasCheckpoint(dir string) bool {
	for _, r := range savedRounds(dir) {
		if _, err := readRound(dir, r); err == nil {
			return true
		}
	}
	return false
}

// checkpointVersion guards against format drift across releases; files of
// another version are not resumed from. Version 4: one world file per
// round, written by the leader.
const checkpointVersion = 4

// checkpointRetain is how many checkpoint rounds the directory keeps.
const checkpointRetain = 3

// roundFile names a round's world file within the checkpoint directory;
// ckptHeader is the file's header length.
const (
	roundFile  = "rewl-round%d.ckpt"
	ckptHeader = 16
)

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

// distCheckpoint is a world checkpoint — rank 0 of a world of one, every
// window, with the coordination state — or one rank's part of it: the
// rank's windows in a world of Size ranks, without. Dead walker slots
// hold the zero WalkerState (gob cannot encode nil pointers) and are
// skipped on restore via the Alive mask.
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
// with its own window ladder, and coordination state only in a world
// checkpoint. A checkpoint that fails is not restored from.
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
	if !ck.HasCoord {
		return nil
	}
	if size != 1 {
		return fmt.Errorf("rewl: rank %d/%d checkpoint part carries coordination state", rank, size)
	}
	cs := &ck.Coord
	if len(cs.AliveG) != nWin || len(cs.FrozenLogG) != nWin || len(cs.LastLnF) != nWin || len(cs.Stages) != nWin ||
		len(cs.ReplicaID) != nWin || len(cs.Retired) != nWin || len(cs.RetiredSweeps) != nWin {
		return fmt.Errorf("rewl: leader checkpoint coordination arrays inconsistent with %d windows", nWin)
	}
	for wi := range cs.AliveG {
		if len(cs.ReplicaID[wi]) != len(cs.AliveG[wi]) || len(cs.AliveG[wi]) != len(ck.Alive[wi]) {
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

// decodeWorld decodes a world file's payload: a well-formed checkpoint of
// a world of one that carries the coordination state.
func decodeWorld(payload []byte) (*distCheckpoint, error) {
	ck, err := decodeDistCheckpoint(payload, 0, 1)
	if err == nil && !ck.HasCoord {
		err = fmt.Errorf("rewl: world checkpoint lacks coordination state")
	}
	return ck, err
}

// decodeShipped decodes a part shipped as [nbytes, packed…] (a
// dopCheckpoint reply, the tail of a startShipped verdict): rank's part of
// a world of size ranks at round.
func decodeShipped(msg []float64, rank, size, round int) (*distCheckpoint, error) {
	if len(msg) < 1 {
		return nil, fmt.Errorf("rewl: rank %d shipped checkpoint is empty", rank)
	}
	blob, err := unpackBytes(msg[1:], int(msg[0]))
	if err != nil {
		return nil, err
	}
	ck, err := decodeDistCheckpoint(blob, rank, size)
	if err == nil && ck.Round != round {
		err = fmt.Errorf("rewl: rank %d shipped checkpoint claims round %d, wanted %d", rank, ck.Round, round)
	}
	return ck, err
}

// encode gob-encodes the checkpoint.
func (ck *distCheckpoint) encode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(ck)
	return buf.Bytes(), err
}

// shipped is ck encoded and packed as [nbytes, packed…] for the data
// plane.
func (ck *distCheckpoint) shipped() ([]float64, error) {
	blob, err := ck.encode()
	if err != nil {
		return nil, err
	}
	return append([]float64{float64(len(blob))}, packBytes(blob)...), nil
}

// part returns rank's part of the world checkpoint ck in a world of size
// ranks: its windows' walkers, no coordination state. The slices are
// shared with ck.
func (ck *distCheckpoint) part(rank, size int) *distCheckpoint {
	lo, hi := winRange(len(ck.Windows), size, rank)
	p := *ck
	p.Rank, p.Size = rank, size
	p.Alive, p.Walkers = ck.Alive[lo:hi], ck.Walkers[lo:hi]
	p.HasCoord, p.Coord = false, distCoordState{}
	return &p
}

// checkpointPart snapshots the owner's windows as rank's part of a world
// of size ranks at nextRound.
func (o *ownerState) checkpointPart(nextRound, rank, size int) *distCheckpoint {
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
	return ck
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

// restoreCoord installs a world checkpoint's coordination state.
func (L *distLeader) restoreCoord(cs *distCoordState) {
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
}

// roundPath returns the world file of one checkpoint round.
func roundPath(dir string, round int) string {
	return filepath.Join(dir, fmt.Sprintf(roundFile, round))
}

// savedRounds returns the rounds dir holds a world file for, newest first.
// Other files, the temporaries of an interrupted write among them, are
// not rounds.
func savedRounds(dir string) []int {
	ents, _ := os.ReadDir(dir)
	var rounds []int
	for _, e := range ents {
		var r int
		if _, err := fmt.Sscanf(e.Name(), roundFile, &r); err == nil && r > 0 && e.Name() == fmt.Sprintf(roundFile, r) {
			rounds = append(rounds, r)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(rounds)))
	return rounds
}

// fnv64a checksums a byte blob with FNV-64a.
func fnv64a(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// writeRound writes one round's world file atomically and prunes the
// directory to the newest checkpointRetain rounds up to it; a round past
// it is a leftover the run rolled back over.
func writeRound(dir string, round int, payload []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var head [ckptHeader]byte
	binary.BigEndian.PutUint64(head[:8], uint64(len(payload)))
	binary.BigEndian.PutUint64(head[8:], fnv64a(payload))
	if err := fsx.WriteFileAtomic(roundPath(dir, round), func(w io.Writer) error {
		if _, err := w.Write(head[:]); err != nil {
			return err
		}
		_, err := w.Write(payload)
		return err
	}); err != nil {
		return err
	}
	kept := 0
	for _, r := range savedRounds(dir) {
		if r <= round && kept < checkpointRetain {
			kept++
			continue
		}
		os.Remove(roundPath(dir, r)) //nolint:errcheck // best-effort prune
	}
	return nil
}

// readRound returns the payload of one round's world file, or an error if
// the file is missing, truncated, or fails its checksum.
func readRound(dir string, round int) ([]byte, error) {
	b, err := os.ReadFile(roundPath(dir, round))
	if err != nil {
		return nil, err
	}
	if len(b) < ckptHeader || binary.BigEndian.Uint64(b) != uint64(len(b)-ckptHeader) {
		return nil, fmt.Errorf("rewl: checkpoint round %d: %d bytes do not match the header's length (truncated?)", round, len(b))
	}
	if payload := b[ckptHeader:]; fnv64a(payload) == binary.BigEndian.Uint64(b[8:]) {
		return payload, nil
	}
	return nil, fmt.Errorf("rewl: checkpoint round %d fails its checksum (corrupt)", round)
}

// newestCheckpoint returns the newest round in the checkpoint directory
// that verifies, decodes to a world checkpoint and belongs to this run
// (matchesRun), or nil when no round does. Rounds that fail to verify or
// decode are skipped. A checkpoint of another run is an error, unless an
// older round of this run remains.
func (L *distLeader) newestCheckpoint() (*distCheckpoint, error) {
	dir := L.opts.CheckpointDir
	rounds := savedRounds(dir)
	var mismatch error
	for _, r := range rounds {
		payload, err := readRound(dir, r)
		var ck *distCheckpoint
		if err == nil {
			ck, err = decodeWorld(payload)
		}
		if err == nil && ck.Round != r {
			err = fmt.Errorf("rewl: checkpoint round %d claims round %d", r, ck.Round)
		}
		if err != nil {
			L.logf("rewl: skipping checkpoint round %d: %v", r, err)
			continue
		}
		if err := ck.matchesRun(L.windows, L.opts); err != nil {
			if mismatch == nil {
				mismatch = err
			}
			continue
		}
		return ck, nil
	}
	if mismatch == nil && len(rounds) > 0 {
		L.logf("rewl: no checkpoint round in %s verifies; starting fresh", dir)
	}
	return nil, mismatch
}

// checkpoint writes the world checkpoint for nextRound: every rank ships
// its part (dopCheckpoint), and the leader writes the parts and its
// coordination state as one world file. A rank whose part is lost or
// malformed dies, and a round in which any rank is dead is not written.
func (L *distLeader) checkpoint(ctx context.Context, nextRound int) error {
	if !L.allRanksAlive() {
		return nil
	}
	// Rank 0 is posted last: its part is encoded while the workers encode
	// theirs.
	for r := L.size - 1; r >= 0; r-- {
		L.post(ctx, r, []float64{dopCheckpoint, float64(nextRound)})
	}
	ck := &distCheckpoint{
		Version:  checkpointVersion,
		Seed:     L.opts.Seed,
		Windows:  L.windows,
		NWalk:    L.opts.WalkersPerWindow,
		Size:     1,
		Round:    nextRound,
		OneOverT: L.opts.WL.OneOverT,
		HasCoord: true,
		Coord:    *L.coordState(),
	}
	for r := 0; r < L.size; r++ {
		rep, ok := L.collect(ctx, r)
		if !ok {
			continue
		}
		p, err := decodeShipped(rep, r, L.size, nextRound)
		if err != nil {
			L.logf("rewl: rank %d checkpoint part: %v", r, err)
			L.rankDead(r)
			continue
		}
		ck.Alive = append(ck.Alive, p.Alive...)
		ck.Walkers = append(ck.Walkers, p.Walkers...)
	}
	if L.cancelled || !L.allRanksAlive() {
		return nil
	}
	payload, err := ck.encode()
	if err == nil {
		err = writeRound(L.opts.CheckpointDir, nextRound, payload)
	}
	if err != nil {
		return fmt.Errorf("rewl: writing checkpoint round %d: %w", nextRound, err)
	}
	return nil
}
