package rewl

import (
	"bytes"
	"encoding/gob"
	"math"
	"strings"
	"testing"

	"deepthermo/internal/alloy"
	"deepthermo/internal/lattice"
	"deepthermo/internal/rng"
	"deepthermo/internal/transport"
	"deepthermo/internal/wanglandau"
)

// leaderRoundBlob runs the 16-site system on a 3-window ladder with 2
// walkers per window for 4 rounds, checkpointing every 2, and returns the
// leader's round-4 file as written.
func leaderRoundBlob(t testing.TB) (*alloy.Model, []wanglandau.Window, Options, []byte) {
	t.Helper()
	m, exact := exact16(t)
	wins, err := SplitWindows(exact.EMin, exact.EMax(), 3, 0.75, exact.BinWidth)
	if err != nil {
		t.Fatal(err)
	}
	seed := lattice.EquiatomicConfig(m.Lattice(), 2, rng.New(21))
	opts := Options{Seed: 31, WalkersPerWindow: 2, ExchangeInterval: 20, MaxRounds: 4,
		CheckpointDir: t.TempDir(), CheckpointEvery: 2, WL: wanglandau.Options{LnFFinal: 1e-3}}
	if _, err := Run(m, seed, wins, swapFactory(m), opts); err != nil {
		t.Fatal(err)
	}
	blob, err := loadDistRoundBlob(opts.CheckpointDir, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	opts.setDefaults()
	return m, wins, opts, blob
}

// malformedLeaderStates are leader checkpoints that decode but do not fit
// the run they claim: each edits one walker state or coordination row of a
// real checkpoint.
var malformedLeaderStates = []struct {
	name string
	edit func(ck *distCheckpoint)
}{
	{"configuration of 3 sites", func(ck *distCheckpoint) {
		ck.Walkers[0][0].Sampler.Cfg = ck.Walkers[0][0].Sampler.Cfg[:3]
	}},
	{"species 200", func(ck *distCheckpoint) {
		ck.Walkers[0][0].Sampler.Cfg[0] = 200
	}},
	{"walker on another window", func(ck *distCheckpoint) {
		ck.Walkers[0][0] = ck.Walkers[1][0]
	}},
	{"frozen ln g of 2 bins", func(ck *distCheckpoint) {
		ck.Coord.FrozenLogG[0] = []float64{0, 0}
	}},
	{"walker energy +Inf", func(ck *distCheckpoint) {
		ck.Walkers[0][0].Sampler.E = math.Inf(1)
	}},
	{"walker energy -Inf", func(ck *distCheckpoint) {
		ck.Walkers[0][0].Sampler.E = math.Inf(-1)
	}},
	{"walker energy off its configuration", func(ck *distCheckpoint) {
		st := &ck.Walkers[0][0]
		st.Sampler.E = st.Window.EMin + 0.5*(st.Window.EMax-st.Window.EMin)
	}},
	{"walker energy one quantum off its configuration", func(ck *distCheckpoint) {
		m := alloy.BinaryOrdering(lattice.MustNew(lattice.SC, 2, 2, 4), 0.05) // exact16's model
		st := &ck.Walkers[0][0]
		st.Sampler.E = m.Energy(st.Sampler.Cfg) + m.Quantum()
	}},
}

func editBlob(t testing.TB, blob []byte, edit func(*distCheckpoint)) []byte {
	t.Helper()
	ck := new(distCheckpoint)
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(ck); err != nil {
		t.Fatal(err)
	}
	edit(ck)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ck); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// restoreLeader takes a leader round blob through every check a resume
// applies before sweeping: decode and wellFormed, matchesRun, then
// restoreOwnerState and restoreCoord.
func restoreLeader(m *alloy.Model, wins []wanglandau.Window, opts Options, blob []byte) (*distLeader, error) {
	ck, err := decodeDistCheckpoint(blob, 0, 1)
	if err != nil {
		return nil, err
	}
	o, err := restoreOwnerState(m, wins, swapFactory(m), opts, ck)
	if err != nil {
		return nil, err
	}
	L := newDistLeader(transport.NewChanWorld(1).Endpoint(0), m, nil, wins, swapFactory(m), opts)
	L.o = o
	return L, L.restoreCoord(ck)
}

// TestCheckpointRejectsMalformedWalkerStates: a checkpoint whose walker
// states or frozen consensus do not fit the run is refused on resume
// instead of panicking in the sweep or feeding the merge a wrong-length
// ln g.
func TestCheckpointRejectsMalformedWalkerStates(t *testing.T) {
	m, wins, opts, blob := leaderRoundBlob(t)
	if _, err := restoreLeader(m, wins, opts, blob); err != nil {
		t.Fatalf("the unedited checkpoint is refused: %v", err)
	}
	for _, row := range malformedLeaderStates {
		t.Run(row.name, func(t *testing.T) {
			if _, err := restoreLeader(m, wins, opts, editBlob(t, blob, row.edit)); err == nil {
				t.Error("malformed checkpoint accepted")
			} else if !strings.Contains(err.Error(), "window") && !strings.Contains(err.Error(), "site") {
				t.Errorf("error does not say what is wrong: %v", err)
			}
		})
	}
}

// FuzzDistCheckpoint: whatever a leader round blob holds, the resume checks
// never panic, and a checkpoint they accept puts every live walker on its
// ladder window with a configuration the lattice can sweep, and every live
// walker completes one sweep.
func FuzzDistCheckpoint(f *testing.F) {
	m, wins, opts, blob := leaderRoundBlob(f)
	f.Add(blob)
	for _, row := range malformedLeaderStates {
		f.Add(editBlob(f, blob, row.edit))
	}
	sites, species := m.Lattice().NumSites(), m.NumSpecies()
	f.Fuzz(func(t *testing.T, blob []byte) {
		var head distCheckpoint
		if gob.NewDecoder(bytes.NewReader(blob)).Decode(&head) != nil {
			return
		}
		runOpts := opts
		runOpts.Adaptive.Enabled = head.Coord.Adaptive
		L, err := restoreLeader(m, wins, runOpts, blob)
		if err != nil {
			return
		}
		for wi, ws := range L.o.walkers {
			for k, w := range ws {
				if !L.o.alive[wi][k] {
					continue
				}
				if d := w.DOS(); d.EMin != wins[wi].EMin || d.Bins() != wins[wi].Bins {
					t.Fatalf("window %d walker %d restored on [%g,+%g)×%d, ladder has %+v", wi, k, d.EMin, d.BinWidth, d.Bins(), wins[wi])
				}
				cfg := w.Config()
				if len(cfg) != sites {
					t.Fatalf("window %d walker %d has %d sites, lattice %d", wi, k, len(cfg), sites)
				}
				for _, sp := range cfg {
					if int(sp) >= species {
						t.Fatalf("window %d walker %d holds species %d of %d", wi, k, sp, species)
					}
				}
				w.Sweep()
			}
		}
	})
}
