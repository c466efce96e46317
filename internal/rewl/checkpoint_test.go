package rewl

import (
	"bytes"
	"encoding/gob"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"deepthermo/internal/alloy"
	"deepthermo/internal/lattice"
	"deepthermo/internal/rng"
	"deepthermo/internal/transport"
	"deepthermo/internal/wanglandau"
)

// leaderRoundBlob runs the 16-site system on a 3-window ladder with 2
// walkers per window for 4 rounds, checkpointing every 2, and returns the
// payload of the round-4 world file as written.
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
	blob, err := readRound(opts.CheckpointDir, 4)
	if err != nil {
		t.Fatal(err)
	}
	opts.setDefaults()
	return m, wins, opts, blob
}

// dirFiles returns every file in dir by name.
func dirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(b)
	}
	return out
}

// TestCheckpointOneWorldFilePerRound: the leader writes the checkpoint,
// one world file per round. Worlds of one, two and three chan ranks and of
// two TCP ranks running the same seed for the same rounds leave the newest
// three rounds and nothing else, byte-identical across the four. The chan
// 2 directory resumes on a world of one and on two TCP ranks to the
// uninterrupted run's Result (the static_2walkers golden), and a temporary
// left by an interrupted write, a truncated newest round and a newest
// round with one flipped byte are each skipped: the resume starts from
// the newest round that verifies and ends bit-identical.
func TestCheckpointOneWorldFilePerRound(t *testing.T) {
	row := goldenRowNamed("static_2walkers")
	m, exact := row.system(t)
	wins, err := SplitWindows(exact.EMin, exact.EMax(), row.windows, row.overlap, exact.BinWidth)
	if err != nil {
		t.Fatal(err)
	}
	seed := lattice.EquiatomicConfig(m.Lattice(), 2, rng.New(row.cfgSeed))
	opts := row.opts
	opts.CheckpointEvery, opts.MaxRounds = 1, 6

	var world1 map[string]string
	var chan2 string
	for _, ex := range []struct {
		name string
		tcp  bool
		n    int
	}{{"world1", false, 1}, {"chan2", false, 2}, {"chan3", false, 3}, {"tcp2", true, 2}} {
		o := opts
		o.CheckpointDir = t.TempDir()
		runDist(t, ex.tcp, ex.n, m, seed, wins, o)
		files := dirFiles(t, o.CheckpointDir)
		var names []string
		for name := range files {
			names = append(names, name)
		}
		sort.Strings(names)
		if want := []string{"rewl-round4.ckpt", "rewl-round5.ckpt", "rewl-round6.ckpt"}; !reflect.DeepEqual(names, want) {
			t.Errorf("%s checkpoint directory holds %v, want %v", ex.name, names, want)
		}
		if world1 == nil {
			world1 = files
		} else if !reflect.DeepEqual(files, world1) {
			t.Errorf("%s checkpoint files differ from the world of one's", ex.name)
		}
		if ex.name == "chan2" {
			chan2 = o.CheckpointDir
		}
	}

	// resume copies the chan 2 directory, edits the copy and resumes from
	// it on a world of n ranks, which must start from round from.
	resume := func(t *testing.T, tcp bool, n int, edit func(dir string), from int) {
		dir := t.TempDir()
		for name, b := range dirFiles(t, chan2) {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(b), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if edit != nil {
			edit(dir)
		}
		var mu sync.Mutex
		var logs []string
		o := row.opts
		o.CheckpointDir, o.CheckpointEvery, o.Resume = dir, 1, true
		o.Logf = func(f string, a ...any) {
			mu.Lock()
			logs = append(logs, fmt.Sprintf(f, a...))
			mu.Unlock()
		}
		res := runDist(t, tcp, n, m, seed, wins, o)
		want := fmt.Sprintf("rewl: resuming world from checkpoint round %d", from)
		mu.Lock()
		defer mu.Unlock()
		found := false
		for _, l := range logs {
			found = found || l == want
		}
		if !found || !res.Resumed {
			t.Errorf("resumed=%v, no log line %q", res.Resumed, want)
		}
		requireGolden(t, row.name, res)
	}
	editNewest := func(edit func(b []byte) []byte) func(string) {
		return func(dir string) {
			path := roundPath(dir, 6)
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, edit(b), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Run("on world1", func(t *testing.T) { resume(t, false, 1, nil, 6) })
	t.Run("on tcp2", func(t *testing.T) { resume(t, true, 2, nil, 6) })
	t.Run("temporary left by a write", func(t *testing.T) {
		resume(t, false, 2, func(dir string) {
			if err := os.WriteFile(filepath.Join(dir, ".rewl-round7.ckpt.tmp-1"), []byte("partial"), 0o644); err != nil {
				t.Fatal(err)
			}
		}, 6)
	})
	t.Run("truncated newest", func(t *testing.T) {
		resume(t, false, 2, editNewest(func(b []byte) []byte { return b[:len(b)-1] }), 5)
	})
	t.Run("flipped byte in newest", func(t *testing.T) {
		resume(t, false, 2, editNewest(func(b []byte) []byte { b[len(b)/2] ^= 0x10; return b }), 5)
	})
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

// restoreLeader takes a world file's payload through every check a resume
// applies before sweeping: decode and wellFormed, matchesRun, then
// restoreOwnerState and restoreCoord.
func restoreLeader(m *alloy.Model, wins []wanglandau.Window, opts Options, blob []byte) (*distLeader, error) {
	ck, err := decodeWorld(blob)
	if err != nil {
		return nil, err
	}
	if err := ck.matchesRun(wins, opts); err != nil {
		return nil, err
	}
	L := newDistLeader(transport.NewChanWorld(1).Endpoint(0), m, nil, wins, swapFactory(m), opts)
	return L, L.rollbackLeader(ck)
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

// capMinimize limits how long the fuzzing engine shrinks an input that
// found new coverage to 200 calls of the fuzz function, unless the command
// line sets -test.fuzzminimizetime. By default the engine spends up to
// 60 s on every such input, and its byte-subset pass is quadratic in the
// input's length: on the kilobyte checkpoint payloads these targets read,
// each pass runs out that clock, and a worker that is minimizing executes
// no new inputs, so a 30 s run stalled after a few hundred executions.
func capMinimize() {
	set := false
	flag.Visit(func(fl *flag.Flag) { set = set || fl.Name == "test.fuzzminimizetime" })
	if !set {
		flag.Set("test.fuzzminimizetime", "200x") //nolint:errcheck // a valid value
	}
}

// FuzzDistCheckpoint: whatever a world file's payload holds — the bytes
// after its length and checksum — the resume checks never panic, and a
// checkpoint they accept puts every live walker on its ladder window with
// a configuration the lattice can sweep, and every live walker completes
// one sweep.
func FuzzDistCheckpoint(f *testing.F) {
	capMinimize()
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
