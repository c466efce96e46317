package rewl

// The layout invariant (DESIGN.md, "Performance architecture", rule 4):
// every object a walker writes on the step path fills whole 64-byte cache
// lines, so no two walkers ever touch the same line — at construction,
// after exchanges, after a checkpoint restore, after the adaptive
// controller reshaped the ladder. The rows below walk that life cycle with
// the driver's own functions on a hand-built leader of a world of one.

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"deepthermo/internal/alloy"
	"deepthermo/internal/cacheline"
	"deepthermo/internal/infer"
	"deepthermo/internal/lattice"
	"deepthermo/internal/mc"
	"deepthermo/internal/nn"
	"deepthermo/internal/rng"
	"deepthermo/internal/testfix"
	"deepthermo/internal/transport"
	"deepthermo/internal/wanglandau"
)

// span is one heap object a walker writes while it sweeps.
type span struct {
	what       string
	addr, size uintptr
}

// objSpan is the object a pointer (possibly read out of an unexported
// field) points at.
func objSpan(what string, ptr reflect.Value) span {
	return span{what, ptr.Pointer(), ptr.Type().Elem().Size()}
}

// arrSpan is a slice's whole backing array.
func arrSpan(what string, s reflect.Value) span {
	return span{what, s.Pointer(), uintptr(s.Cap()) * s.Type().Elem().Size()}
}

// proposalSpans lists a proposal's step-path objects: the struct itself
// (SwapProposal.i/j, Mixture.last, GlobalProposal's cache flags and
// counters), KSwapProposal's rollback list, a Mixture's components, and a
// GlobalProposal's engine client.
func proposalSpans(p reflect.Value) []span {
	if p.Kind() == reflect.Interface {
		p = p.Elem()
	}
	spans := []span{objSpan(p.Type().Elem().Name(), p)}
	switch p.Type() {
	case reflect.TypeOf((*mc.KSwapProposal)(nil)):
		spans = append(spans, arrSpan("KSwapProposal.sites", p.Elem().FieldByName("sites")))
	case reflect.TypeOf((*mc.Mixture)(nil)):
		props := p.Elem().FieldByName("props")
		for i := 0; i < props.Len(); i++ {
			spans = append(spans, proposalSpans(props.Index(i))...)
		}
	case reflect.TypeOf((*mc.GlobalProposal)(nil)):
		if c := p.Elem().FieldByName("model").Elem(); c.Type() == reflect.TypeOf((*infer.Client)(nil)) {
			spans = append(spans, clientSpans(c)...)
		}
	}
	return spans
}

// clientSpans lists what an engine client writes on every DL step: the
// Client (its counters) and its replica's per-call write set — the
// replica Model (decIn is stored on each decode), the one-hot indices and
// decoder input, each Dense shell (lastX, out) and Activation (lastOut),
// and the output rows those layers fill, with the first encoder layer's
// sparse input row once it has been built. The weights are only read.
func clientSpans(c reflect.Value) []span {
	m := c.Elem().FieldByName("model")
	spans := []span{
		objSpan("Client", c),
		objSpan("replica Model", m),
		arrSpan("replica ones", m.Elem().FieldByName("ones")),
		arrSpan("replica decIn", m.Elem().FieldByName("decIn").Elem().FieldByName("Data")),
	}
	for _, half := range []string{"enc", "dec"} {
		layers := m.Elem().FieldByName(half).Elem().FieldByName("Layers")
		for i := 0; i < layers.Len(); i++ {
			l := layers.Index(i).Elem()
			name := fmt.Sprintf("%s layer %d %s", half, i, l.Type().Elem().Name())
			out := "out"
			if l.Type() == reflect.TypeOf((*nn.Activation)(nil)) {
				out = "lastOut"
			}
			spans = append(spans, objSpan(name, l), arrSpan(name+" "+out, l.Elem().FieldByName(out).Elem().FieldByName("Data")))
			for _, hot := range []string{"hotCoef", "hotRows"} {
				if a := l.Elem().FieldByName(hot); a.IsValid() && a.Len() > 0 {
					spans = append(spans, arrSpan(name+" "+hot, a))
				}
			}
		}
	}
	return spans
}

// walkerSpans lists everything walker w writes on the step path. The sampler
// and the ln g header are part of the Walker object; were they ever moved
// out of it again they would be listed as objects of their own.
func walkerSpans(w *wanglandau.Walker) []span {
	s, wv := w.Sampler(), reflect.ValueOf(w)
	self := objSpan("Walker", wv)
	spans := []span{
		self,
		objSpan("rng.Source", reflect.ValueOf(s.Src)),
		arrSpan("Cfg", reflect.ValueOf(s.Cfg)),
		arrSpan("LogG", reflect.ValueOf(w.DOS().LogG)),
		arrSpan("hist", wv.Elem().FieldByName("hist")),
		arrSpan("visited", wv.Elem().FieldByName("visited")),
	}
	for _, part := range []span{objSpan("Sampler", reflect.ValueOf(s)), objSpan("LogDOS", reflect.ValueOf(w.DOS()))} {
		if part.addr < self.addr || part.addr+part.size > self.addr+self.size {
			spans = append(spans, part)
		}
	}
	return append(spans, proposalSpans(reflect.ValueOf(s.Proposal))...)
}

// requireOwnLines fails unless every step-path object of every live walker
// fills whole cache lines and no line belongs to two walkers.
func requireOwnLines(t *testing.T, o *ownerState) {
	t.Helper()
	if reflect.TypeOf(uintptr(0)).Size() != 8 {
		t.Skip("the pads are written for 64-bit field sizes")
	}
	owner := map[uintptr]string{}
	walkers, bad := 0, 0
	for wi, ws := range o.walkers {
		for k, w := range ws {
			if w == nil || !o.alive[wi][k] {
				continue
			}
			walkers++
			name := fmt.Sprintf("window %d walker %d", o.lo+wi, k)
			for _, sp := range walkerSpans(w) {
				if sp.addr%cacheline.Size != 0 || sp.size%cacheline.Size != 0 {
					bad++
					t.Errorf("%s: %s at %#x, %d bytes, does not fill whole cache lines", name, sp.what, sp.addr, sp.size)
				}
				for line := sp.addr / cacheline.Size; line <= (sp.addr+sp.size-1)/cacheline.Size; line++ {
					if prev, taken := owner[line]; taken && prev != name {
						bad++
						t.Errorf("%s: %s shares cache line %#x with %s", name, sp.what, line*cacheline.Size, prev)
					}
					owner[line] = name
				}
				if bad > 12 {
					t.Fatal("(further layout violations not listed)")
				}
			}
		}
	}
	if walkers < 2 {
		t.Fatalf("%d live walkers: nothing to compare", walkers)
	}
}

// ladder54 is the benchmark's sampling problem in miniature: the 54-site
// NbMoTaW fixture under an 8-window ladder between an annealed and a random
// configuration's energy. The seed configuration carries the fixture's
// quota, so DL proposals accept it.
func ladder54(t testing.TB) (*alloy.Model, lattice.Config, []wanglandau.Window) {
	t.Helper()
	f := testfix.Small()
	src := rng.New(5)
	seed := make(lattice.Config, 0, f.VAE.Sites)
	for sp, q := range f.Quota {
		for i := 0; i < q; i++ {
			seed = append(seed, lattice.Species(sp))
		}
	}
	src.Shuffle(len(seed), func(i, j int) { seed[i], seed[j] = seed[j], seed[i] })
	hi := f.Ham.Energy(seed)
	cold := mc.NewSampler(f.Ham, seed.Clone(), mc.NewSwapProposal(f.Ham), src)
	cold.Anneal([]float64{2000, 1000, 500, 250}, 40)
	lo := cold.E + 0.15*(hi-cold.E)
	wins, err := SplitWindows(lo, hi, 8, 0.75, (hi-lo)/48)
	if err != nil {
		t.Fatal(err)
	}
	return f.Ham, seed, wins
}

// testLeader builds rank 0 of a world of one the way runDistLeader does,
// fresh at round 0, so a test can step rounds and look at the walkers in
// between.
func testLeader(t testing.TB, m *alloy.Model, seed lattice.Config, wins []wanglandau.Window, factory ProposalFactory, opts Options) *distLeader {
	t.Helper()
	opts.setDefaults()
	L := newDistLeader(transport.NewChanWorld(1).Endpoint(0), m, seed, wins, factory, opts)
	if err := L.rollbackLeader(nil); err != nil {
		t.Fatal(err)
	}
	return L
}

// stepRound runs the leader's round and returns the boundaries whose
// exchange was accepted: an accepted exchange moves a replica id out of
// the boundary's lower window, which exchanges at no other boundary that
// round.
func stepRound(t testing.TB, L *distLeader, round int) (accepted []int) {
	t.Helper()
	before := make([][]int, len(L.replicaID))
	for wi, ids := range L.replicaID {
		before[wi] = append([]int(nil), ids...)
	}
	if _, err := L.round(context.Background(), round); err != nil {
		t.Fatal(err)
	}
	for wi := round % 2; wi+1 < len(L.windows); wi += 2 {
		if !reflect.DeepEqual(before[wi], L.replicaID[wi][:len(before[wi])]) {
			accepted = append(accepted, wi)
		}
	}
	return accepted
}

// kswapFactory mixes the two local proposals, so a ladder built with it
// carries every small proposal struct mc has.
func kswapFactory(m *alloy.Model) ProposalFactory {
	return func(win, widx int, s *rng.Source) mc.Proposal {
		return mc.NewMixture(
			[]mc.Proposal{mc.NewSwapProposal(m), mc.NewKSwapProposal(m, 3)},
			[]float64{0.8, 0.2})
	}
}

func TestWalkersOwnTheirCacheLines(t *testing.T) {
	// Far from convergence on every row: a converged walker stops sweeping.
	wl := wanglandau.Options{LnFInit: 0.05, LnFFinal: 1e-300}

	t.Run("fresh 8x1 swap ladder, 54 sites", func(t *testing.T) {
		m, seed, wins := ladder54(t)
		L := testLeader(t, m, seed, wins, swapFactory(m), Options{Seed: 3, WL: wl})
		requireOwnLines(t, L.o)
	})

	// exchanged runs the 4x2 ladder at 16 sites until every boundary has
	// accepted an exchange.
	exchanged := func(t *testing.T, opts Options) (*distLeader, *alloy.Model, []wanglandau.Window) {
		m, exact := exact16(t)
		wins, err := SplitWindows(exact.EMin, exact.EMax(), 4, 0.75, exact.BinWidth)
		if err != nil {
			t.Fatal(err)
		}
		opts.Seed, opts.WalkersPerWindow, opts.ExchangeInterval, opts.WL = 7, 2, 10, wl
		L := testLeader(t, m, lattice.EquiatomicConfig(m.Lattice(), 2, rng.New(21)), wins, kswapFactory(m), opts)
		perBoundary := make([]int, len(wins)-1)
		for round := 0; round < 20; round++ {
			for _, wi := range stepRound(t, L, round) {
				perBoundary[wi]++
			}
		}
		for wi, n := range perBoundary {
			if n == 0 {
				t.Fatalf("boundary %d-%d accepted no exchange in 20 rounds (%v); the row exercises nothing", wi, wi+1, perBoundary)
			}
		}
		return L, m, wins
	}

	t.Run("4x2 at 16 sites after 20 rounds of exchanges", func(t *testing.T) {
		L, _, _ := exchanged(t, Options{})
		requireOwnLines(t, L.o)
	})

	t.Run("checkpoint then restore", func(t *testing.T) {
		// Round 20 is a checkpoint round (CheckpointEvery defaults to 10).
		L, m, wins := exchanged(t, Options{CheckpointDir: t.TempDir()})
		ck, err := L.newestCheckpoint()
		if err != nil || ck == nil || ck.Round != 20 {
			t.Fatalf("newest checkpoint %+v, %v; want round 20", ck, err)
		}
		o, err := restoreOwnerState(m, wins, kswapFactory(m), L.opts, ck)
		if err != nil {
			t.Fatal(err)
		}
		requireOwnLines(t, o)
	})

	t.Run("adaptive migration", func(t *testing.T) {
		m, exact := exact16(t)
		wins, err := SplitWindows(exact.EMin, exact.EMax(), 3, 0.75, exact.BinWidth)
		if err != nil {
			t.Fatal(err)
		}
		opts := adaptiveTestOpts(wanglandau.Options{LnFFinal: 1e-3})
		L := testLeader(t, m, lattice.EquiatomicConfig(m.Lattice(), 2, rng.New(21)), wins, swapFactory(m), opts)
		for round := 0; L.res.Migrations == 0; round++ {
			if round == 500 {
				t.Fatal("no migration in 500 rounds; the row exercises nothing")
			}
			stepRound(t, L, round)
		}
		requireOwnLines(t, L.o)
	})

	// The DL rows build the facade's mixture over the 54-site fixture, with
	// per-walker weight clones and with clients of one shared engine, and
	// sweep one round so every proposal branch has run.
	f := testfix.Small()
	swapAndDL := func(gp *mc.GlobalProposal) mc.Proposal {
		return mc.NewMixture([]mc.Proposal{mc.NewSwapProposal(f.Ham), gp}, []float64{0.85, 0.15})
	}
	engine := infer.NewEngine(f.NewModel())
	for _, row := range []struct {
		name    string
		factory ProposalFactory
	}{
		{"DL mixture, weight clones", func(win, widx int, s *rng.Source) mc.Proposal {
			return swapAndDL(mc.NewGlobalProposal(f.NewModel().CloneWeights(s), f.Ham, f.Quota, mc.CondForT(1000)))
		}},
		{"DL mixture, engine clients", func(win, widx int, s *rng.Source) mc.Proposal {
			return swapAndDL(mc.NewGlobalProposalWith(engine.NewClient(), f.Ham, f.Quota, mc.CondForT(1000)))
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			m, seed, wins := ladder54(t)
			L := testLeader(t, m, seed, wins[:4], row.factory, Options{Seed: 9, WalkersPerWindow: 2, ExchangeInterval: 2, WL: wl})
			stepRound(t, L, 0)
			requireOwnLines(t, L.o)
		})
	}
}

// cfgSpy is a swap proposal that records where its walker's configuration
// lives each time it is asked to move it.
type cfgSpy struct {
	mc.Proposal
	seen map[*lattice.Species]bool
}

func (p *cfgSpy) Propose(cfg lattice.Config, curE float64, src *rng.Source) (float64, float64) {
	p.seen[&cfg[0]] = true
	return p.Proposal.Propose(cfg, curE, src)
}

// TestExchangeCopiesNeverRepoints: an accepted exchange copies the
// partner's configuration into the array the walker owns. Seen from inside
// each walker's proposal, over 200 rounds of a world of one and of a chan
// world of two, the configuration never moves.
func TestExchangeCopiesNeverRepoints(t *testing.T) {
	m, exact := exact16(t)
	wins, err := SplitWindows(exact.EMin, exact.EMax(), 4, 0.75, exact.BinWidth)
	if err != nil {
		t.Fatal(err)
	}
	seed := lattice.EquiatomicConfig(m.Lattice(), 2, rng.New(21))
	opts := Options{Seed: 7, WalkersPerWindow: 2, ExchangeInterval: 10, MaxRounds: 200,
		WL: wanglandau.Options{LnFInit: 0.05, LnFFinal: 1e-300}}
	for _, ranks := range []int{1, 2} {
		t.Run(fmt.Sprintf("world of %d", ranks), func(t *testing.T) {
			spies := make(chan *cfgSpy, len(wins)*opts.WalkersPerWindow) // one send per walker built
			factory := func(win, widx int, s *rng.Source) mc.Proposal {
				spy := &cfgSpy{Proposal: mc.NewSwapProposal(m), seen: map[*lattice.Species]bool{}}
				spies <- spy
				return spy
			}
			world := transport.NewChanWorld(ranks)
			results := make(chan *Result, ranks) // one send per rank
			for r := 0; r < ranks; r++ {
				go func(r int) {
					res, err := RunDistributed(context.Background(), world.Endpoint(r), m, seed, wins, factory, opts)
					if err != nil {
						t.Errorf("rank %d: %v", r, err)
					}
					results <- res
				}(r)
			}
			var leader *Result
			for r := 0; r < ranks; r++ {
				if res := <-results; res != nil {
					leader = res
				}
			}
			if leader == nil {
				t.Fatal("no leader result")
			}
			if leader.Rounds != 200 || leader.ExchangeAccept == 0 {
				t.Fatalf("%d rounds, %d accepted exchanges; the test needs 200 and some", leader.Rounds, leader.ExchangeAccept)
			}
			close(spies)
			for spy := range spies {
				if len(spy.seen) != 1 {
					t.Errorf("a walker's configuration lived at %d addresses, want 1", len(spy.seen))
				}
			}
		})
	}
}

// TestSetCfgWrongLength: a configuration payload of another lattice size is
// not a message a well-formed peer sends, but when one arrives the walker
// takes all of it and nothing else, as it always did — never a prefix
// copied over the old configuration.
func TestSetCfgWrongLength(t *testing.T) {
	m, seed, wins := ladder54(t)
	L := testLeader(t, m, seed, wins[:2], swapFactory(m), Options{Seed: 3})
	s := L.o.walkers[0][0].Sampler()
	for _, n := range []int{len(seed) + 3, len(seed) - 3} {
		payload := make([]float64, n)
		for i := range payload {
			payload[i] = float64(i % 4)
		}
		L.o.setCfg(0, 0, -1.5, payload)
		if len(s.Cfg) != n || s.E != -1.5 {
			t.Fatalf("payload of %d sites left a configuration of %d at E=%g", n, len(s.Cfg), s.E)
		}
		for i, v := range s.Cfg {
			if float64(v) != payload[i] {
				t.Fatalf("payload of %d sites: site %d holds %d, sent %g", n, i, v, payload[i])
			}
		}
		if e, got := L.o.getCfg(0, 0); e != -1.5 || len(got) != n {
			t.Fatalf("getCfg returns %d sites at E=%g after a payload of %d", len(got), e, n)
		}
	}
}

// BenchmarkSweepPhase is one sweep phase per iteration — 8 swap walkers at
// 54 sites, 50 sweeps each — with nothing else of the round around it, so
// `-cpu 1,2` shows what a second core buys the sampling plane.
func BenchmarkSweepPhase(b *testing.B) {
	m, seed, wins := ladder54(b)
	L := testLeader(b, m, seed, wins, swapFactory(m), Options{Seed: 3, WL: wanglandau.Options{LnFInit: 0.05, LnFFinal: 1e-300}})
	ctx := context.Background()
	L.o.sweepPhase(ctx)
	steps := func() (n int64) {
		for _, ws := range L.o.walkers {
			n += ws[0].Steps()
		}
		return n
	}
	before := steps()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		L.o.sweepPhase(ctx)
	}
	b.ReportMetric(float64(steps()-before)/b.Elapsed().Seconds(), "steps/s")
}
