package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"

	"deepthermo"
	"deepthermo/internal/dos"
	"deepthermo/internal/thermo"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests hold the
// program to.
type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestMetricsMatchBenchmarkJSON: every declared name, unit and direction
// is the one the program emits, in both directions, and names and units
// stay inside the contract's character sets.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	spec := readBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, got []metricDef, n int, at func(i int) (string, string, string)) {
		if len(got) != n {
			t.Fatalf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(got), n)
		}
		for i, d := range got {
			name, unit, better := at(i)
			if d.Name != name || d.Unit != unit || d.Better != better {
				t.Errorf("%s[%d]: program {%s %s %s}, BENCHMARK.json {%s %s %s}", kind, i, d.Name, d.Unit, d.Better, name, unit, better)
			}
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
				t.Errorf("%s: %q / %q outside the allowed characters", kind, d.Name, d.Unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s: %s has direction %q", kind, d.Name, d.Better)
			}
			if seen[d.Name] {
				t.Errorf("name %s used twice", d.Name)
			}
			seen[d.Name] = true
		}
	}
	check("end_to_end", endToEnd, len(spec.EndToEnd), func(i int) (string, string, string) {
		m := spec.EndToEnd[i]
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		return m.Name, m.Unit, m.Better
	})
	check("per_layer", perLayer, len(spec.PerLayer), func(i int) (string, string, string) {
		m := spec.PerLayer[i]
		return m.Name, m.Unit, m.Better
	})
	if !seen["setup_s"] {
		t.Error("setup_s is not declared")
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("program has %d workloads, BENCHMARK.json %d", len(workloads), len(spec.Workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].Name || !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %d: %q vs program %q (why: %d chars)", i, w.Name, workloads[i].Name, len(w.Why))
		}
	}
}

// TestSmokeEveryWorkload runs every workload at smoke scale, untraced and
// traced, through the same run() the command line calls, and checks the
// result object: exactly the declared names with their units, no failed
// operation, at least one attempted.
func TestSmokeEveryWorkload(t *testing.T) {
	dir := t.TempDir()
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := run(wl.Name, 7, 0.05, trace, true, dir)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wl.Name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				if !ok {
					t.Errorf("%s trace=%v: %s missing", wl.Name, trace, d.Name)
					continue
				}
				if v.Unit != d.Unit {
					t.Errorf("%s: %s has unit %q, want %q", wl.Name, d.Name, v.Unit, d.Unit)
				}
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s: %s = %v", wl.Name, d.Name, v.Value)
				}
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %v, must never be 0", wl.Name, d.Name, v.Value)
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", wl.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if trace {
				if _, err := os.Stat(dir + "/trace-" + wl.Name + ".json"); err != nil {
					t.Errorf("%s: no trace file: %v", wl.Name, err)
				}
			}
		}
	}
	if _, err := run("no_such_workload", 1, 0.05, false, true, dir); err == nil {
		t.Error("an unknown workload name was accepted")
	}
}

// TestSeedHonoured: the seed reaches every generated input — System seeds,
// job seeds, the synthetic DOS — and the same seed gives the same inputs.
func TestSeedHonoured(t *testing.T) {
	a, b := splitmix(1, 0), splitmix(2, 0)
	if a == b || a != splitmix(1, 0) || a == splitmix(1, 1) {
		t.Fatalf("sub-seeds: %d %d", a, b)
	}
	sa, _ := json.Marshal(jobSpec(a))
	sb, _ := json.Marshal(jobSpec(b))
	if bytes.Equal(sa, sb) {
		t.Error("job specs of seeds 1 and 2 are equal")
	}
	d1, err := syntheticDOS(a, 128)
	if err != nil {
		t.Fatal(err)
	}
	d1again, _ := syntheticDOS(a, 128)
	d2, _ := syntheticDOS(b, 128)
	if !bytes.Equal(d1, d1again) || bytes.Equal(d1, d2) {
		t.Error("synthetic DOS does not follow the seed")
	}
	dosOf := func(seed uint64) []byte {
		bn := &bench{wl: findWorkload("adaptive_rewl_n16"), sz: smokeSizes, seed: seed, workDir: t.TempDir()}
		var err error
		if bn.spectrum, err = loadSpectrum(); err != nil {
			t.Fatal(err)
		}
		out, err := bn.timedRep(0, sampleHooks{}, false)
		if err != nil {
			t.Fatal(err)
		}
		return out.DOSBytes
	}
	x, xAgain, y := dosOf(1), dosOf(1), dosOf(2)
	if !bytes.Equal(x, xAgain) {
		t.Error("the same seed gave two different DOS")
	}
	if bytes.Equal(x, y) {
		t.Error("seeds 1 and 2 gave the same DOS")
	}
}

// TestSpectrumFixture: the committed spectrum holds all 16!/(4!)^4 states,
// and putting it on a run's grid loses none of them.
func TestSpectrumFixture(t *testing.T) {
	sp, err := loadSpectrum()
	if err != nil {
		t.Fatal(err)
	}
	const want = 63063000
	var total float64
	for i, c := range sp.Count {
		total += c
		if i > 0 && sp.E[i] <= sp.E[i-1] {
			t.Fatalf("energies not ascending at %d", i)
		}
	}
	if total != want || sp.States != want {
		t.Fatalf("spectrum holds %.0f states (header %.0f), want %d", total, sp.States, want)
	}
	logStates, err := dos.LogMultinomial(16, []int{4, 4, 4, 4})
	if err != nil || math.Abs(math.Exp(logStates)-want) > 1 {
		t.Fatalf("ln multinomial %.6f does not match %d", logStates, want)
	}

	grid := gridOver(t, sp)
	logG, inside := sp.rebin(grid)
	if inside != want {
		t.Errorf("%.0f states inside the grid, want %d", inside, want)
	}
	var sum float64
	for _, x := range logG {
		sum += math.Exp(x) // exp(-Inf) = 0 for empty bins
	}
	if math.Abs(sum-want) > 1e-6*want {
		t.Errorf("rebinned counts sum to %.3f, want %d", sum, want)
	}
	// An exact DOS scores zero against itself.
	copy(grid.LogG, logG)
	if rms, med, n := sp.errors(grid); n == 0 || rms > 1e-12 || med > 1e-12 {
		t.Errorf("exact spectrum against itself: rms %g, median %g over %d bins", rms, med, n)
	}
}

// gridOver is a run's grid: the facade recipe's energy range at seed 1,
// widened to hold the whole spectrum (the sampled range stops at the
// highest energy the hot walk happened to reach).
func gridOver(t *testing.T, sp *spectrumFixture) *dos.LogDOS {
	t.Helper()
	sys, err := deepthermo.NewSystem(deepthermo.SystemConfig{Cells: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, _ := energyRange(sys, 1)
	w := (hi - lo) / 48
	for hi <= sp.E[len(sp.E)-1] {
		hi += w
	}
	if lo > sp.E[0] {
		t.Fatalf("sampled range starts at %g, above the ground state %g", lo, sp.E[0])
	}
	grid, err := dos.New(lo, hi, int(math.Round((hi-lo)/w)))
	if err != nil {
		t.Fatal(err)
	}
	return grid
}

// TestGatesRejectWrongDOS: the accuracy gates at their full-scale values
// pass the fixtures themselves and fail a DOS tilted by a tenth of a ln g
// per bin, a curve moved by three grid points (40 K) and a curve a fifth
// too high.
func TestGatesRejectWrongDOS(t *testing.T) {
	sp, err := loadSpectrum()
	if err != nil {
		t.Fatal(err)
	}
	b16 := &bench{wl: findWorkload("adaptive_rewl_n16"), sz: fullSizes, spectrum: sp}
	d := gridOver(t, sp)
	exact, _ := sp.rebin(d)
	copy(d.LogG, exact)
	gate16 := func() error {
		out := &repOut{}
		if err := b16.accuracy(out, d); err != nil {
			t.Fatal(err)
		}
		return b16.gate(out.MedAbs, 0, 0)
	}
	if err := gate16(); err != nil {
		t.Errorf("the exact DOS fails its gate: %v", err)
	}
	for i := range d.LogG {
		d.LogG[i] += 0.1 * float64(i) // -Inf stays -Inf
	}
	if gate16() == nil {
		t.Error("a DOS tilted by 0.1 ln g per bin passes the 16-site gate")
	}

	ref, err := loadCurveRef()
	if err != nil {
		t.Fatal(err)
	}
	b54 := &bench{wl: findWorkload("swap_rewl_n54"), sz: fullSizes, cvref: ref}
	curve := func(shift int, scale float64) []thermo.Point {
		pts := make([]thermo.Point, curvePoints)
		for i, T := range curveGrid() {
			j := min(max(i-shift, 0), curvePoints-1)
			pts[i] = thermo.Point{T: T, Cv: scale * ref.Cv[j]}
		}
		return pts
	}
	gate54 := func(pts []thermo.Point) error {
		out := &repOut{Points: pts}
		d54, _ := dos.New(0, 1, 2)
		if err := b54.accuracy(out, d54); err != nil {
			t.Fatal(err)
		}
		return b54.gate(0, out.CvRel, out.DTc)
	}
	if err := gate54(curve(0, 1)); err != nil {
		t.Errorf("the reference curve fails its gate: %v", err)
	}
	if gate54(curve(3, 1)) == nil {
		t.Error("a curve moved by 40 K passes the 54-site gate")
	}
	if gate54(curve(0, 1.2)) == nil {
		t.Error("a curve a fifth too high passes the 54-site gate")
	}
}

func dosBytes(t *testing.T, d *dos.LogDOS) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := deepthermo.SaveDOS(d, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// trainedSystem is a 16-site System with a small trained proposal model.
func trainedSystem(t *testing.T, seed uint64) *deepthermo.System {
	t.Helper()
	sys, err := deepthermo.NewSystem(deepthermo.SystemConfig{Cells: 2, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.GenerateData(&deepthermo.DataConfig{LadderLen: 2, SamplesPerTemp: 12}); err != nil {
		t.Fatal(err)
	}
	if err := sys.TrainProposal(trainOptions(seed, 2)); err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestRecipeMatchesFacade: with no pinned schedule the replicated recipe
// is System.SampleDOS — same seed, same bytes — on the swap path, the
// DL-clone path and the DL-batch path.
func TestRecipeMatchesFacade(t *testing.T) {
	const seed = 11
	cases := []struct {
		name string
		dl   bool
		cfg  deepthermo.DOSConfig
	}{
		{"swap", false, deepthermo.DOSConfig{NoDL: true, Windows: 4, Walkers: 2, LnFFinal: 1e-2}},
		{"swap-1t", false, deepthermo.DOSConfig{NoDL: true, Windows: 2, Bins: 16, LnFFinal: 1e-2, OneOverT: true}},
		{"dl-clone", true, deepthermo.DOSConfig{Windows: 2, Bins: 16, LnFFinal: 0.9}},
		{"dl-batch", true, deepthermo.DOSConfig{Windows: 2, Bins: 16, LnFFinal: 0.9, BatchInference: true}},
	}
	for _, c := range cases {
		var sys *deepthermo.System
		if c.dl {
			sys = trainedSystem(t, seed)
		} else {
			var err error
			if sys, err = deepthermo.NewSystem(deepthermo.SystemConfig{Cells: 2, Seed: seed}); err != nil {
				t.Fatal(err)
			}
		}
		want, err := sys.SampleDOS(c.cfg)
		if err != nil {
			t.Fatalf("%s: facade: %v", c.name, err)
		}
		got, err := sample(context.Background(), sys, sampleSpec{Seed: seed, DOSConfig: c.cfg}, sampleHooks{})
		if err != nil {
			t.Fatalf("%s: recipe: %v", c.name, err)
		}
		if !bytes.Equal(dosBytes(t, got.Run.DOS), dosBytes(t, want.DOS)) {
			t.Errorf("%s: recipe and facade DOS differ", c.name)
		}
		if got.Run.Rounds != want.Rounds || got.Run.TotalSweeps != want.Sweeps {
			t.Errorf("%s: recipe %d rounds %d sweeps, facade %d rounds %d sweeps", c.name, got.Run.Rounds, got.Run.TotalSweeps, want.Rounds, want.Sweeps)
		}
	}
}

// TestDecoratorsTransparent: the timing mc.Proposal wrapper and the timing
// transport.Endpoint change nothing a run computes — swap, DL through
// clones, DL through the engine, and a 2-rank TCP world all give the same
// DOS bytes decorated and bare; and the TCP world gives the bytes of the
// single-process run.
func TestDecoratorsTransparent(t *testing.T) {
	const seed = 5
	swapSys, err := deepthermo.NewSystem(deepthermo.SystemConfig{Cells: 2, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	dlSys := trainedSystem(t, seed)
	decorated := func() sampleHooks {
		return sampleHooks{book: &proposalBook{}, tr: newTracer(), run: "t"}
	}
	pinnedSpec := func(cfg deepthermo.DOSConfig, rounds int) sampleSpec {
		wl := workloadDef{DOS: cfg}
		return wl.pinned(seed, rounds)
	}
	cases := []struct {
		name string
		sys  *deepthermo.System
		spec sampleSpec
	}{
		{"swap", swapSys, pinnedSpec(deepthermo.DOSConfig{Windows: 4, Walkers: 2, NoDL: true}, 20)},
		{"dl-clone", dlSys, pinnedSpec(deepthermo.DOSConfig{Windows: 2, Walkers: 2, Bins: 16}, 4)},
		{"dl-batch", dlSys, pinnedSpec(deepthermo.DOSConfig{Windows: 2, Walkers: 2, Bins: 16, BatchInference: true}, 4)},
	}
	var clone []byte
	for _, c := range cases {
		bare, err := sample(context.Background(), c.sys, c.spec, sampleHooks{})
		if err != nil {
			t.Fatalf("%s bare: %v", c.name, err)
		}
		h := decorated()
		dec, err := sample(context.Background(), c.sys, c.spec, h)
		if err != nil {
			t.Fatalf("%s decorated: %v", c.name, err)
		}
		if !bytes.Equal(dosBytes(t, bare.Run.DOS), dosBytes(t, dec.Run.DOS)) {
			t.Errorf("%s: decorated DOS differs from bare", c.name)
		}
		kind := "swap"
		if c.name != "swap" {
			kind = "dl"
		}
		if st := h.book.stats(kind); st.Calls == 0 {
			t.Errorf("%s: the decorator saw no %s proposals", c.name, kind)
		}
		if c.name == "dl-batch" {
			if dec.Batch == nil || dec.Batch.Requests == 0 || dec.Batch.PassThrough != 0 {
				t.Errorf("dl-batch: decorated run bypassed the engine: %+v", dec.Batch)
			}
			if !bytes.Equal(clone, dosBytes(t, dec.Run.DOS)) {
				t.Error("engine and clone paths gave different DOS")
			}
		}
		if c.name == "dl-clone" {
			clone = dosBytes(t, dec.Run.DOS)
		}
	}

	spec := pinnedSpec(deepthermo.DOSConfig{Windows: 4, Walkers: 2, NoDL: true, CheckpointDir: t.TempDir(), CheckpointEvery: 5}, 20)
	single, err := sample(context.Background(), swapSys, cases[0].spec, sampleHooks{})
	if err != nil {
		t.Fatal(err)
	}
	bare, err := sampleTCP(context.Background(), swapSys, spec, 2, sampleHooks{})
	if err != nil {
		t.Fatal(err)
	}
	spec.CheckpointDir = t.TempDir()
	h := decorated()
	dec, err := sampleTCP(context.Background(), swapSys, spec, 2, h)
	if err != nil {
		t.Fatal(err)
	}
	want := dosBytes(t, single.Run.DOS)
	if !bytes.Equal(want, dosBytes(t, bare.Run.DOS)) {
		t.Error("2-rank TCP DOS differs from the single-process run")
	}
	if !bytes.Equal(want, dosBytes(t, dec.Run.DOS)) {
		t.Error("decorated 2-rank TCP DOS differs from bare")
	}
	if len(dec.Endpoints) != 2 || dec.Endpoints[0].msgs == 0 || h.tr.count() == 0 {
		t.Error("the endpoint decorator saw no traffic")
	}
}

// TestQuartileSpread pins the quartile rule to Python's
// statistics.quantiles(xs, n=4): for 1..10 that is Q1 2.75, Q3 8.25.
func TestQuartileSpread(t *testing.T) {
	xs := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %g, want %g", got, want)
	}
}
