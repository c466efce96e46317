// Command bench is the repository's benchmark: six workloads that drive
// the whole pipeline through its public entry points, end-to-end metrics
// measured untraced, per-layer metrics taken from outside by timing and
// decorating calls into each layer. See README.md in this directory.
//
//	bash bench/run.sh --workload swap_rewl_n54 --seed 1 --seconds 12 --trace 0
//
// The last line of standard output is one JSON object; everything a human
// reads goes to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	reps int // repetitions that passed, for the -out record's environment block
}

// bench is one invocation's state: one workload, one seed.
type bench struct {
	wl      *workloadDef
	sz      sizes
	seed    uint64
	seconds float64
	workDir string

	spectrum *spectrumFixture
	cvref    *curveFixture

	// Set-up's products.
	lb         *loopback
	modelBytes []byte
	synth      []byte
	// Plain stopwatches around set-up's generate and fit (dl_batch_n16).
	setupGenS, setupFitS float64
	setupSamples         int

	ckptSeq     int
	lastCkptDir string

	attempted, failed int
	passed            int // repetitions that ran their whole schedule
	redrawn           int // specs rejected for the window-edge bug and redrawn
}

func (b *bench) fail(format string, args ...any) {
	b.failed++
	fmt.Fprintf(os.Stderr, "FAIL: "+format+"\n", args...)
}

// setup is everything the workload does not time: fixtures, the loopback
// server and the synthetic DOS of serve_http, the pretrained model of
// dl_batch_n16, and a warm-up — one short repetition, or a batch of jobs — so
// the first timed repetition does not pay for cold caches and lazy
// initialisation.
func (b *bench) setup() error {
	var err error
	if b.wl.Cells == 2 {
		if b.spectrum, err = loadSpectrum(); err != nil {
			return err
		}
	} else if b.cvref, err = loadCurveRef(); err != nil {
		return err
	}
	b.stopAll() // a repeated set-up replaces the previous server
	if b.wl.HTTP {
		dataDir := filepath.Join(b.workDir, fmt.Sprintf("data-%d", time.Now().UnixNano()))
		if b.lb, err = startLoopback(dataDir); err != nil {
			return err
		}
	}
	setupSeed := splitmix(b.seed, 1<<32)
	if b.wl.Pretrained {
		if b.modelBytes, err = b.trainModel(setupSeed); err != nil {
			return err
		}
	}
	if b.wl.HTTP {
		if b.synth, err = syntheticDOS(setupSeed, b.sz.SynthBins); err != nil {
			return err
		}
		for i := 0; i < b.sz.WarmJobs && err == nil; i++ {
			_, err = b.redraw(func(seed uint64) (*repOut, error) { return b.httpRep(seed, "warmup") }, 1<<33+uint64(i))
		}
		return err
	}
	_, err = b.redraw(func(seed uint64) (*repOut, error) {
		return b.sampleRep(seed, b.sz.warmRounds(b.wl.Name), true, sampleHooks{})
	}, 1<<33)
	return err
}

// redraw runs rep on the sub-seed of the given stream, drawing the next
// sub-seed when the sampler rejects the spec for the window-edge bug.
func (b *bench) redraw(rep func(seed uint64) (*repOut, error), stream uint64) (*repOut, error) {
	for try := uint64(0); ; try++ {
		out, err := rep(splitmix(b.seed, stream+try<<40))
		if errEdgeBug(err) && try < 8 {
			b.redrawn++
			continue
		}
		return out, err
	}
}

// timedRep is one counted repetition with the given hooks.
func (b *bench) timedRep(i int, h sampleHooks, checkpoint bool) (*repOut, error) {
	b.attempted++
	out, err := b.redraw(func(seed uint64) (*repOut, error) {
		if b.wl.HTTP {
			return b.httpRep(seed, h.run)
		}
		return b.sampleRep(seed, b.sz.Rounds[b.wl.Name], checkpoint, h)
	}, uint64(i))
	if err != nil {
		b.fail("%s rep %d: %v", b.wl.Name, i, err)
	}
	return out, err
}

// measure repeats the workload until the time budget is spent (at least
// minReps times) and returns the repetitions that ran their whole schedule.
func (b *bench) measure(budget float64, minReps, maxReps int) []*repOut {
	var good []*repOut
	start := time.Now()
	for i := 0; i < maxReps; i++ {
		if i >= minReps && time.Since(start).Seconds() >= budget {
			break
		}
		out, err := b.timedRep(i, sampleHooks{run: "rep" + strconv.Itoa(i)}, true)
		if err == nil {
			good = append(good, out)
			b.passed++
		}
		if out != nil && out.Run != nil {
			fmt.Fprintf(os.Stderr, "  rep %d: %.4f s, ln g err rms %.3f median %.3f, cv dev %.3f, dTc %.0f K, span %.1f\n", i, out.ToCurveS, out.RMSE, out.MedAbs, out.CvRel, out.DTc, out.Span)
		}
		if b.lastCkptDir != "" {
			os.RemoveAll(b.lastCkptDir)
		}
	}
	return good
}

func field(reps []*repOut, f func(*repOut) float64) []float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return xs
}

// endToEndRun is --trace 0: set-up (many times, median), untraced
// repetitions for the time budget, peak RSS.
func (b *bench) endToEndRun() (map[string]float64, error) {
	// Set-up repeats like the workload does: for SetupSeconds, at least
	// SetupReps times. A 0.2 s set-up is mostly fsyncs and a server start,
	// and the median of five of those still spread by 0.25 across runs.
	var setups []float64
	for start := time.Now(); len(setups) < b.sz.SetupReps || time.Since(start).Seconds() < b.sz.SetupSeconds; {
		t := time.Now()
		if err := b.setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	reps := b.measure(b.seconds, b.sz.MinReps, b.sz.MaxReps)
	if len(reps) == 0 {
		return nil, fmt.Errorf("no repetition of %s passed", b.wl.Name)
	}
	b.runGate(reps)
	toCurve := field(reps, func(r *repOut) float64 { return r.ToCurveS })
	lo, hi := minMax(toCurve)
	slo, shi := minMax(setups)
	fmt.Fprintf(os.Stderr, "%s: %d reps, spec_to_curve_s median %.4f min %.4f max %.4f; %d set-ups, setup_s median %.4f min %.4f max %.4f\n",
		b.wl.Name, len(reps), median(toCurve), lo, hi, len(setups), median(setups), slo, shi)
	return map[string]float64{
		"setup_s":         median(setups),
		"spec_to_curve_s": median(toCurve),
		"peak_rss_mb":     peakRSSMB(),
	}, nil
}

func (b *bench) stopAll() {
	if b.lb != nil {
		b.attempted += b.lb.requests
		b.failed += b.lb.failed
		b.lb.stop()
		b.lb = nil
	}
}

func environment(seed uint64, reps int) map[string]any {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "model name") {
				if i := strings.Index(line, ":"); i >= 0 {
					cpu = strings.TrimSpace(line[i+1:])
				}
				break
			}
		}
	}
	commit := os.Getenv("DTBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"go": runtime.Version(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu": cpu, "commit": commit, "seed": seed, "reps": reps,
	}
}

func run(wlName string, seed uint64, seconds float64, trace bool, smoke bool, outDir string) (*result, error) {
	wl := findWorkload(wlName)
	if wl == nil {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.Name
		}
		return nil, fmt.Errorf("unknown workload %q (have %s)", wlName, strings.Join(names, ", "))
	}
	b := &bench{wl: wl, sz: fullSizes, seed: seed, seconds: seconds}
	if smoke {
		b.sz = smokeSizes
	}
	if n := runtime.NumCPU(); b.sz.Serve.Clients > n {
		b.sz.Serve.Clients = n // load from at most nproc client goroutines
	}
	b.workDir = filepath.Join(outDir, fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(b.workDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(b.workDir)
	defer b.stopAll()

	var vals map[string]float64
	var defs []metricDef
	var err error
	if trace {
		defs = perLayer
		vals, err = b.tracedRun(filepath.Join(outDir, "trace-"+wl.Name+".json"))
	} else {
		defs = endToEnd
		vals, err = b.endToEndRun()
	}
	if err != nil {
		return nil, err
	}
	b.stopAll()
	res := &result{Attempted: b.attempted, Failed: b.failed, Correct: b.failed == 0, Metrics: map[string]value{}, reps: b.passed}
	for _, d := range defs {
		res.Metrics[d.Name] = value{Value: vals[d.Name], Unit: d.Unit}
	}
	if b.redrawn > 0 {
		fmt.Fprintf(os.Stderr, "%s: %d spec(s) redrawn for the window-edge bug\n", wl.Name, b.redrawn)
	}
	printTable(os.Stderr, wl.Name, defs, vals)
	return res, nil
}

func printTable(w *os.File, wl string, defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		fmt.Fprintf(w, "  %-18s %-30s %14.6g %-8s (%s is better)\n", wl, d.Name, vals[d.Name], d.Unit, d.Better)
	}
}

// watchdog is how long one invocation may take before it gives up with a
// non-zero code instead of hanging its caller (the contract's limit is
// 180 s).
const watchdog = 170 * time.Second

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (see BENCHMARK.json)")
		seed     = flag.Uint64("seed", 1, "input seed: shifts every System seed, job seed and the synthetic DOS")
		seconds  = flag.Float64("seconds", 12, "how long the timed repetitions measure")
		trace    = flag.Int("trace", 0, "1: traced pass, print the per-layer metrics; 0: untraced, print the end-to-end metrics")
		scale    = flag.String("scale", "full", "full, or smoke (tiny sizes for the tests)")
		outDir   = flag.String("outdir", ".bench_build", "directory for traces, records and scratch files")
		out      = flag.String("out", "", "also write the record (environment + metrics) to this file")
		all      = flag.Bool("all", false, "run every workload once, untraced and traced, each in its own child process")
		aa       = flag.Bool("aa", false, "run every workload ten times twice over, on the same binary, and compare the two sets")
		regen    = flag.String("regen-fixtures", "", "rewrite the fixtures under this directory (bench/testdata) and exit")
	)
	flag.Parse()
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	switch {
	case *regen != "":
		if err := regenFixtures(*regen); err != nil {
			fatal(err)
		}
		return
	case *aa:
		if err := runAA(selected(*workload), *seed, *seconds, *scale, *outDir); err != nil {
			fatal(err)
		}
		return
	case *all:
		if err := runAll(selected(*workload), *seed, *seconds, *scale, *outDir); err != nil {
			fatal(err)
		}
		return
	}
	time.AfterFunc(watchdog, func() { fatal(fmt.Errorf("%s: still running after %v", *workload, watchdog)) })
	res, err := run(*workload, *seed, *seconds, *trace != 0, *scale == "smoke", *outDir)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	if *out != "" {
		rec := map[string]any{"workload": *workload, "env": environment(*seed, res.reps), "result": res}
		if err := writeJSON(*out, rec); err != nil {
			fatal(err)
		}
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// selected is what -all and -aa run: every workload, or the one -workload
// names.
func selected(name string) []workloadDef {
	if wl := findWorkload(name); wl != nil {
		return []workloadDef{*wl}
	}
	return workloads
}

// child runs one workload in a re-exec'd copy of this binary, so peak RSS,
// GOMAXPROCS and every cache start clean, and parses its last line.
func child(wl string, seed uint64, seconds float64, trace int, scale, outDir string) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", wl, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace),
		"-scale", scale, "-outdir", outDir)
	cmd.Stderr = os.Stderr
	data, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", wl, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line is not a result: %w", wl, seed, err)
	}
	return &res, nil
}

// runAll prints every end-to-end and per-layer metric of every workload.
func runAll(wls []workloadDef, seed uint64, seconds float64, scale, outDir string) error {
	record := map[string]any{"env": environment(seed, 0)}
	failed := 0
	for _, wl := range wls {
		for trace := 0; trace <= 1; trace++ {
			res, err := child(wl.Name, seed, seconds, trace, scale, outDir)
			if err != nil {
				return err
			}
			failed += res.Failed
			record[fmt.Sprintf("%s.trace%d", wl.Name, trace)] = res
		}
	}
	if err := writeJSON(filepath.Join(outDir, "all.json"), record); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d failed operations", failed)
	}
	return nil
}

// aaRuns is the number of runs in each of runAA's two sets, the contract's.
const aaRuns = 10

// runAA is the steadiness check the benchmark contract describes: two sets
// of ten runs per workload, every run another seed; per end-to-end metric
// the quartile spread of each set against the metric's bound, and the
// second set's median against the first's. It is stricter than the
// contract in one point: setup_s is held to its bound too.
func runAA(wls []workloadDef, seed uint64, seconds float64, scale, outDir string) error {
	bounds, err := loadBounds()
	if err != nil {
		return err
	}
	type cell struct{ sets [2][]float64 }
	table := map[string]*cell{}
	failedOps := 0
	for _, wl := range wls {
		for set := 0; set < 2; set++ {
			for r := 0; r < aaRuns; r++ {
				res, err := child(wl.Name, seed+uint64(set*aaRuns+r), seconds, 0, scale, outDir)
				if err != nil {
					return err
				}
				failedOps += res.Failed
				for name, v := range res.Metrics {
					key := wl.Name + " " + name
					if table[key] == nil {
						table[key] = &cell{}
					}
					table[key].sets[set] = append(table[key].sets[set], v.Value)
				}
			}
		}
	}
	keys := make([]string, 0, len(table))
	for k := range table {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	better := map[string]string{}
	for _, d := range endToEnd {
		better[d.Name] = d.Better
	}
	bad := 0
	env, _ := json.Marshal(environment(seed, aaRuns))
	fmt.Printf("env %s\n", env)
	fmt.Printf("%-42s %12s %12s %8s %8s %8s %6s\n", "workload metric", "median A", "median B", "B vs A", "spread A", "spread B", "bound")
	for _, k := range keys {
		c := table[k]
		name := strings.Fields(k)[1]
		mA, mB := median(c.sets[0]), median(c.sets[1])
		worse := (mB - mA) / mA
		if better[name] == "higher" {
			worse = -worse
		}
		sA, sB := quartileSpread(c.sets[0]), quartileSpread(c.sets[1])
		verdict := ""
		if worse > bounds[name] || sA > bounds[name] || sB > bounds[name] {
			verdict = "  OUTSIDE BOUND"
			bad++
		} else if sA > bounds[name]/3 || sB > bounds[name]/3 {
			verdict = "  spread above a third of the bound"
		}
		fmt.Printf("%-42s %12.5g %12.5g %+8.3f %8.3f %8.3f %6.2f%s\n", k, mA, mB, worse, sA, sB, bounds[name], verdict)
	}
	if failedOps > 0 {
		return fmt.Errorf("%d failed operations", failedOps)
	}
	if bad > 0 {
		return fmt.Errorf("%d metric/workload pairs outside their bound: raise that workload's run length, not the bound", bad)
	}
	return nil
}

// loadBounds reads the end-to-end bounds from BENCHMARK.json, looked for
// in the working directory and its parent (run.sh runs from the root,
// `go run` from bench/).
func loadBounds() (map[string]float64, error) {
	var data []byte
	var err error
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		if data, err = os.ReadFile(p); err == nil {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}
