// Command perfbench is the repository's benchmark (BENCHMARK.json): four
// workloads that stress different layers of the DSM simulator, host-time
// end-to-end metrics, and a traced run that reports a per-layer ledger. See
// README.md for the metric glossary and the reasoning behind each workload.
//
//	perfbench --workload access_path --seed 1 --seconds 15 --trace 0
//	perfbench -all -out A.json        # every workload, fresh child per run
//	perfbench -compare A.json B.json  # apply BENCHMARK.json's bounds
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"repro/internal/apps"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/sim"
)

// Set-up runs at least minSetupReps times, and again until setupBudget is
// spent or maxSetupReps is reached, so that a set-up of a few milliseconds is
// sampled often enough for its median, setup_s, to be steady.
var (
	minSetupReps = 5
	maxSetupReps = 60
	setupBudget  = time.Second
)

// scratchDir holds everything the benchmark writes: the build (run.sh), the
// span files and the sweep's temporary disk cache.
var scratchDir = filepath.Join(".bench_build", "perfbench")

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of a run's standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		workloadF = flag.String("workload", "", "workload to run: access_path, sync_storm, protocol_mix or sweep_parallel")
		seed      = flag.Int64("seed", 1, "input seed: execution order, data seeds and pattern-program shapes (2 is the documented hold-out)")
		seconds   = flag.Float64("seconds", 20, "how long to keep starting passes")
		trace     = flag.Int("trace", 0, "1: alternate traced and untraced passes, run the probes, print the per-layer metrics")
		all       = flag.Bool("all", false, "run every workload in fresh child processes and print a summary")
		reps      = flag.Int("reps", 5, "with -all: untraced runs per workload (at least 3)")
		out       = flag.String("out", "", "with -all: write the run set to this file")
		record    = flag.Bool("record", false, "with -all: append the medians to perfbench/history.jsonl")
		audit     = flag.Bool("audit", false, "run the full 430-spec small plan and compare it with the pinned sha256")
		compare   = flag.Bool("compare", false, "compare two -out files given as arguments, applying BENCHMARK.json's bounds")
	)
	flag.Parse()
	// The engine's environment switches select other execution paths.
	os.Unsetenv(sim.NoFastPathEnv)
	os.Unsetenv(sim.ParallelEnv)

	var err error
	switch {
	case *compare:
		err = compareCmd(flag.Args())
	case *audit:
		err = auditFullPlan()
	case *all:
		err = suiteCmd(*reps, *seed, *seconds, *out, *record)
	default:
		w, ok := findWorkload(*workloadF)
		if !ok {
			err = fmt.Errorf("unknown workload %q", *workloadF)
			break
		}
		err = runWorkload(w, *seed, *seconds, *trace != 0)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run is everything measured in one process for one workload.
type run struct {
	w       workload
	p       prepared
	oracle  map[string]map[string]float64
	setup   []float64 // seconds, one per set-up repetition
	planMS  []float64
	buildMS []float64

	untraced, traced []passResult
	tr               *tracer // the first traced pass: the ledger's counts, times and spans
	specTook         []time.Duration

	sha        string
	attempted  int
	errs       []string // run errors and broken invariants
	mismatches []string // oracle disagreements
}

// setUp is the timed set-up: seed expansion, plan building, constructing
// every program the workload owns, and the sequential oracle run of each
// distinct program, which doubles as the warm-up simulation.
func (r *run) setUp(seed int64) error {
	t0 := time.Now()
	r.p = r.w.prepare(seed)
	r.planMS = append(r.planMS, ms(time.Since(t0)))
	t1 := time.Now()
	for _, j := range r.p.jobs {
		_ = j.build()
	}
	for _, s := range r.p.specs {
		if j, ok := specJob(s); ok {
			_ = j.build()
		}
	}
	r.buildMS = append(r.buildMS, ms(time.Since(t1)))
	var err error
	r.oracle, err = oracleFor(r.p)
	r.setup = append(r.setup, time.Since(t0).Seconds())
	return err
}

// pass runs the workload once. A traced pass installs the decorator.
func (r *run) pass(traced bool) error {
	runtime.GC() // every pass starts from a collected heap; not timed
	var pr passResult
	var err error
	switch {
	case !traced && r.p.specs != nil:
		pr, err = runSweep(r.p.specs, "")
	case !traced:
		pr = runJobs(r.p.jobs, nil)
	default:
		// Later traced passes only time the decorator's overhead.
		tr := newTracer(r.tr == nil)
		if r.tr == nil {
			r.tr = tr
		}
		if r.p.specs != nil {
			pr, r.specTook = runSweepTraced(r.p.specs, tr)
		} else {
			pr = runJobs(r.p.jobs, tr)
		}
		if tr.keep {
			tr.spans[0].End = tr.since()
		}
	}
	if err != nil {
		return err
	}
	runs, errs, mismatches := judge(pr.outcomes, r.oracle)
	r.attempted += runs
	sha := resultsHash(pr.outcomes)
	if r.sha == "" {
		r.sha, r.errs, r.mismatches = sha, errs, mismatches
	} else if sha != r.sha {
		// Deterministic simulator: every pass, traced or not, must reproduce
		// the first one bit for bit.
		kind := "untraced"
		if traced {
			kind = "traced"
		}
		r.errs = append(r.errs, fmt.Sprintf("%s pass %d: results_sha256 %s differs from the first pass's %s", kind, len(r.untraced)+len(r.traced), sha, r.sha))
	}
	if traced {
		r.traced = append(r.traced, pr)
	} else {
		r.untraced = append(r.untraced, pr)
	}
	return nil
}

// measured is the outcome of one run of one workload.
type measured struct {
	run      *run
	host     []float64 // seconds, one per untraced pass
	simUS    float64   // simulated µs one pass advances
	endToEnd map[string]metric
	perLayer map[string]metric // nil unless traced
	failures []string
}

func measure(w workload, seed int64, seconds float64, trace bool) (*measured, error) {
	prev := runtime.GOMAXPROCS(w.gomaxprocs())
	defer runtime.GOMAXPROCS(prev)
	r := &run{w: w}
	setupStart := time.Now()
	for i := 0; i < minSetupReps || (i < maxSetupReps && time.Since(setupStart) < setupBudget); i++ {
		if err := r.setUp(seed); err != nil {
			return nil, err
		}
	}

	start := time.Now()
	for n := 0; ; n++ {
		enough := n >= 1
		if trace {
			enough = n >= 2 // one pass of each kind at least
		}
		if enough && time.Since(start).Seconds() >= seconds {
			break
		}
		if err := r.pass(trace && n%2 == 1); err != nil {
			return nil, err
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}

	m := &measured{run: r, host: hostSeconds(r.untraced), simUS: simMicros(r.untraced[0])}
	hostS := median(m.host)
	m.endToEnd = map[string]metric{
		"host_s":             {hostS, "s"},
		"sim_us_per_host_us": {m.simUS / (hostS * 1e6), "ratio"},
		"peak_rss_mb":        {rss, "MB"},
		"setup_s":            {median(r.setup), "s"},
	}
	if trace {
		m.perLayer = map[string]metric{}
		if err := r.layerMetrics(m.perLayer, hostS); err != nil {
			return nil, err
		}
	}

	// The single-stream workloads are chosen so that every DSM run agrees
	// with its oracle, and a disagreement there is a failed run. The sweep
	// runs the paper's plan as it is: its known TreadMarks disagreements at
	// small size are counted (apps.oracle_mismatches) and listed, but what
	// fails the sweep is an error, a pass that does not repeat, or the pinned
	// 42-spec results document no longer matching byte for byte.
	if r.p.specs != nil {
		if err := pinnedSubsetMatches(); err != nil {
			r.errs = append(r.errs, err.Error())
		}
	}
	m.failures = r.errs
	if r.strictOracle() {
		m.failures = slices.Concat(r.errs, r.mismatches)
	}
	return m, nil
}

func (r *run) strictOracle() bool { return r.p.specs == nil }

func runWorkload(w workload, seed int64, seconds float64, trace bool) error {
	m, err := measure(w, seed, seconds, trace)
	if err != nil {
		return err
	}
	r := m.run
	metrics := m.endToEnd
	if trace {
		metrics = m.perLayer
	}
	fmt.Printf("workload %s seed %d gomaxprocs %d nproc %d\n", w.name, seed, w.gomaxprocs(), runtime.NumCPU())
	fmt.Printf("host_s median %.4f min %.4f max %.4f over %d untraced passes\n", median(m.host), slices.Min(m.host), slices.Max(m.host), len(m.host))
	fmt.Printf("setup_s median %.4f min %.4f max %.4f over %d set-ups\n", median(r.setup), slices.Min(r.setup), slices.Max(r.setup), len(r.setup))
	fmt.Printf("sim_ms_total %.3f\n", m.simUS/1e3)
	fmt.Printf("results_sha256 %s\n", r.sha)
	fmt.Printf("runs_attempted %d failed_runs %d oracle_mismatches %d\n", r.attempted, len(m.failures), len(r.mismatches))
	for _, f := range m.failures {
		fmt.Printf("failure: %s\n", f)
	}
	if !r.strictOracle() {
		for _, mm := range r.mismatches {
			fmt.Printf("oracle mismatch: %s\n", mm)
		}
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-40s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	line, err := json.Marshal(report{
		Correct: len(m.failures) == 0, Attempted: r.attempted, Failed: len(m.failures), Metrics: metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// auditFullPlan runs the exact 430-spec `dsmbench -all -size small` plan and
// compares its results document with the repository's pinned sha256. It is
// too long (about 16 s on two cores) to be a pass of a timed run; -all runs
// it once per run set.
func auditFullPlan() error {
	opts := bench.Options{Size: apps.SizeSmall}
	plan := runner.NewPlan()
	plan.Add(bench.Table1Specs(opts.VariantOpts)...)
	plan.Add(bench.Table2Specs(opts)...)
	plan.Add(bench.Fig5Specs(opts)...)
	plan.Add(bench.Fig6Specs(opts)...)
	plan.Add(bench.Table3Specs(opts)...)
	plan.Add(bench.AblationSpecs(opts)...)
	rs, err := runner.Execute(plan, runner.Options{Jobs: runtime.NumCPU()})
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := rs.WriteJSON(&buf); err != nil {
		return err
	}
	got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
	raw, err := os.ReadFile(filepath.Join("internal", "bench", "testdata", "equiv_small_full.sha256"))
	if err != nil {
		return err
	}
	if want := string(bytes.TrimSpace(raw)); got != want {
		return fmt.Errorf("full small plan hashes to %s, pinned %s", got, want)
	}
	fmt.Printf("audit: %d-spec small plan matches internal/bench/testdata/equiv_small_full.sha256\n", rs.Len())
	return nil
}

func hostSeconds(passes []passResult) []float64 {
	out := make([]float64, len(passes))
	for i, p := range passes {
		out[i] = p.host.Seconds()
	}
	return out
}

// simMicros is the simulated execution time a pass advanced, summed over its
// runs, in microseconds.
func simMicros(p passResult) float64 {
	var ns int64
	for _, o := range p.outcomes {
		if o.res != nil {
			ns += int64(o.res.Time)
		}
	}
	return float64(ns) / 1e3
}

// totals aggregates the statistics of a pass's DSM runs by protocol family;
// all[...] covers every run including the sequential baseline.
func totals(p passResult) (all core.Stats, fam [numFamilies]core.Stats, counters [numFamilies]map[string]int64) {
	for f := range counters {
		counters[f] = map[string]int64{}
	}
	for _, o := range p.outcomes {
		if o.res == nil {
			continue
		}
		all.Add(&o.res.Total)
		f := familyOf(o.variant)
		if f < 0 {
			continue
		}
		fam[f].Add(&o.res.Total)
		for k, v := range o.res.Counters {
			counters[f][k] += v
		}
	}
	return all, fam, counters
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
