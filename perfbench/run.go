package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/variants"
)

// outcome is one simulation's result inside a pass.
type outcome struct {
	key     string // unique in the pass; hashed
	label   string // what failure lines print
	prog    string
	variant string
	tol     float64
	res     *core.Result
	err     error
}

// passResult is what one pass over a workload produced.
type passResult struct {
	host     time.Duration
	cpu      time.Duration // sweep_parallel's untraced passes only
	outcomes []outcome     // sorted by key
}

// runJob runs one simulation, decorated when tr is non-nil.
func runJob(j job, tr *tracer) (*core.Result, error) {
	cfg, err := variants.Config(j.variant, j.nodes, j.ppn, j.opts)
	if err != nil {
		return nil, err
	}
	if tr == nil {
		return core.Run(cfg, j.build())
	}
	mk, r := tr.wrap(cfg.NewProtocol, j.key, j.variant)
	cfg.NewProtocol = mk
	res, err := core.Run(cfg, j.build())
	r.finish()
	return res, err
}

// runJobs is a single-stream pass: one simulation after another. The heap is
// collected before each simulation, outside the timed sections, so that a
// run's time and the process's peak memory do not depend on which simulation
// happened to precede it; the pass's host time is the sum of its simulations'.
func runJobs(jobs []job, tr *tracer) passResult {
	pr := passResult{outcomes: make([]outcome, len(jobs))}
	for i, j := range jobs {
		runtime.GC()
		t0 := time.Now()
		res, err := runJob(j, tr)
		pr.host += time.Since(t0)
		pr.outcomes[i] = outcome{key: j.key, label: j.key, prog: j.prog, variant: j.variant, tol: j.tol, res: res, err: err}
	}
	sort.Slice(pr.outcomes, func(a, b int) bool { return pr.outcomes[a].key < pr.outcomes[b].key })
	return pr
}

// specOutcome labels a runner spec's result for the oracle comparison.
func specOutcome(s runner.RunSpec, res *core.Result, err error) outcome {
	o := outcome{key: s.Key(), label: specLabel(s), variant: s.Variant, res: res, err: err}
	if e, aerr := apps.Get(s.App); aerr == nil {
		o.prog, o.tol = s.App, e.CheckTolerance
	}
	return o
}

// specLabel is a spec's short name for failure lines. Keys spell out every
// model option; the label only marks that some differ from the defaults.
func specLabel(s runner.RunSpec) string {
	l := fmt.Sprintf("%s/%s/%d", s.App, s.Variant, s.Procs)
	if s.Nodes > 0 {
		l = fmt.Sprintf("%s/%s/%dx%d", s.App, s.Variant, s.Nodes, s.PPN)
	}
	if s.Opts.Net != nil {
		l += "/" + string(s.Opts.Net.Kind)
	}
	if s.Key() != (runner.RunSpec{App: s.App, Variant: s.Variant, Procs: s.Procs, Nodes: s.Nodes, PPN: s.PPN, Size: s.Size, Opts: variants.Options{Net: s.Opts.Net}}).Key() {
		l += "/ablation"
	}
	return l
}

// runSweep is sweep_parallel's pass: the whole plan through runner.Execute
// with every core busy and the memo cache emptied first.
func runSweep(specs []runner.RunSpec, cacheDir string) (passResult, error) {
	runner.ResetCache()
	plan := runner.NewPlan()
	plan.Add(specs...)
	t0, c0 := time.Now(), cpuTime()
	rs, err := runner.Execute(plan, runner.Options{Jobs: runtime.NumCPU(), CacheDir: cacheDir})
	pr := passResult{host: time.Since(t0), cpu: cpuTime() - c0}
	if err != nil {
		return pr, err
	}
	for _, s := range specs {
		res, err := rs.Get(s)
		pr.outcomes = append(pr.outcomes, specOutcome(s, res, err))
	}
	sort.Slice(pr.outcomes, func(a, b int) bool { return pr.outcomes[a].key < pr.outcomes[b].key })
	return pr, nil
}

// specJob turns a runner spec into a job the decorator can wrap, resolving
// the layout the way the runner does. ok is false for programs only the
// runner can build (Table 1's micro programs) and for infeasible layouts.
func specJob(s runner.RunSpec) (job, bool) {
	e, err := apps.Get(s.App)
	if err != nil {
		return job{}, false
	}
	j := job{key: s.Key(), prog: s.App, variant: s.Variant, nodes: s.Nodes, ppn: s.PPN, opts: s.Opts, tol: e.CheckTolerance}
	size := s.Size
	j.build = func() *core.Program { return e.New(size) }
	switch {
	case s.Variant == variants.Sequential:
		j.nodes, j.ppn = 1, 1
	case s.Nodes == 0:
		l, err := variants.LayoutFor(s.Procs)
		if err != nil || !variants.Feasible(s.Variant, l) {
			return job{}, false
		}
		j.nodes, j.ppn = l.Nodes, l.PerNode
	}
	return j, true
}

// runSweepTraced replays the sweep's plan on a worker pool of its own so that
// each spec's host time is known and application specs can carry the
// protocol decorator; the rest run as one-spec plans through the runner.
func runSweepTraced(specs []runner.RunSpec, tr *tracer) (passResult, []time.Duration) {
	runner.ResetCache()
	out := make([]outcome, len(specs))
	took := make([]time.Duration, len(specs))
	work := make(chan int)
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				s := specs[i]
				start := time.Now()
				var res *core.Result
				var err error
				if j, ok := specJob(s); ok {
					res, err = runJob(j, tr)
				} else {
					plan := runner.NewPlan()
					plan.Add(s)
					var rs *runner.ResultSet
					if rs, err = runner.Execute(plan, runner.Options{Jobs: 1}); err == nil {
						res, err = rs.Get(s)
					}
				}
				took[i] = time.Since(start)
				out[i] = specOutcome(s, res, err)
			}
		}()
	}
	for i := range specs {
		work <- i
	}
	close(work)
	wg.Wait()
	pr := passResult{host: time.Since(t0), outcomes: out}
	sort.Slice(out, func(a, b int) bool { return out[a].key < out[b].key })
	return pr, took
}

// resultsHash is the sha256 of every outcome's key and serialized result, in
// key order: two passes (or two commits) agree on it exactly when every
// simulated statistic is identical.
func resultsHash(outcomes []outcome) string {
	h := sha256.New()
	for _, o := range outcomes {
		fmt.Fprintf(h, "%s\n", o.key)
		switch {
		case errors.Is(o.err, runner.ErrInfeasible):
			fmt.Fprintln(h, "infeasible")
		case o.err != nil:
			fmt.Fprintf(h, "error: %v\n", o.err)
		default:
			b, err := json.Marshal(o.res)
			if err != nil {
				panic(err) // core.Result holds only numbers, strings and maps of them
			}
			h.Write(b)
			fmt.Fprintln(h)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checksAgree mirrors apptest.CrossCheck's comparison: every oracle check
// must be reported, within relTol of the oracle's value (0 = exact).
func checksAgree(got, want map[string]float64, relTol float64) string {
	names := make([]string, 0, len(want))
	for k := range want {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		w := want[k]
		g, ok := got[k]
		if !ok {
			return fmt.Sprintf("check %q missing", k)
		}
		if relTol == 0 {
			if g != w {
				return fmt.Sprintf("check %q = %v, oracle %v (exact)", k, g, w)
			}
			continue
		}
		if math.Abs(g-w)/math.Max(math.Abs(w), 1) > relTol {
			return fmt.Sprintf("check %q = %v, oracle %v (tol %v)", k, g, w, relTol)
		}
	}
	return ""
}

// judge counts a pass's runs and splits what went wrong into errors (a run
// that returned one) and oracle mismatches (Checks that disagree with the
// sequential run of the same program). Infeasible layouts are not runs.
func judge(outcomes []outcome, oracle map[string]map[string]float64) (runs int, errs, mismatches []string) {
	for _, o := range outcomes {
		if errors.Is(o.err, runner.ErrInfeasible) {
			continue
		}
		runs++
		if o.err != nil {
			errs = append(errs, fmt.Sprintf("%s: %v", o.label, o.err))
			continue
		}
		want, ok := oracle[o.prog]
		if !ok || o.variant == variants.Sequential {
			continue
		}
		if why := checksAgree(o.res.Checks, want, o.tol); why != "" {
			mismatches = append(mismatches, fmt.Sprintf("%s: %s", o.label, why))
		}
	}
	return runs, errs, mismatches
}

// oracleFor runs every distinct program of the workload once under the
// sequential variant. It is both the reference the DSM runs are checked
// against and the warm-up simulation of set-up.
func oracleFor(p prepared) (map[string]map[string]float64, error) {
	oracle := map[string]map[string]float64{}
	for _, j := range p.jobs {
		if _, done := oracle[j.prog]; done {
			continue
		}
		runtime.GC() // as before every timed simulation: peak memory must not depend on order
		res, err := runJob(job{key: j.prog, build: j.build, variant: variants.Sequential, nodes: 1, ppn: 1}, nil)
		if err != nil {
			return nil, fmt.Errorf("oracle run of %s: %w", j.prog, err)
		}
		oracle[j.prog] = res.Checks
	}
	if p.specs == nil {
		return oracle, nil
	}
	plan := runner.NewPlan()
	for _, s := range p.specs {
		if _, err := apps.Get(s.App); err == nil && s.Variant == variants.Sequential {
			plan.Add(s)
		}
	}
	rs, err := runner.Execute(plan, runner.Options{Jobs: runtime.NumCPU()})
	if err != nil {
		return nil, err
	}
	for _, s := range plan.Specs() {
		res, err := rs.Get(s)
		if err != nil {
			return nil, fmt.Errorf("oracle run of %s: %w", s.App, err)
		}
		oracle[s.App] = res.Checks
	}
	return oracle, nil
}

// pinnedSubsetMatches runs the plan behind the repository's pinned 42-spec
// results document (every spec of it is in the sweep's plan, so after a pass
// it is served from the memo cache) and compares the bytes. The file is read
// where it lives: there is no second copy to drift.
func pinnedSubsetMatches() error {
	want, err := os.ReadFile(filepath.Join("internal", "bench", "testdata", "equiv_small_subset.json"))
	if err != nil {
		return err
	}
	plan := runner.NewPlan()
	plan.Add(pinnedSubsetSpecs()...)
	rs, err := runner.Execute(plan, runner.Options{Jobs: runtime.NumCPU()})
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := rs.WriteJSON(&buf); err != nil {
		return err
	}
	if !bytes.Equal(buf.Bytes(), want) {
		return errors.New("results of the pinned 42-spec subset differ from internal/bench/testdata/equiv_small_subset.json")
	}
	return nil
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		var kb float64
		if n, _ := fmt.Sscanf(string(line), "VmHWM: %f kB", &kb); n == 1 {
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}
