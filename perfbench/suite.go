package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// A run set is what -all produces: for every workload, several untraced runs
// and one traced run, each in a fresh child process of this binary so that
// peak RSS and the runner's memo cache are per run.

type suiteRun struct {
	Workload   string  `json:"workload"`
	Trace      bool    `json:"trace"`
	SHA        string  `json:"results_sha256"`
	SimMSTotal float64 `json:"sim_ms_total"`
	Report     report  `json:"report"`
}

type runSet struct {
	Date      string     `json:"date"`
	Commit    string     `json:"commit"`
	NProc     int        `json:"nproc"`
	CPU       string     `json:"cpu"`
	GoVersion string     `json:"go"`
	Seed      int64      `json:"seed"`
	Seconds   float64    `json:"seconds"`
	Runs      []suiteRun `json:"runs"`
}

// benchmarkSpec is the part of BENCHMARK.json the tools read.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchmarkSpec() (benchmarkSpec, error) {
	var spec benchmarkSpec
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return spec, err
	}
	return spec, json.Unmarshal(data, &spec)
}

// child runs this binary once and parses its output.
func child(workload string, seed int64, seconds float64, trace bool) (suiteRun, error) {
	self, err := os.Executable()
	if err != nil {
		return suiteRun{}, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(self, "--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", t)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return suiteRun{}, fmt.Errorf("%s (trace %s): %w", workload, t, err)
	}
	sr := suiteRun{Workload: workload, Trace: trace}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	for _, l := range lines {
		fmt.Sscanf(l, "results_sha256 %s", &sr.SHA)
		fmt.Sscanf(l, "sim_ms_total %f", &sr.SimMSTotal)
		// Mismatches repeat in every run of a workload; the traced run lists them.
		if strings.HasPrefix(l, "failure: ") || (trace && strings.HasPrefix(l, "oracle mismatch: ")) {
			fmt.Printf("  %s: %s\n", workload, l)
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sr.Report); err != nil {
		return sr, fmt.Errorf("%s: last output line is not a report: %w", workload, err)
	}
	return sr, nil
}

func suiteCmd(reps int, seed int64, seconds float64, out string, record bool) error {
	if reps < 3 {
		return errors.New("-reps must be at least 3")
	}
	spec, err := loadBenchmarkSpec()
	if err != nil {
		return err
	}
	set := runSet{
		Date: time.Now().UTC().Format(time.RFC3339), Commit: gitCommit(), NProc: runtime.NumCPU(),
		CPU: cpuModel(), GoVersion: runtime.Version(), Seed: seed, Seconds: seconds,
	}
	for rep := 0; rep < reps; rep++ {
		// Alternate the workload order so that slow drift of the host does
		// not land on the same workload every time.
		for i := range workloads {
			w := workloads[i]
			if rep%2 == 1 {
				w = workloads[len(workloads)-1-i]
			}
			fmt.Printf("run %d/%d %s\n", rep+1, reps, w.name)
			sr, err := child(w.name, seed, seconds, false)
			if err != nil {
				return err
			}
			set.Runs = append(set.Runs, sr)
		}
	}
	for _, w := range workloads {
		fmt.Printf("traced run %s\n", w.name)
		sr, err := child(w.name, seed, seconds, true)
		if err != nil {
			return err
		}
		set.Runs = append(set.Runs, sr)
	}
	if err := auditFullPlan(); err != nil {
		return err
	}

	bad := false
	for _, w := range workloads {
		fmt.Printf("\n%s\n", w.name)
		for _, m := range spec.EndToEnd {
			xs := set.values(w.name, m.Name, false)
			fmt.Printf("  %-22s median %12.6g  min %12.6g  max %12.6g  n %d  %s (%s is better)\n",
				m.Name, median(xs), slices.Min(xs), slices.Max(xs), len(xs), m.Unit, m.Better)
		}
		var attempted, failed int
		shas := map[string]bool{}
		for _, r := range set.Runs {
			if r.Workload == w.name {
				attempted += r.Report.Attempted
				failed += r.Report.Failed
				shas[r.SHA] = true
				bad = bad || !r.Report.Correct
			}
		}
		fmt.Printf("  runs_attempted %d failed_runs %d\n", attempted, failed)
		if len(shas) != 1 {
			fmt.Printf("  results_sha256 differs between runs: %v\n", shas)
			bad = true
		}
		for _, m := range spec.PerLayer {
			xs := set.values(w.name, m.Name, true)
			fmt.Printf("  %-40s %14.6g %s\n", m.Name, xs[0], m.Unit)
		}
	}
	if out != "" {
		data, err := json.MarshalIndent(set, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, data, 0o644); err != nil {
			return err
		}
	}
	if record {
		if err := appendHistory(set, spec); err != nil {
			return err
		}
	}
	if bad {
		return errors.New("a run was not correct")
	}
	return nil
}

// values lists one metric's readings over a workload's runs.
func (s runSet) values(workload, metric string, trace bool) []float64 {
	var xs []float64
	for _, r := range s.Runs {
		if r.Workload == workload && r.Trace == trace {
			if m, ok := r.Report.Metrics[metric]; ok {
				xs = append(xs, m.Value)
			}
		}
	}
	return xs
}

// appendHistory adds one line to perfbench/history.jsonl. The file is only
// ever appended to.
func appendHistory(set runSet, spec benchmarkSpec) error {
	entry := map[string]any{
		"date": set.Date, "commit": set.Commit, "nproc": set.NProc, "cpu": set.CPU, "go": set.GoVersion,
		"seed": set.Seed, "seconds": set.Seconds,
	}
	medians := map[string]map[string]float64{}
	for _, w := range workloads {
		medians[w.name] = map[string]float64{}
		for _, m := range spec.EndToEnd {
			medians[w.name][m.Name] = median(set.values(w.name, m.Name, false))
		}
	}
	entry["medians"] = medians
	line, err := json.Marshal(entry)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join("perfbench", "history.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// verdict is one row of -compare: how metric m moved from run set A to B.
//
// better: every reading of B is better than every reading of A. worse: the
// median worsened by more than the bound and the readings do not leave that
// in doubt. unresolved: either side's own min-max range is wider than the
// bound, so the medians cannot be told apart at that resolution. within:
// otherwise.
func verdict(m metricSpec, a, b []float64) (string, float64) {
	sign := 1.0 // positive change = worse
	if m.Better == "higher" {
		sign = -1
	}
	ma, mb := median(a), median(b)
	worsening := sign * (mb - ma) / ma
	allBetter, allWorse := true, true
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				allBetter = false
			}
			if sign*(y-x) <= 0 {
				allWorse = false
			}
		}
	}
	wide := (slices.Max(a)-slices.Min(a))/ma > m.Bound || (slices.Max(b)-slices.Min(b))/mb > m.Bound
	switch {
	case allBetter:
		return "better", worsening
	case worsening > m.Bound && (allWorse || !wide):
		return "worse", worsening
	case wide:
		return "unresolved", worsening
	default:
		return "within", worsening
	}
}

func loadRunSet(path string) (runSet, error) {
	var s runSet
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	return s, json.Unmarshal(data, &s)
}

func compareCmd(args []string) error {
	if len(args) != 2 {
		return errors.New("-compare takes two run-set files")
	}
	spec, err := loadBenchmarkSpec()
	if err != nil {
		return err
	}
	a, err := loadRunSet(args[0])
	if err != nil {
		return err
	}
	b, err := loadRunSet(args[1])
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	bad := 0
	fmt.Fprintf(&buf, "%-16s %-20s %12s %12s %9s  %s\n", "workload", "metric", "A median", "B median", "worsened", "verdict")
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			xa, xb := a.values(w.Name, m.Name, false), b.values(w.Name, m.Name, false)
			if len(xa) == 0 || len(xb) == 0 {
				return fmt.Errorf("%s/%s: missing from one run set", w.Name, m.Name)
			}
			v, d := verdict(m, xa, xb)
			if v == "worse" {
				bad++
			}
			fmt.Fprintf(&buf, "%-16s %-20s %12.6g %12.6g %+8.2f%%  %s (bound %.0f%%)\n", w.Name, m.Name, median(xa), median(xb), 100*d, v, 100*m.Bound)
		}
		for _, diff := range exactDiffs(spec, a, b, w.Name) {
			bad++
			fmt.Fprintf(&buf, "%-16s exact value differs: %s\n", w.Name, diff)
		}
	}
	fmt.Print(buf.String())
	if bad > 0 {
		return fmt.Errorf("%d rows are worse or differ where they must be identical", bad)
	}
	return nil
}

// exactDiffs lists what must be identical between two run sets of one
// workload and is not: results_sha256, sim_ms_total and every per-layer
// metric whose unit is count.
func exactDiffs(spec benchmarkSpec, a, b runSet, workload string) []string {
	var diffs []string
	first := func(s runSet) (suiteRun, bool) {
		for _, r := range s.Runs {
			if r.Workload == workload {
				return r, true
			}
		}
		return suiteRun{}, false
	}
	ra, oka := first(a)
	rb, okb := first(b)
	if !oka || !okb {
		return []string{"workload missing from one run set"}
	}
	if ra.SHA != rb.SHA {
		diffs = append(diffs, fmt.Sprintf("results_sha256 %s vs %s", ra.SHA, rb.SHA))
	}
	if ra.SimMSTotal != rb.SimMSTotal {
		diffs = append(diffs, fmt.Sprintf("sim_ms_total %v vs %v", ra.SimMSTotal, rb.SimMSTotal))
	}
	var names []string
	for _, m := range spec.PerLayer {
		if m.Unit == "count" {
			names = append(names, m.Name)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		xa, xb := a.values(workload, n, true), b.values(workload, n, true)
		if len(xa) > 0 && len(xb) > 0 && xa[0] != xb[0] {
			diffs = append(diffs, fmt.Sprintf("%s %v vs %v", n, xa[0], xb[0]))
		}
	}
	return diffs
}
