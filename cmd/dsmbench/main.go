// Command dsmbench regenerates the paper's evaluation section: every table
// and figure, plus the ablations DESIGN.md calls out.
//
// Planning is decoupled from rendering: the selected sections contribute
// their runs to one combined plan, the plan executes on a bounded pool of
// host workers (-jobs, default all cores) with identical configurations
// simulated exactly once, and the sections then render from the shared
// result set — so e.g. the sequential baseline behind Table 2, Figure 5,
// and the ablations runs a single time. Every simulation is deterministic
// in virtual time, so the text output is byte-identical at any -jobs value.
//
// Usage:
//
//	dsmbench -all                # everything (takes a while at default size)
//	dsmbench -all -jobs 8 -json  # parallel sweep + results/dsmbench_default.json
//	dsmbench -table1 -costs
//	dsmbench -fig5 -apps SOR,LU -procs 1,4,8,32
//	dsmbench -table3 -size small
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/apps"
	"repro/internal/bench"
	"repro/internal/interconnect"
	"repro/internal/runner"
	"repro/internal/variants"
)

func main() {
	var (
		all        = flag.Bool("all", false, "run every table, figure, and ablation")
		netF       = flag.String("interconnect", "", "interconnect for the paper tables: memchan (default), rdma, or switched")
		strict     = flag.Bool("strict", false, "exit nonzero if any planned run errors (infeasible layouts are not errors)")
		size       = flag.String("size", "default", "dataset size: small or default")
		appsF      = flag.String("apps", "", "comma-separated application subset")
		procsF     = flag.String("procs", "", "comma-separated processor counts for fig5")
		jobs       = flag.Int("jobs", runtime.NumCPU(), "concurrent simulations (host workers)")
		cacheDir   = flag.String("cache-dir", "", "persistent result cache directory: successful runs are stored there and reused by later invocations")
		jsonF      = flag.Bool("json", false, "write the full result set as JSON (see -json-out)")
		jsonOut    = flag.String("json-out", "", "path for -json output (default results/dsmbench_<size>.json)")
		progress   = flag.Bool("progress", true, "print a progress line to stderr while executing")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file (pprof)")
		memprofile = flag.String("memprofile", "", "write an allocation profile to this file at exit (pprof)")
	)
	enabled := make([]*bool, len(bench.Sections))
	for i, s := range bench.Sections {
		enabled[i] = flag.Bool(s.Name, false, s.Doc)
	}
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dsmbench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "dsmbench:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "dsmbench:", err)
				return
			}
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "dsmbench:", err)
			}
			f.Close()
		}()
	}

	sz, err := parseSize(*size)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsmbench:", err)
		os.Exit(1)
	}
	opts := bench.Options{Size: sz}
	if *netF != "" {
		kind, err := interconnect.ParseKind(*netF)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dsmbench:", err)
			os.Exit(1)
		}
		opts.VariantOpts.Net = &interconnect.Spec{Kind: kind}
	}
	if *appsF != "" {
		if opts.Apps, err = parseApps(*appsF); err != nil {
			fmt.Fprintln(os.Stderr, "dsmbench:", err)
			os.Exit(1)
		}
	}
	if *procsF != "" {
		if opts.Procs, err = parseProcs(*procsF); err != nil {
			fmt.Fprintln(os.Stderr, "dsmbench:", err)
			os.Exit(1)
		}
	}

	// Phase 1: collect the selected sections and their specs into one plan.
	// -all draws every section but the last, the interconnect sweep.
	var sections []bench.Section
	plan := runner.NewPlan()
	for i, s := range bench.Sections {
		if *enabled[i] || (*all && i < len(bench.Sections)-1) {
			sections = append(sections, s)
			plan.Add(s.Specs(opts)...)
		}
	}
	if len(sections) == 0 {
		flag.Usage()
		os.Exit(2)
	}

	// Phase 2: execute the combined, deduplicated plan in parallel.
	var rs *runner.ResultSet
	if plan.Len() > 0 {
		ropts := runner.Options{Jobs: *jobs, CacheDir: *cacheDir}
		if *progress {
			ropts.OnProgress = func(done, total int, spec runner.RunSpec, info runner.RunInfo) {
				mode := "run"
				if info.DiskCached {
					mode = "disk"
				}
				fmt.Fprintf(os.Stderr, "\rdsmbench: %d/%d runs (last: %s/%s/p%d [%s])\x1b[K", done, total, spec.App, spec.Variant, spec.Procs, mode)
				if done == total {
					fmt.Fprintln(os.Stderr)
				}
			}
		}
		var err error
		rs, err = runner.Execute(plan, ropts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dsmbench:", err)
			os.Exit(1)
		}
	}

	// -strict: refuse to emit partial output (tables or JSON with error
	// cells) when any planned run failed. Infeasible layouts are expected
	// holes, not failures.
	if *strict && rs != nil {
		failed := 0
		for _, s := range plan.Specs() {
			if _, err := rs.Get(s); err != nil && !errors.Is(err, runner.ErrInfeasible) {
				failed++
				fmt.Fprintf(os.Stderr, "dsmbench: run failed: %s: %v\n", s.Key(), err)
			}
		}
		if failed > 0 {
			fmt.Fprintf(os.Stderr, "dsmbench: -strict: %d of %d runs failed\n", failed, plan.Len())
			os.Exit(1)
		}
	}

	// Phase 3: render each selected section from the shared result set.
	for _, s := range sections {
		if err := s.Render(os.Stdout, opts, rs); err != nil {
			fmt.Fprintln(os.Stderr, "dsmbench:", err)
			os.Exit(1)
		}
	}

	if *jsonF && rs != nil {
		path := *jsonOut
		if path == "" {
			path = filepath.Join("results", fmt.Sprintf("dsmbench_%s.json", *size))
		}
		if err := writeJSON(path, rs); err != nil {
			fmt.Fprintln(os.Stderr, "dsmbench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "dsmbench: wrote %s (%d specs)\n", path, rs.Len())
	}
}

// parseSize accepts the two dataset sizes and rejects anything else before a
// single run starts.
func parseSize(s string) (apps.Size, error) {
	switch size := apps.Size(s); size {
	case apps.SizeSmall, apps.SizeDefault:
		return size, nil
	}
	return "", fmt.Errorf("unknown -size %q (want small or default)", s)
}

// parseApps splits -apps, trimming each name, and rejects an unknown
// application before a single run starts.
func parseApps(s string) ([]string, error) {
	names := strings.Split(s, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
		if _, err := apps.Get(names[i]); err != nil {
			return nil, fmt.Errorf("bad -apps: %w", err)
		}
	}
	return names, nil
}

// parseProcs parses -procs and rejects a count with no paper layout before a
// single run starts.
func parseProcs(s string) ([]int, error) {
	var procs []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err == nil {
			_, err = variants.LayoutFor(n)
		}
		if err != nil {
			return nil, fmt.Errorf("bad -procs: %w", err)
		}
		procs = append(procs, n)
	}
	return procs, nil
}

func writeJSON(path string, rs *runner.ResultSet) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rs.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
