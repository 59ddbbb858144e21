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
	"io"
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
)

func main() {
	var (
		all        = flag.Bool("all", false, "run every table, figure, and ablation")
		costs      = flag.Bool("costs", false, "print basic operation costs (§4.1)")
		table1     = flag.Bool("table1", false, "Table 1: basic operation costs per variant")
		table2     = flag.Bool("table2", false, "Table 2: data sets and sequential times")
		table3     = flag.Bool("table3", false, "Table 3: detailed statistics at 32 procs")
		fig5       = flag.Bool("fig5", false, "Figure 5: speedups")
		fig6       = flag.Bool("fig6", false, "Figure 6: execution-time breakdown")
		abl        = flag.Bool("ablations", false, "design-choice ablations")
		netsweep   = flag.Bool("netsweep", false, "interconnect x node-count sweep (8..64 nodes, every interconnect; not part of -all)")
		nsNodes    = flag.String("netsweep-nodes", "", "comma-separated node-count ladder for -netsweep (default 8,16,32,64)")
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
		if kind != interconnect.MemoryChannel {
			opts.VariantOpts.Net = &interconnect.Spec{Kind: kind}
		}
	}
	if *appsF != "" {
		opts.Apps = strings.Split(*appsF, ",")
	}
	if *procsF != "" {
		for _, s := range strings.Split(*procsF, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				fmt.Fprintln(os.Stderr, "dsmbench: bad -procs:", err)
				os.Exit(1)
			}
			opts.Procs = append(opts.Procs, n)
		}
	}

	// Phase 1: collect the enabled sections and their specs into one plan.
	type section struct {
		enabled bool
		specs   []runner.RunSpec
		render  func(io.Writer, *runner.ResultSet) error
	}
	sections := []section{
		{*costs, nil, func(w io.Writer, _ *runner.ResultSet) error { bench.Costs(w); return nil }},
		{*table1, bench.Table1Specs(opts.VariantOpts), func(w io.Writer, rs *runner.ResultSet) error {
			return bench.Table1Render(w, opts.VariantOpts, rs)
		}},
		{*table2, bench.Table2Specs(opts), func(w io.Writer, rs *runner.ResultSet) error {
			return bench.Table2Render(w, opts, rs)
		}},
		{*fig5, bench.Fig5Specs(opts), func(w io.Writer, rs *runner.ResultSet) error {
			return bench.Fig5Render(w, opts, rs)
		}},
		{*fig6, bench.Fig6Specs(opts), func(w io.Writer, rs *runner.ResultSet) error {
			return bench.Fig6Render(w, opts, rs)
		}},
		{*table3, bench.Table3Specs(opts), func(w io.Writer, rs *runner.ResultSet) error {
			return bench.Table3Render(w, opts, rs)
		}},
		{*abl, bench.AblationSpecs(opts), func(w io.Writer, rs *runner.ResultSet) error {
			return bench.AblationsRender(w, opts, rs)
		}},
	}
	plan := runner.NewPlan()
	any := false
	for _, s := range sections {
		if s.enabled || *all {
			any = true
			plan.Add(s.specs...)
		}
	}
	// The interconnect sweep stays outside -all: the paper's evaluation is
	// Memory Channel only and the -all output is pinned by golden tests.
	if *netsweep {
		any = true
		if *nsNodes != "" {
			var ladder []int
			for _, s := range strings.Split(*nsNodes, ",") {
				n, err := strconv.Atoi(strings.TrimSpace(s))
				if err != nil || n < 1 {
					fmt.Fprintln(os.Stderr, "dsmbench: bad -netsweep-nodes:", s)
					os.Exit(1)
				}
				ladder = append(ladder, n)
			}
			bench.NetSweepNodes = ladder
		}
		plan.Add(bench.NetSweepSpecs(opts)...)
		sections = append(sections, section{true, nil, func(w io.Writer, rs *runner.ResultSet) error {
			return bench.NetSweepRender(w, opts, rs)
		}})
	}
	if !any {
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

	// Phase 3: render each enabled section from the shared result set.
	w := os.Stdout
	for _, s := range sections {
		if !s.enabled && !*all {
			continue
		}
		if err := s.render(w, rs); err != nil {
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
