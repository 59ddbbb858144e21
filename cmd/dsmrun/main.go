// Command dsmrun executes one benchmark application under one or more
// protocol variants and prints statistics: execution time, speedup-relevant
// breakdown, fault and message counts, and Memory Channel traffic.
//
// With a single variant it prints the full detailed report; with a
// comma-separated variant list it runs all of them (plus the shared
// sequential baseline) through the parallel runner pool and prints a
// side-by-side comparison. Either way, each variant's reported checks are
// compared with the sequential baseline's (the oracle) at the application's
// registered tolerance: one "oracle: ok" or "oracle: MISMATCH ..." line each.
//
// Usage:
//
//	dsmrun -app SOR -variant csm_poll -procs 8 [-size small]
//	dsmrun -app SOR -variant csm_poll,tmk_mc_poll,tmk_udp_int -procs 8
//	dsmrun -app LU -variant tmk_mc_poll -nodes 4 -ppn 2
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/interconnect"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/variants"
)

func main() {
	var (
		app     = flag.String("app", "SOR", "application name")
		variant = flag.String("variant", "csm_poll", "comma-separated protocol variants (or 'sequential')")
		procs   = flag.Int("procs", 0, "total compute processors (uses the paper's node layout)")
		nodes   = flag.Int("nodes", 1, "nodes (ignored when -procs is set)")
		ppn     = flag.Int("ppn", 1, "compute processors per node (ignored when -procs is set)")
		size    = flag.String("size", "default", "dataset size: small or default")
		seq     = flag.Bool("seq-baseline", true, "also run the sequential baseline and report speedup")
		jobs    = flag.Int("jobs", runtime.NumCPU(), "concurrent simulations (host workers)")
		netF    = flag.String("interconnect", "", "interconnect: memchan (default), rdma, or switched")
	)
	flag.Parse()
	vs := strings.Split(*variant, ",")
	for i := range vs {
		vs[i] = strings.TrimSpace(vs[i])
	}
	var opts variants.Options
	if *netF != "" {
		kind, err := interconnect.ParseKind(*netF)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dsmrun:", err)
			os.Exit(1)
		}
		if kind != interconnect.MemoryChannel {
			opts.Net = &interconnect.Spec{Kind: kind}
		}
	}
	if err := run(os.Stdout, *app, vs, *procs, *nodes, *ppn, apps.Size(*size), *seq, *jobs, opts); err != nil {
		fmt.Fprintln(os.Stderr, "dsmrun:", err)
		os.Exit(1)
	}
}

// specFor builds the run spec for one variant at the requested shape.
func specFor(app, variant string, procs, nodes, ppn int, size apps.Size, opts variants.Options) runner.RunSpec {
	s := runner.RunSpec{App: app, Variant: variant, Size: size, Opts: opts}
	if procs > 0 {
		s.Procs = procs
	} else {
		s.Nodes, s.PPN = nodes, ppn
	}
	return s
}

// run executes the variants (and the sequential baseline) and writes the
// report to w. An unknown size is rejected before anything runs.
func run(w io.Writer, app string, vs []string, procs, nodes, ppn int, size apps.Size, seqBaseline bool, jobs int, opts variants.Options) error {
	if size != apps.SizeSmall && size != apps.SizeDefault {
		return fmt.Errorf("unknown -size %q (want small or default)", size)
	}
	entry, err := apps.Get(app)
	if err != nil {
		return err
	}

	plan := runner.NewPlan()
	specs := make([]runner.RunSpec, len(vs))
	for i, v := range vs {
		specs[i] = specFor(app, v, procs, nodes, ppn, size, opts)
		plan.Add(specs[i])
	}
	needSeq := false
	seqSpec := runner.RunSpec{App: app, Variant: variants.Sequential, Procs: 1, Size: size}
	for _, v := range vs {
		if seqBaseline && v != variants.Sequential {
			needSeq = true
		}
	}
	if needSeq {
		plan.Add(seqSpec)
	}

	rs, err := runner.Execute(plan, runner.Options{Jobs: jobs})
	if err != nil {
		return err
	}
	var seqRes *core.Result
	if needSeq {
		if seqRes, err = rs.Get(seqSpec); err != nil {
			return fmt.Errorf("sequential baseline: %w", err)
		}
	}

	if len(vs) == 1 {
		res, err := rs.Get(specs[0])
		if err != nil {
			return err
		}
		return printDetailed(w, entry, app, vs[0], size, specs[0], res, seqRes)
	}
	return printComparison(w, entry, app, vs, size, specs, rs, seqRes)
}

// printDetailed is the single-variant report.
func printDetailed(w io.Writer, entry apps.Entry, app, variant string, size apps.Size, spec runner.RunSpec, res *core.Result, seqRes *core.Result) error {
	nodes, ppn := shapeOf(spec, res)
	fmt.Fprintf(w, "%s (%s) on %s, %d processors (%dx%d)\n",
		app, entry.Problem(size), variant, res.Procs, nodes, ppn)
	fmt.Fprintf(w, "  execution time: %s\n", fmtTime(res.Time))
	if seqRes != nil && variant != variants.Sequential {
		fmt.Fprintf(w, "  sequential:     %s  (speedup %.2f)\n",
			fmtTime(seqRes.Time), float64(seqRes.Time)/float64(res.Time))
	}
	tot := res.Total
	fmt.Fprintf(w, "  barriers %d  locks %d  read faults %d  write faults %d\n",
		tot.Barriers, tot.LockAcquires, tot.ReadFaults, tot.WriteFaults)
	fmt.Fprintf(w, "  page transfers %d  page copies %d  twins %d  diffs %d/%d  messages %d  data %.1f KB\n",
		tot.PageTransfers, tot.PageCopies, tot.Twins, tot.DiffsCreated, tot.DiffsApplied,
		tot.Messages, float64(tot.DataBytes)/1024)
	var catSum sim.Time
	for c := core.Category(0); c < core.NumCategories; c++ {
		catSum += tot.Cat[c]
	}
	elapsed := sim.Time(0)
	for _, st := range res.PerProc {
		elapsed += st.FinishedAt
	}
	if elapsed > 0 {
		fmt.Fprintf(w, "  breakdown:")
		for c := core.Category(0); c < core.NumCategories; c++ {
			fmt.Fprintf(w, " %s %.1f%%", c, 100*float64(tot.Cat[c])/float64(elapsed))
		}
		fmt.Fprintf(w, " Comm&Wait %.1f%%\n", 100*float64(elapsed-catSum)/float64(elapsed))
	}
	fmt.Fprintf(w, "  MC traffic:")
	keys := make([]string, 0, len(res.Traffic))
	for k := range res.Traffic {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, " %s %.1fKB", k, float64(res.Traffic[k])/1024)
	}
	fmt.Fprintln(w)
	if len(res.Checks) > 0 {
		fmt.Fprintf(w, "  checks:")
		ckeys := make([]string, 0, len(res.Checks))
		for k := range res.Checks {
			ckeys = append(ckeys, k)
		}
		sort.Strings(ckeys)
		for _, k := range ckeys {
			fmt.Fprintf(w, " %s=%g", k, res.Checks[k])
		}
		fmt.Fprintln(w)
	}
	if seqRes != nil && variant != variants.Sequential {
		fmt.Fprintf(w, "  %s\n", oracleLine(entry, res, seqRes))
	}
	return nil
}

// oracleLine compares a run's checks with the sequential baseline's, the
// oracle, at the application's registered tolerance.
func oracleLine(entry apps.Entry, res, seqRes *core.Result) string {
	if d := entry.Disagreement(res.Checks, seqRes.Checks); d != "" {
		return "oracle: MISMATCH " + d
	}
	return "oracle: ok"
}

// printComparison renders a side-by-side metric table, one column per
// variant.
func printComparison(w io.Writer, entry apps.Entry, app string, vs []string, size apps.Size, specs []runner.RunSpec, rs *runner.ResultSet, seqRes *core.Result) error {
	results := make([]*core.Result, len(vs))
	for i, s := range specs {
		res, err := rs.Get(s)
		if err != nil {
			return fmt.Errorf("%s: %w", vs[i], err)
		}
		results[i] = res
	}
	fmt.Fprintf(w, "%s (%s), %d processors, size %s\n", app, entry.Problem(size), results[0].Procs, size)
	if seqRes != nil {
		fmt.Fprintf(w, "sequential baseline: %s\n", fmtTime(seqRes.Time))
	}

	fmt.Fprintf(w, "%-22s", "metric")
	for _, v := range vs {
		fmt.Fprintf(w, "%16s", v)
	}
	fmt.Fprintln(w)
	row := func(label string, f func(*core.Result) string) {
		fmt.Fprintf(w, "%-22s", label)
		for _, r := range results {
			fmt.Fprintf(w, "%16s", f(r))
		}
		fmt.Fprintln(w)
	}
	row("time (ms)", func(r *core.Result) string { return fmt.Sprintf("%.3f", float64(r.Time)/1e6) })
	if seqRes != nil {
		row("speedup", func(r *core.Result) string {
			return fmt.Sprintf("%.2f", float64(seqRes.Time)/float64(r.Time))
		})
	}
	i64 := func(f func(*core.Result) int64) func(*core.Result) string {
		return func(r *core.Result) string { return fmt.Sprintf("%d", f(r)) }
	}
	row("barriers", i64(func(r *core.Result) int64 { return r.Total.Barriers }))
	row("locks", i64(func(r *core.Result) int64 { return r.Total.LockAcquires }))
	row("read faults", i64(func(r *core.Result) int64 { return r.Total.ReadFaults }))
	row("write faults", i64(func(r *core.Result) int64 { return r.Total.WriteFaults }))
	row("page transfers", i64(func(r *core.Result) int64 { return r.Total.PageTransfers }))
	row("page copies", i64(func(r *core.Result) int64 { return r.Total.PageCopies }))
	row("twins", i64(func(r *core.Result) int64 { return r.Total.Twins }))
	row("diffs created", i64(func(r *core.Result) int64 { return r.Total.DiffsCreated }))
	row("messages", i64(func(r *core.Result) int64 { return r.Total.Messages }))
	row("data (KB)", func(r *core.Result) string { return fmt.Sprintf("%.1f", float64(r.Total.DataBytes)/1024) })
	row("MC traffic (KB)", func(r *core.Result) string {
		var total int64
		for _, b := range r.Traffic {
			total += b
		}
		return fmt.Sprintf("%.1f", float64(total)/1024)
	})
	if seqRes != nil {
		for i, v := range vs {
			if v != variants.Sequential {
				fmt.Fprintf(w, "%-22s%s\n", v, oracleLine(entry, results[i], seqRes))
			}
		}
	}
	return nil
}

// shapeOf reconstructs the nodes x ppn shape for display.
func shapeOf(spec runner.RunSpec, res *core.Result) (nodes, ppn int) {
	spec = spec.Normalize()
	if spec.Variant == variants.Sequential {
		return 1, 1
	}
	if spec.Nodes > 0 {
		return spec.Nodes, spec.PPN
	}
	if l, err := variants.LayoutFor(res.Procs); err == nil {
		return l.Nodes, l.PerNode
	}
	return res.Procs, 1
}

func fmtTime(t sim.Time) string {
	return fmt.Sprintf("%.3f ms", float64(t)/1e6)
}
