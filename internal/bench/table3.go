package bench

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/runner"
)

// table3Procs returns the paper's Table 3 processor count for an
// application: 32, except Barnes at 16 ("since the performance for Barnes
// drops significantly with more than 16 processors").
func table3Procs(app string) int {
	if app == "Barnes" {
		return 16
	}
	return 32
}

// Table3Specs enumerates Table 3's runs: the two polling variants at the
// paper's breakdown configuration for every application. Figure 6 draws
// from the same runs, so a combined plan simulates them once.
func Table3Specs(opts Options) []runner.RunSpec {
	opts = opts.defaults()
	var specs []runner.RunSpec
	for _, name := range opts.Apps {
		procs := table3Procs(name)
		specs = append(specs,
			spec(name, "csm_poll", procs, opts),
			spec(name, "tmk_mc_poll", procs, opts))
	}
	return specs
}

var table3 = Section{
	Name:   "table3",
	Doc:    "Table 3: detailed statistics at 32 procs",
	Specs:  Table3Specs,
	render: renderTable3,
}

// renderTable3 reproduces the paper's Table 3: detailed statistics for the
// polling versions of Cashmere and TreadMarks, aggregated over all
// processors.
func renderTable3(w io.Writer, opts Options, res resultOf) {
	opts = opts.defaults()
	header(w, "Table 3: Detailed statistics, polling versions (Barnes at 16 processors, others at 32)")
	fmt.Fprintf(w, "%-22s", "Application")
	for _, n := range opts.Apps {
		fmt.Fprintf(w, "%10s", n)
	}
	fmt.Fprintln(w)

	i := func(v int64) string { return fmt.Sprintf("%d", v) }
	for _, sys := range []struct{ name, variant string }{{"CSM", "csm_poll"}, {"TMK", "tmk_mc_poll"}} {
		prow := func(label string, f func(*core.Result) string) {
			fmt.Fprintf(w, "%-22s", label)
			for _, n := range opts.Apps {
				fmt.Fprintf(w, "%10s", f(res(spec(n, sys.variant, table3Procs(n), opts))))
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w, sys.name)
		prow("  Exec. time (secs)", func(r *core.Result) string { return fmt.Sprintf("%.2f", seconds(r.Time)) })
		prow("  Barriers", func(r *core.Result) string { return i(r.Total.Barriers / int64(r.Procs)) })
		prow("  Locks", func(r *core.Result) string { return i(r.Total.LockAcquires) })
		prow("  Read faults", func(r *core.Result) string { return i(r.Total.ReadFaults) })
		prow("  Write faults", func(r *core.Result) string { return i(r.Total.WriteFaults) })
		if sys.name == "CSM" {
			prow("  Page transfers", func(r *core.Result) string { return i(r.Total.PageTransfers) })
			continue
		}
		prow("  Messages", func(r *core.Result) string { return i(r.Total.Messages) })
		prow("  Data (Kbytes)", func(r *core.Result) string { return fmt.Sprintf("%.0f", float64(r.Total.DataBytes)/1024) })
	}
}
