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

// Table3Render reproduces the paper's Table 3: detailed statistics for the
// polling versions of Cashmere and TreadMarks, aggregated over all
// processors.
func Table3Render(w io.Writer, opts Options, rs *runner.ResultSet) error {
	opts = opts.defaults()
	csm := map[string]*core.Result{}
	tmk := map[string]*core.Result{}
	for _, name := range opts.Apps {
		procs := table3Procs(name)
		r, err := rs.Get(spec(name, "csm_poll", procs, opts))
		if err != nil {
			return fmt.Errorf("%s csm_poll: %w", name, err)
		}
		csm[name] = r
		r, err = rs.Get(spec(name, "tmk_mc_poll", procs, opts))
		if err != nil {
			return fmt.Errorf("%s tmk_mc_poll: %w", name, err)
		}
		tmk[name] = r
	}

	header(w, "Table 3: Detailed statistics, polling versions (Barnes at 16 processors, others at 32)")
	fmt.Fprintf(w, "%-22s", "Application")
	for _, n := range opts.Apps {
		fmt.Fprintf(w, "%10s", n)
	}
	fmt.Fprintln(w)

	prow := func(label string, f func(*core.Result) string, m map[string]*core.Result) {
		fmt.Fprintf(w, "%-22s", label)
		for _, n := range opts.Apps {
			fmt.Fprintf(w, "%10s", f(m[n]))
		}
		fmt.Fprintln(w)
	}
	secs := func(r *core.Result) string { return fmt.Sprintf("%.2f", seconds(r.Time)) }
	i := func(v int64) string { return fmt.Sprintf("%d", v) }

	fmt.Fprintln(w, "CSM")
	prow("  Exec. time (secs)", secs, csm)
	prow("  Barriers", func(r *core.Result) string { return i(r.Total.Barriers / int64(r.Procs)) }, csm)
	prow("  Locks", func(r *core.Result) string { return i(r.Total.LockAcquires) }, csm)
	prow("  Read faults", func(r *core.Result) string { return i(r.Total.ReadFaults) }, csm)
	prow("  Write faults", func(r *core.Result) string { return i(r.Total.WriteFaults) }, csm)
	prow("  Page transfers", func(r *core.Result) string { return i(r.Total.PageTransfers) }, csm)
	fmt.Fprintln(w, "TMK")
	prow("  Exec. time (secs)", secs, tmk)
	prow("  Barriers", func(r *core.Result) string { return i(r.Total.Barriers / int64(r.Procs)) }, tmk)
	prow("  Locks", func(r *core.Result) string { return i(r.Total.LockAcquires) }, tmk)
	prow("  Read faults", func(r *core.Result) string { return i(r.Total.ReadFaults) }, tmk)
	prow("  Write faults", func(r *core.Result) string { return i(r.Total.WriteFaults) }, tmk)
	prow("  Messages", func(r *core.Result) string { return i(r.Total.Messages) }, tmk)
	prow("  Data (Kbytes)", func(r *core.Result) string { return fmt.Sprintf("%.0f", float64(r.Total.DataBytes)/1024) }, tmk)
	return nil
}
