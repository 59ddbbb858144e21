package bench

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/sim"
)

// Fig6Specs enumerates Figure 6's runs. They are identical to Table 3's —
// the breakdown and the statistics table come from the same simulations —
// so combined plans simulate them once.
func Fig6Specs(opts Options) []runner.RunSpec {
	return Table3Specs(opts)
}

var fig6 = Section{
	Name:   "fig6",
	Doc:    "Figure 6: execution-time breakdown",
	Specs:  Fig6Specs,
	render: renderFig6,
}

// renderFig6 reproduces the paper's Figure 6: a breakdown of execution time
// for the polling versions of Cashmere and TreadMarks (Barnes at 16
// processors, the others at 32), normalized to Cashmere's total execution
// time per application. Components: User, Protocol, Polling overhead, Write
// doubling (Cashmere only), and Comm & Wait.
func renderFig6(w io.Writer, opts Options, res resultOf) {
	opts = opts.defaults()
	header(w, "Figure 6: Normalized execution-time breakdown, polling versions (Barnes at 16, others at 32)")
	fmt.Fprintf(w, "%-8s %-4s %8s %8s %10s %10s %10s %10s %10s\n",
		"App", "Sys", "Total", "Norm", "User%", "Protocol%", "Polling%", "Doubling%", "Comm&Wait%")
	for _, app := range opts.Apps {
		procs := table3Procs(app)
		csm := res(spec(app, "csm_poll", procs, opts))
		base := float64(csm.Time)
		printBreakdown(w, app, "CSM", csm, base)
		printBreakdown(w, app, "TMK", res(spec(app, "tmk_mc_poll", procs, opts)), base)
	}
}

func printBreakdown(w io.Writer, app, sys string, res *core.Result, normBase float64) {
	var elapsed, catSum sim.Time
	var cats [core.NumCategories]sim.Time
	for _, st := range res.PerProc {
		elapsed += st.FinishedAt
		for c := core.Category(0); c < core.NumCategories; c++ {
			cats[c] += st.Cat[c]
			catSum += st.Cat[c]
		}
	}
	pct := func(t sim.Time) float64 {
		if elapsed == 0 {
			return 0
		}
		return 100 * float64(t) / float64(elapsed)
	}
	fmt.Fprintf(w, "%-8s %-4s %7.2fs %8.2f %10.1f %10.1f %10.1f %10.1f %10.1f\n",
		app, sys, seconds(res.Time), float64(res.Time)/normBase,
		pct(cats[core.CatUser]), pct(cats[core.CatProtocol]),
		pct(cats[core.CatPolling]), pct(cats[core.CatDoubling]),
		pct(elapsed-catSum))
}
