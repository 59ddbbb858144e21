package bench

import (
	"fmt"
	"io"

	"repro/internal/runner"
	"repro/internal/variants"
)

// Fig5Specs enumerates the runs Figure 5 needs: every application under
// every protocol variant across the processor ladder, plus the sequential
// baseline each speedup is relative to.
func Fig5Specs(opts Options) []runner.RunSpec {
	opts = opts.defaults()
	var specs []runner.RunSpec
	for _, app := range opts.Apps {
		specs = append(specs, spec(app, variants.Sequential, 1, opts))
		for _, procs := range opts.Procs {
			for _, v := range opts.Variants {
				specs = append(specs, spec(app, v, procs, opts))
			}
		}
	}
	return specs
}

var fig5 = Section{
	Name:   "fig5",
	Doc:    "Figure 5: speedups",
	Specs:  Fig5Specs,
	render: renderFig5,
}

// renderFig5 reproduces the paper's Figure 5: speedups of every application
// under every protocol variant across the processor ladder, relative to the
// sequential (unlinked) execution time from Table 2. One text block per
// application; csm_pp is omitted at 32 processors (not applicable, §4.3).
func renderFig5(w io.Writer, opts Options, res resultOf) {
	opts = opts.defaults()
	for _, app := range opts.Apps {
		seq := res(spec(app, variants.Sequential, 1, opts))
		header(w, fmt.Sprintf("Figure 5: %s speedups (sequential %.3fs)", app, seconds(seq.Time)))
		fmt.Fprintf(w, "%-12s", "procs")
		for _, v := range opts.Variants {
			fmt.Fprintf(w, "%13s", v)
		}
		fmt.Fprintln(w)
		for _, procs := range opts.Procs {
			fmt.Fprintf(w, "%-12d", procs)
			for _, v := range opts.Variants {
				if r := res(spec(app, v, procs, opts)); r != nil {
					fmt.Fprintf(w, "%13.2f", float64(seq.Time)/float64(r.Time))
				} else {
					fmt.Fprintf(w, "%13s", "-")
				}
			}
			fmt.Fprintln(w)
		}
	}
}
