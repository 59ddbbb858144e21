package bench

import (
	"fmt"
	"io"

	"repro/internal/apps"
	"repro/internal/runner"
	"repro/internal/variants"
)

// Table2Specs enumerates Table 2's runs: the sequential baseline of every
// application. These are the same specs Figure 5 and the ablations key
// their baselines on, so a combined plan simulates each exactly once.
func Table2Specs(opts Options) []runner.RunSpec {
	opts = opts.defaults()
	var specs []runner.RunSpec
	for _, name := range opts.Apps {
		specs = append(specs, spec(name, variants.Sequential, 1, opts))
	}
	return specs
}

// Table2Render reproduces the paper's Table 2: data set sizes and sequential
// execution time of each application, measured without linking to either
// protocol (the NullProtocol baseline).
func Table2Render(w io.Writer, opts Options, rs *runner.ResultSet) error {
	opts = opts.defaults()
	header(w, "Table 2: Data set sizes and sequential execution time")
	fmt.Fprintf(w, "%-8s  %-34s %14s %12s\n", "Program", "Problem Size", "Shared (MB)", "Time (s)")
	for _, name := range opts.Apps {
		entry, err := apps.Get(name)
		if err != nil {
			return err
		}
		res, err := rs.Get(spec(name, variants.Sequential, 1, opts))
		if err != nil {
			return fmt.Errorf("%s sequential: %w", name, err)
		}
		prog := entry.New(opts.Size)
		fmt.Fprintf(w, "%-8s  %-34s %14.2f %12.3f\n",
			name, entry.Problem(opts.Size),
			float64(prog.SharedBytes)/(1<<20), seconds(res.Time))
	}
	return nil
}
