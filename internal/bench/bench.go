// Package bench regenerates the paper's evaluation: Table 1 (basic operation
// costs), Table 2 (data sets and sequential times), Table 3 (detailed
// statistics), Figure 5 (speedups), Figure 6 (execution-time breakdown), and
// ablations of the design choices DESIGN.md calls out. Output is text tables
// in the paper's layout; absolute values come from the simulation's cost
// model, so shapes — who wins, by what factor, where crossovers fall — are
// the reproduction target, not exact numbers.
//
// Every table and figure is a pure two-phase function: XxxSpecs(opts)
// enumerates the runs it needs as runner.RunSpecs, and XxxRender(w, opts,
// rs) formats a ResultSet that contains them. Callers (cmd/dsmbench, the
// goldens) add the specs of every section they draw to one plan, execute it
// once with runner.Execute (parallel, cached) and render each section from
// the shared ResultSet, so overlapping configurations (e.g. the sequential
// baseline) are simulated once.
package bench

import (
	"fmt"
	"io"

	"repro/internal/apps"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/variants"
)

// Options configure a harness run.
type Options struct {
	// Size selects the dataset scale.
	Size apps.Size
	// Procs lists processor counts for the speedup sweep (defaults to the
	// paper's 1..32 ladder).
	Procs []int
	// Apps restricts the applications (defaults to all eight).
	Apps []string
	// Variants restricts the protocol variants (defaults to all six).
	Variants []string
	// VariantOpts adjusts the model for every run.
	VariantOpts variants.Options
}

func (o Options) defaults() Options {
	if o.Size == "" {
		o.Size = apps.SizeDefault
	}
	if len(o.Procs) == 0 {
		for _, l := range variants.PaperLayouts {
			o.Procs = append(o.Procs, l.Procs)
		}
	}
	if len(o.Apps) == 0 {
		o.Apps = apps.Names()
	}
	if len(o.Variants) == 0 {
		o.Variants = variants.Names
	}
	return o
}

// spec builds the RunSpec for one application cell of a table.
func spec(app, variant string, procs int, opts Options) runner.RunSpec {
	return runner.RunSpec{App: app, Variant: variant, Procs: procs, Size: opts.Size, Opts: opts.VariantOpts}
}

// execute plans and runs a spec list with default runner options (all host
// cores, process-wide cache).
func execute(specs []runner.RunSpec) (*runner.ResultSet, error) {
	plan := runner.NewPlan()
	plan.Add(specs...)
	return runner.Execute(plan, runner.Options{})
}

// us renders virtual nanoseconds as microseconds.
func us(t sim.Time) float64 { return float64(t) / 1000 }

// seconds renders virtual nanoseconds as seconds.
func seconds(t sim.Time) float64 { return float64(t) / 1e9 }

func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n%s\n", title)
	for range title {
		fmt.Fprint(w, "=")
	}
	fmt.Fprintln(w)
}
