// Package bench regenerates the paper's evaluation: Table 1 (basic operation
// costs), Table 2 (data sets and sequential times), Table 3 (detailed
// statistics), Figure 5 (speedups), Figure 6 (execution-time breakdown), and
// ablations of the design choices DESIGN.md calls out. Output is text tables
// in the paper's layout; absolute values come from the simulation's cost
// model, so shapes — who wins, by what factor, where crossovers fall — are
// the reproduction target, not exact numbers.
//
// Every table and figure is a Section, listed in print order in Sections:
// its Specs enumerate the runs it needs as runner.RunSpecs, and its Render
// formats a ResultSet that contains them. Callers (cmd/dsmbench, the goldens)
// add the specs of every section they draw to one plan, execute it once with
// runner.Execute (parallel, cached) and render each section from the shared
// ResultSet, so overlapping configurations (e.g. the sequential baseline) are
// simulated once.
package bench

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/variants"
)

// Section is one table or figure of the evaluation: the runs it needs and
// how it formats them.
type Section struct {
	// Name is the section's dsmbench flag.
	Name string
	// Doc is the flag's help text.
	Doc string
	// Specs enumerates the section's runs without executing anything.
	Specs  func(Options) []runner.RunSpec
	render func(io.Writer, Options, resultOf)
}

// resultOf returns the result of a run the section planned, or nil if its
// layout is infeasible.
type resultOf func(runner.RunSpec) *core.Result

// Sections lists every section in print order. dsmbench -all draws all but
// the last, the interconnect sweep: the paper's evaluation is Memory Channel
// only, and the -all output is pinned by golden tests.
var Sections = []Section{costs, table1, table2, fig5, fig6, table3, ablations, netSweep}

// Render writes the section from rs. It first checks every run the section
// plans: a failed run (an infeasible layout is not a failure) is an error
// naming the section and the run's key, and nothing is written. A section
// prints whole or not at all.
func (s Section) Render(w io.Writer, opts Options, rs *runner.ResultSet) error {
	for _, sp := range s.Specs(opts) {
		if _, err := rs.Get(sp); err != nil && !errors.Is(err, runner.ErrInfeasible) {
			return fmt.Errorf("%s: %s: %w", s.Name, sp.Key(), err)
		}
	}
	var buf bytes.Buffer
	s.render(&buf, opts, func(sp runner.RunSpec) *core.Result {
		res, err := rs.Get(sp)
		if err != nil && !errors.Is(err, runner.ErrInfeasible) {
			panic(fmt.Sprintf("bench: %s reads %s, which its Specs do not plan", s.Name, sp.Key()))
		}
		return res
	})
	_, err := w.Write(buf.Bytes())
	return err
}

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
