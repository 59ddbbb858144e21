// Package repro's top-level benchmarks regenerate the paper's tables and
// figures through testing.B, one benchmark per experiment:
//
//	go test -bench=. -benchmem                 # everything at small scale
//	go test -bench=BenchmarkFig5/SOR -benchsize=default
//
// Each benchmark reports the simulated execution time of the measured
// configuration as "sim-ms/op" in addition to the host-side wall costs that
// -benchmem reports. The dataset scale defaults to "small" so the whole
// suite completes quickly; pass -benchsize=default for the paper-shaped
// datasets (the cmd/dsmbench tool is the full-fidelity harness).
package repro

import (
	"flag"
	"fmt"
	"io"
	"testing"

	"repro/internal/apps"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/variants"
)

var benchSize = flag.String("benchsize", "small", "dataset size for benchmarks: small or default")

func size() apps.Size { return apps.Size(*benchSize) }

// runOnce executes one app/variant/procs configuration and reports the
// simulated time.
func runOnce(b *testing.B, app, variant string, procs int) {
	b.Helper()
	entry, err := apps.Get(app)
	if err != nil {
		b.Fatal(err)
	}
	nodes, ppn := 1, 1
	if variant != variants.Sequential {
		l, err := variants.LayoutFor(procs)
		if err != nil {
			b.Fatal(err)
		}
		if !variants.Feasible(variant, l) {
			b.Skipf("%s infeasible at %d procs", variant, procs)
		}
		nodes, ppn = l.Nodes, l.PerNode
	}
	cfg, err := variants.Config(variant, nodes, ppn, variants.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var simMS float64
	for i := 0; i < b.N; i++ {
		res, err := core.Run(cfg, entry.New(size()))
		if err != nil {
			b.Fatal(err)
		}
		simMS = float64(res.Time) / 1e6
	}
	b.ReportMetric(simMS, "sim-ms/op")
}

// BenchmarkTable1 regenerates the basic-operation cost table.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs := execute(b, bench.Table1Specs(variants.Options{}))
		if err := bench.Table1Render(io.Discard, variants.Options{}, rs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2 runs the sequential baseline of every application (the
// denominator of every speedup in Figure 5).
func BenchmarkTable2(b *testing.B) {
	for _, app := range apps.Names() {
		b.Run(app, func(b *testing.B) { runOnce(b, app, variants.Sequential, 1) })
	}
}

// BenchmarkFig5 regenerates the speedup grid: application x variant x procs.
func BenchmarkFig5(b *testing.B) {
	for _, app := range apps.Names() {
		for _, v := range variants.Names {
			for _, procs := range []int{2, 8, 32} {
				b.Run(fmt.Sprintf("%s/%s/p%d", app, v, procs), func(b *testing.B) {
					runOnce(b, app, v, procs)
				})
			}
		}
	}
}

// BenchmarkFig6 runs the two polling variants at the paper's breakdown
// configuration for every application.
func BenchmarkFig6(b *testing.B) {
	for _, app := range apps.Names() {
		procs := 32
		if app == "Barnes" {
			procs = 16
		}
		for _, v := range []string{"csm_poll", "tmk_mc_poll"} {
			b.Run(fmt.Sprintf("%s/%s", app, v), func(b *testing.B) {
				runOnce(b, app, v, procs)
			})
		}
	}
}

// BenchmarkTable3 mirrors Fig6's configurations (Table 3 reports statistics
// from the same runs).
func BenchmarkTable3(b *testing.B) {
	for _, app := range apps.Names() {
		procs := 32
		if app == "Barnes" {
			procs = 16
		}
		b.Run(fmt.Sprintf("%s/csm_poll", app), func(b *testing.B) { runOnce(b, app, "csm_poll", procs) })
		b.Run(fmt.Sprintf("%s/tmk_mc_poll", app), func(b *testing.B) { runOnce(b, app, "tmk_mc_poll", procs) })
	}
}

// BenchmarkAblation regenerates the design-choice ablations.
func BenchmarkAblation(b *testing.B) {
	opts := bench.Options{Size: size()}
	for i := 0; i < b.N; i++ {
		rs := execute(b, bench.AblationSpecs(opts))
		if err := bench.AblationsRender(io.Discard, opts, rs); err != nil {
			b.Fatal(err)
		}
	}
}

// execute runs specs as one plan, the way cmd/dsmbench does before it
// renders a section.
func execute(b *testing.B, specs []runner.RunSpec) *runner.ResultSet {
	b.Helper()
	plan := runner.NewPlan()
	plan.Add(specs...)
	rs, err := runner.Execute(plan, runner.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return rs
}

// BenchmarkPlanExecute measures the runner executing one application's
// Figure 5 plan end to end at different host-parallelism levels. The cache
// is reset each iteration so every run is a real simulation; the ratio of
// jobs1 to jobsN wall time is the harness's host-level speedup.
func BenchmarkPlanExecute(b *testing.B) {
	opts := bench.Options{Size: size(), Apps: []string{"SOR"}, Procs: []int{1, 2, 4, 8}}
	for _, jobs := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("jobs%d", jobs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runner.ResetCache()
				plan := runner.NewPlan()
				plan.Add(bench.Fig5Specs(opts)...)
				if _, err := runner.Execute(plan, runner.Options{Jobs: jobs}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPlanCached measures serving a fully cached plan (the steady
// state when several tables share one sweep).
func BenchmarkPlanCached(b *testing.B) {
	opts := bench.Options{Size: size(), Apps: []string{"SOR"}, Procs: []int{1, 2, 4, 8}}
	plan := runner.NewPlan()
	plan.Add(bench.Fig5Specs(opts)...)
	if _, err := runner.Execute(plan, runner.Options{}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runner.Execute(plan, runner.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
