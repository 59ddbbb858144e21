package check

import (
	"fmt"

	"repro/internal/apps/fuzz"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/treadmarks"
	"repro/internal/variants"
)

// diffShapes are the cluster shapes the differential checker sweeps.
func diffShapes() []Shape { return []Shape{{2, 1}, {2, 2}} }

// DiffFailure is one differential run that broke its oracle.
type DiffFailure struct {
	Fuzz     fuzz.Config
	Variant  string
	Shape    Shape
	Schedule sim.Schedule
	Reason   string
}

// Repro converts the failure into a replayable, shrinkable specification.
func (f DiffFailure) Repro(inject int) Repro {
	return Repro{
		Kind: KindDifferential, Fuzz: f.Fuzz, Variant: f.Variant,
		Nodes: f.Shape.Nodes, PPN: f.Shape.PPN, Schedule: f.Schedule,
		InjectDropDiffRuns: inject, Reason: f.Reason,
	}
}

// DiffReport is the differential sweep outcome.
type DiffReport struct {
	Runs     int
	Failures []DiffFailure
}

// Failed reports whether any run broke its oracle.
func (r *DiffReport) Failed() bool { return len(r.Failures) > 0 }

// diffJob is one perturbed differential run.
type diffJob struct {
	cfg      fuzz.Config
	variant  string
	shape    Shape
	schedIdx int // -1 = canonical (unperturbed) run
}

// RunDifferential runs every fuzz corpus program under perturbed schedules on
// each variant and shape, checking that the reported results match the
// analytic sequential-consistency oracle exactly. The generated programs are
// data-race-free, so under release consistency no legal schedule may change
// any answer; the programs' in-body sample checks additionally panic — which
// core.Run surfaces as an error — the moment any single read is stale.
func RunDifferential(p Params) (*DiffReport, error) {
	p = p.withDefaults()
	var jobs []diffJob
	for _, cfg := range fuzz.Corpus() {
		for _, variant := range p.Variants {
			// One canonical run per shape first: the oracle must hold there
			// before perturbed divergence means anything.
			for _, shape := range diffShapes() {
				jobs = append(jobs, diffJob{cfg, variant, shape, -1})
			}
			shapes := diffShapes()
			for i := 0; i < p.Schedules; i++ {
				jobs = append(jobs, diffJob{cfg, variant, shapes[i%len(shapes)], i})
			}
		}
	}
	failures := make([]string, len(jobs))
	runPool(p.Jobs, len(jobs), func(j int) {
		failures[j] = runDiffJob(p, jobs[j])
	})
	report := &DiffReport{Runs: len(jobs)}
	for j, reason := range failures {
		if reason == "" {
			continue
		}
		var sched sim.Schedule
		if jobs[j].schedIdx >= 0 {
			sched = p.schedule(jobs[j].schedIdx)
		}
		report.Failures = append(report.Failures, DiffFailure{
			Fuzz: jobs[j].cfg, Variant: jobs[j].variant, Shape: jobs[j].shape,
			Schedule: sched, Reason: reason,
		})
	}
	return report, nil
}

// runDiffJob executes one differential run; it returns "" on success and the
// failure reason otherwise.
func runDiffJob(p Params, job diffJob) string {
	var sched sim.Schedule
	if job.schedIdx >= 0 {
		sched = p.schedule(job.schedIdx)
	}
	return diffReason(job.cfg, job.variant, job.shape, sched, p.InjectDropDiffRuns)
}

// diffReason runs one fuzz configuration and compares it against the oracle.
// Shared by the sweep and by Replay so a repro reproduces the exact check.
func diffReason(c fuzz.Config, variant string, shape Shape, sched sim.Schedule, inject int) string {
	opts := variants.Options{Schedule: sched}
	if inject > 0 && !variants.IsCashmere(variant) && variant != variants.Sequential {
		opts.TreadMarks = treadmarks.Config{TestDropDiffRuns: inject}
	}
	cfg, err := variants.Config(variant, shape.Nodes, shape.PPN, opts)
	if err != nil {
		return fmt.Sprintf("config: %v", err)
	}
	res, err := core.Run(cfg, fuzz.New(c))
	if err != nil {
		// In-body oracle checks panic on the first stale read; core.Run
		// returns that panic as an error.
		return fmt.Sprintf("run failed: %v", err)
	}
	want := fuzz.AllExpectedChecks(c, shape.Procs())
	if len(res.Checks) != len(want) {
		return fmt.Sprintf("reported %d checks, oracle has %d", len(res.Checks), len(want))
	}
	return core.ChecksDisagree(res.Checks, want, 0)
}
