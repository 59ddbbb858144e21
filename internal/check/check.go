// Package check is the schedule-space exploration harness behind cmd/dsmcheck.
// It drives the simulator's perturbation layer (sim.Schedule) to run the same
// program under many distinct — but individually bit-reproducible — event
// orderings, and layers three checkers on top:
//
//   - a memory-model litmus suite (litmus.go, sweep.go): classic two- and
//     four-processor shapes (MP, SB, LB, IRIW), each with and without
//     acquire/release synchronization, swept across schedules, protocols, and
//     cluster shapes; forbidden outcomes must never appear and key permitted
//     outcomes must each appear at least once;
//   - a differential checker (differential.go): the fuzz corpus of
//     data-race-free generated programs run under perturbed schedules, with
//     every reported check compared against the analytic
//     sequential-consistency oracle and against the canonical-schedule run;
//   - a shrinker (shrink.go): a failing (program, schedule) pair is minimized
//     by bisecting program parameters and cluster shape while re-searching a
//     small neighborhood of schedule seeds, producing a JSON repro that
//     cmd/dsmcheck can replay.
package check

import (
	"fmt"
	"runtime"

	"repro/internal/sim"
	"repro/internal/variants"
)

// Shape is a cluster configuration: Nodes x PPN compute processors.
type Shape struct {
	Nodes, PPN int
}

// Procs is the total compute processor count.
func (s Shape) Procs() int { return s.Nodes * s.PPN }

func (s Shape) String() string { return fmt.Sprintf("%dx%d", s.Nodes, s.PPN) }

// Params configure a sweep.
type Params struct {
	// Schedules is the number of perturbed schedules per (test, variant).
	Schedules int
	// BaseSeed is the first schedule seed; schedule i uses BaseSeed+i.
	// Zero means 1 (a schedule seed of zero is the canonical order).
	BaseSeed uint64
	// Jitter is the per-event cost jitter fraction; zero charges every cost
	// unjittered (dsmcheck's flag default is 0.75). It must lie in
	// [0, sim.MaxCostJitter] (1.0), which core.Run checks through
	// Schedule.Validate.
	Jitter float64
	// Stagger is the maximum seed-derived start offset per processor; zero
	// starts every processor at once (dsmcheck's flag default is 3ms).
	// Litmus outcomes need it: without a stagger the fixed startup costs make
	// the same role win every race on every seed.
	Stagger sim.Time
	// Variants are the protocol variants to sweep (default all six,
	// variants.Names).
	Variants []string
	// Jobs is the worker-pool width (default GOMAXPROCS).
	Jobs int
	// InjectDropDiffRuns arms the TreadMarks injected diff-loss bug
	// (treadmarks.Config.TestDropDiffRuns) in every TreadMarks run of the
	// differential checker. Used by the self-test to prove the harness
	// detects and shrinks a real protocol fault.
	InjectDropDiffRuns int
}

func (p Params) withDefaults() Params {
	if p.Schedules <= 0 {
		p.Schedules = 200
	}
	if p.BaseSeed == 0 {
		p.BaseSeed = 1
	}
	if len(p.Variants) == 0 {
		p.Variants = variants.Names
	}
	if p.Jobs <= 0 {
		p.Jobs = runtime.GOMAXPROCS(0)
	}
	return p
}

// schedule returns the i-th perturbed schedule of the sweep.
func (p Params) schedule(i int) sim.Schedule {
	return sim.Schedule{
		Seed:       p.BaseSeed + uint64(i),
		CostJitter: p.Jitter,
		FlipTies:   true,
		Stagger:    p.Stagger,
	}
}
