// Package check explores the simulator's schedule space. It drives the
// perturbation layer (sim.Schedule) to run the same program under many
// distinct — but individually bit-reproducible — event orderings, and checks
// two things there:
//
//   - a memory-model litmus suite (litmus.go, sweep.go): classic two- and
//     four-processor shapes (MP, SB, LB, IRIW), each with and without
//     acquire/release synchronization, swept across schedules, protocols, and
//     cluster shapes; forbidden outcomes must never appear and key permitted
//     outcomes must each appear at least once;
//   - a differential check (differential.go): a generated data-race-free
//     fuzz program on one variant, cluster shape and schedule must report
//     the analytic sequential-consistency oracle exactly. The package's
//     FuzzSchedule target explores it with Go's fuzzer; Shrink minimizes a
//     failing run by bisecting program parameters and cluster shape while
//     re-searching a small neighborhood of schedule seeds, and the minimized
//     run, printed as a fuzz corpus file, is the repro.
package check

import (
	"fmt"

	"repro/internal/sim"
)

// Shape is a cluster configuration: Nodes x PPN compute processors.
type Shape struct {
	Nodes, PPN int
}

// Procs is the total compute processor count.
func (s Shape) Procs() int { return s.Nodes * s.PPN }

func (s Shape) String() string { return fmt.Sprintf("%dx%d", s.Nodes, s.PPN) }

// Params size a litmus sweep.
type Params struct {
	// Schedules is the number of perturbed schedules per (test, variant).
	Schedules int
	// Jobs is the worker-pool width (default GOMAXPROCS).
	Jobs int
}

// Every sweep schedule perturbs with the same three knobs; only the seed
// varies. Litmus outcomes need the stagger: without it the fixed startup
// costs make the same role win every race on every seed.
const (
	baseSeed     = 1 // schedule i has seed baseSeed+i; seed 0 is the canonical order
	sweepJitter  = 0.75
	sweepStagger = 3 * sim.Millisecond
)

// schedule returns the i-th perturbed schedule of a sweep.
func schedule(i int) sim.Schedule {
	return sim.Schedule{
		Seed:       baseSeed + uint64(i),
		CostJitter: sweepJitter,
		FlipTies:   true,
		Stagger:    sweepStagger,
	}
}
