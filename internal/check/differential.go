package check

import (
	"fmt"

	"repro/internal/apps/fuzz"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/treadmarks"
	"repro/internal/variants"
)

// diffReason runs one fuzz configuration and compares it against the oracle;
// it returns "" on success and the failure reason otherwise. The generated
// programs are data-race-free, so under release consistency no legal
// schedule may change any answer; the programs' in-body sample checks
// additionally panic — which core.Run surfaces as an error — the moment any
// single read is stale. inject > 0 arms the TreadMarks injected diff-loss
// fault (treadmarks.Config.TestDropDiffRuns) on the TreadMarks variants.
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

// Repro is one differential run: a generated program on one variant, cluster
// shape and schedule. Every run it describes is deterministic, so a repro
// either always reproduces or never does.
type Repro struct {
	Fuzz    fuzz.Config
	Variant string
	Shape   Shape
	// Schedule is the perturbation; the zero value is the canonical order.
	Schedule sim.Schedule
	// InjectDropDiffRuns arms the injected TreadMarks fault (self-test).
	InjectDropDiffRuns int
	// Reason records why the run failed when the repro was captured.
	Reason string
}

// String is a compact one-line description.
func (r Repro) String() string {
	return fmt.Sprintf("fuzz{seed %d, %d rounds, %d elems, %d locks} on %s %s, schedule seed %d",
		r.Fuzz.Seed, r.Fuzz.Rounds, r.Fuzz.Elems, r.Fuzz.Locks, r.Variant, r.Shape, r.Schedule.Seed)
}

// Replay runs the repro once. It returns the failure reason, "" if the run
// passes, and an error only for an invalid program configuration.
func Replay(r Repro) (string, error) {
	if !r.Fuzz.Valid() {
		return "", fmt.Errorf("check: bad fuzz config %+v", r.Fuzz)
	}
	return diffReason(r.Fuzz, r.Variant, r.Shape, r.Schedule, r.InjectDropDiffRuns), nil
}

// reseedWidth is how many schedule seeds the shrinker searches per shrinking
// candidate: the original seed first (the same program often fails under the
// same perturbation stream), then a small neighborhood, since a structurally
// smaller program needs a different ordering to hit the same protocol path.
const reseedWidth = 8

// Shrink minimizes a reproducing failure by greedily bisecting the program
// parameters and cluster shape, re-searching the schedule-seed neighborhood
// after each structural change. budget caps the total number of replays
// (<= 0 means a default of 400). It returns the minimized repro and the
// number of replays spent. Shrinking requires the input to reproduce.
//
// Go's fuzzer cannot do this itself: its minimizer only shrinks string and
// []byte arguments, and FuzzSchedule's are all typed.
func Shrink(r Repro, budget int) (Repro, int, error) {
	if budget <= 0 {
		budget = 400
	}
	spent := 0
	replay := func(c Repro) (string, bool) {
		if spent >= budget {
			return "", false
		}
		spent++
		reason, err := Replay(c)
		if err != nil {
			return "", false
		}
		return reason, reason != ""
	}
	reason, fails := replay(r)
	if !fails {
		return r, spent, fmt.Errorf("check: repro does not reproduce: %s", r)
	}
	r.Reason = reason

	// accept tries a structural candidate across the seed neighborhood.
	accept := func(c Repro) (Repro, bool) {
		seeds := []uint64{c.Schedule.Seed}
		if c.Schedule.Enabled() {
			for k := uint64(1); k < reseedWidth; k++ {
				seeds = append(seeds, c.Schedule.Seed+k)
			}
		}
		for _, seed := range seeds {
			cand := c
			cand.Schedule.Seed = seed
			if reason, bad := replay(cand); bad {
				cand.Reason = reason
				return cand, true
			}
		}
		return c, false
	}

	for spent < budget {
		improved := false
		for _, cand := range shrinkCandidates(r) {
			if got, ok := accept(cand); ok {
				r = got
				improved = true
				break
			}
		}
		if !improved {
			break
		}
	}
	return r, spent, nil
}

// shrinkCandidates proposes structurally smaller variants of the repro, most
// aggressive first. Every candidate stays within the legal parameter space
// (fuzz needs Rounds >= 1, Elems >= 64, Locks >= 1; a DSM run needs >= 2
// processors).
func shrinkCandidates(r Repro) []Repro {
	var out []Repro
	add := func(mutate func(*Repro)) {
		c := r
		mutate(&c)
		if c != r {
			out = append(out, c)
		}
	}
	// Shape first: fewer processors shrinks every later replay.
	if r.Shape.Procs() > 2 {
		add(func(c *Repro) { c.Shape = Shape{2, 1} })
		add(func(c *Repro) { c.Shape = Shape{1, 2} })
	}
	if n := r.Shape.Nodes / 2; n*r.Shape.PPN >= 2 {
		add(func(c *Repro) { c.Shape.Nodes = n })
	}
	if r.Shape.PPN > 1 && r.Shape.Nodes > 1 {
		add(func(c *Repro) { c.Shape.PPN = 1 })
	}
	if h := r.Fuzz.Rounds / 2; h >= 1 && h < r.Fuzz.Rounds {
		add(func(c *Repro) { c.Fuzz.Rounds = h })
	}
	if r.Fuzz.Rounds > 1 {
		add(func(c *Repro) { c.Fuzz.Rounds-- })
	}
	if h := r.Fuzz.Elems / 2; h >= 64 && h < r.Fuzz.Elems {
		add(func(c *Repro) { c.Fuzz.Elems = h })
	}
	if r.Fuzz.Locks > 1 {
		add(func(c *Repro) { c.Fuzz.Locks = r.Fuzz.Locks / 2 })
		add(func(c *Repro) { c.Fuzz.Locks-- })
	}
	return out
}
