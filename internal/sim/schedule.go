package sim

import "fmt"

// Schedule describes a seed-derived perturbation of the engine's event
// schedule, used for schedule-space exploration (internal/check, cmd/dsmcheck).
//
// The deterministic engine executes exactly one legal ordering per program:
// the minimum-virtual-time rule with FIFO tie-breaking. A Schedule reshapes
// that ordering — within the bounds the timing model declares legal — so one
// program yields many distinct event orderings, each individually
// bit-reproducible: a (program seed, schedule seed) pair is a pure function
// of its inputs and replays exactly, on any host, at any GOMAXPROCS.
//
// Three independent knobs, all derived from Seed:
//
//   - CostJitter inflates every Advance(d) by a per-processor pseudo-random
//     amount in [0, d*CostJitter]. Costs only ever grow, and never beyond the
//     declared fraction, so a jittered run stays inside the cost ranges the
//     protocol layer declares legal (core.SchedulePerturbable).
//   - FlipTies replaces FIFO ordering among equal-virtual-time run-queue
//     entries with a seeded hash order. Only events the conservative
//     scheduling rule leaves unordered — same-instant ties — are affected.
//   - Stagger starts each processor's body at a seed-derived virtual offset
//     in [0, Stagger] instead of 0, de-synchronizing lockstep startups so
//     that sync-order races are actually explored.
//
// The zero value (and any value with Seed == 0) leaves the canonical
// schedule untouched. Perturbed runs take the same scheduling path as
// canonical ones, yield elision and inline polls included: an elided yield
// takes the push stamp its slow-path twin would (Engine.yieldAt), so the
// salted tie keys match too.
type Schedule struct {
	// Seed selects the perturbation. Zero disables the schedule entirely so
	// that a zero Schedule value means "canonical order".
	Seed uint64
	// CostJitter is the maximum fractional inflation of each Advance, in
	// [0, MaxCostJitter]; NaN is rejected. The protocol layer bounds it
	// further via its declared tolerance.
	CostJitter float64
	// FlipTies perturbs the ordering of equal-virtual-time run-queue entries.
	FlipTies bool
	// Stagger is the maximum seed-derived virtual-time offset applied to each
	// processor's start. Zero starts everyone at t=0 as usual.
	Stagger Time
}

// MaxCostJitter is the hard cap on Schedule.CostJitter: inflating any cost
// by more than 4x is outside every declared tolerance and almost certainly a
// misconfiguration.
const MaxCostJitter = 4.0

// Enabled reports whether the schedule perturbs anything. A zero Seed
// disables the schedule regardless of the other fields.
func (s Schedule) Enabled() bool {
	return s.Seed != 0 && (s.CostJitter > 0 || s.FlipTies || s.Stagger > 0)
}

// Validate reports whether the schedule's parameters are in range.
func (s Schedule) Validate() error {
	if !(s.CostJitter >= 0 && s.CostJitter <= MaxCostJitter) { // negated so NaN fails
		return fmt.Errorf("sim: schedule cost jitter %v outside [0, %v]", s.CostJitter, MaxCostJitter)
	}
	if s.Stagger < 0 {
		return fmt.Errorf("sim: negative schedule stagger %d", s.Stagger)
	}
	return nil
}

// Distinct stream tags keep the jitter, stagger, and tie-break derivations
// statistically independent even though they share one Seed.
const (
	jitterStream  uint64 = 0xa0761d6478bd642f
	staggerStream uint64 = 0xe7037ed1a0b428db
	tieStream     uint64 = 0x8ebc6af09c88c6e3
)

// mix64 is the splitmix64 finalizer: a bijective avalanche mix. Hand-rolled
// because measured packages may not import math/rand (determinism invariant,
// see internal/analysis); pure integer arithmetic is trivially deterministic.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// jitterNext advances a per-processor splitmix64 stream. Draws happen once
// per jittered Advance, in program order on the owning processor, so the
// stream consumption is itself a deterministic function of the schedule.
func jitterNext(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	return mix64(*state)
}

// SetSchedule commits the engine to a seed-derived schedule perturbation.
// Must be called before Run; panics on an out-of-range schedule. The caller
// (core.Run) is responsible for checking CostJitter against the protocol's
// declared tolerance first. A disabled schedule (zero Seed) is a no-op.
func (e *Engine) SetSchedule(s Schedule) {
	if e.started {
		panic("sim: SetSchedule called after Run")
	}
	if err := s.Validate(); err != nil {
		panic(err.Error())
	}
	e.sched = s
	var k int64
	if s.Enabled() && s.CostJitter > 0 {
		// Quantize the fraction to 1/1024ths once, up front: the hot path
		// then stays in integer arithmetic (no float op is ever schedule- or
		// host-dependent).
		k = int64(s.CostJitter*1024 + 0.5)
	}
	for _, p := range e.procs {
		p.jitterK = k
	}
}

// applySchedule arms a committed schedule perturbation at Run.
func (e *Engine) applySchedule() {
	if !e.sched.Enabled() {
		return
	}
	base := mix64(e.sched.Seed ^ jitterStream)
	for _, p := range e.procs {
		p.jstate = mix64(base ^ (uint64(p.ID) + 1))
	}
	if e.sched.FlipTies {
		salt := mix64(e.sched.Seed ^ tieStream)
		if salt == 0 {
			salt = 1 // zero means "FIFO" to the queue; never lose the flip
		}
		e.runq.salt = salt
	}
}

// startTime returns the virtual time at which p's body is first scheduled:
// 0 canonically, or a seed-derived offset in [0, Stagger] under a staggered
// schedule.
func (e *Engine) startTime(p *Proc) Time {
	if !e.sched.Enabled() || e.sched.Stagger <= 0 {
		return 0
	}
	base := mix64(e.sched.Seed ^ staggerStream)
	return Time(mix64(base^(uint64(p.ID)+1)) % uint64(e.sched.Stagger+1))
}
