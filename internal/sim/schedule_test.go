package sim

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
)

// scheduleWorkload attaches a 6-round message-passing ring to the engine's
// processors and returns the event trace buffer. Every processor charges the
// same cost per round, so without perturbation every round is a pile of
// same-instant ties — exactly the orderings FlipTies is supposed to explore.
// Appends are baton-serialized (one goroutine runs at a time), so the trace
// order is the event order.
func scheduleWorkload(e *Engine) *[]string {
	var trace []string
	n := e.NumProcs()
	for i := 0; i < n; i++ {
		p := e.Proc(i)
		e.Go(p, func(p *Proc) {
			const kindPing = 7
			peer := e.Proc((p.ID + 1) % n)
			for r := 0; r < 6; r++ {
				p.Advance(200)
				p.Yield()
				trace = append(trace, fmt.Sprintf("p%d r%d send t=%d", p.ID, r, p.Now()))
				peer.Deliver(p.NewMsg(p.Now()+6000, kindPing, r))
				m := p.Recv("ping")
				trace = append(trace, fmt.Sprintf("p%d r%d recv t=%d seq=%d from p%d", p.ID, r, p.Now(), m.Seq, m.From))
			}
		})
	}
	return &trace
}

// runScheduled executes the workload under the given schedule and returns the
// trace as one byte-comparable string plus the engine for inspection.
func runScheduled(t *testing.T, nodes, ppn int, s Schedule) (string, *Engine) {
	t.Helper()
	e := mustEngine(t, nodes, ppn)
	e.SetSchedule(s)
	trace := scheduleWorkload(e)
	if err := e.Run(); err != nil {
		t.Fatalf("run under schedule %+v: %v", s, err)
	}
	return strings.Join(*trace, "\n"), e
}

func fullSchedule(seed uint64) Schedule {
	return Schedule{Seed: seed, CostJitter: 0.75, FlipTies: true, Stagger: 3 * Millisecond}
}

// TestScheduleDeterminism: the same (program, schedule seed) pair must replay
// to a byte-identical event trace at any GOMAXPROCS — the perturbation layer
// is a pure function of its seeds, never of host scheduling.
func TestScheduleDeterminism(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, seed := range []uint64{1, 2, 42} {
				a, _ := runScheduled(t, 2, 2, fullSchedule(seed))
				b, _ := runScheduled(t, 2, 2, fullSchedule(seed))
				if a != b {
					t.Fatalf("seed %d: two runs diverged:\n--- run 1:\n%s\n--- run 2:\n%s", seed, a, b)
				}
			}
		})
	}
}

// TestScheduleDistinctSeeds: different schedule seeds must actually explore
// different orderings — otherwise the harness sweeps one schedule N times.
func TestScheduleDistinctSeeds(t *testing.T) {
	seen := map[string]uint64{}
	distinct := 0
	for seed := uint64(1); seed <= 8; seed++ {
		tr, _ := runScheduled(t, 2, 2, fullSchedule(seed))
		if _, dup := seen[tr]; !dup {
			distinct++
		}
		seen[tr] = seed
	}
	if distinct < 4 {
		t.Fatalf("only %d distinct traces across 8 schedule seeds", distinct)
	}
}

// TestScheduleZeroValueCanonical: a zero (or disabled) schedule must leave
// the canonical ordering untouched.
func TestScheduleZeroValueCanonical(t *testing.T) {
	if (Schedule{}).Enabled() {
		t.Fatal("zero schedule reports enabled")
	}
	if (Schedule{CostJitter: 0.5, FlipTies: true, Stagger: 100}).Enabled() {
		t.Fatal("schedule with zero seed reports enabled")
	}
	base, _ := runScheduled(t, 2, 2, Schedule{})
	e := mustEngine(t, 2, 2)
	trace := scheduleWorkload(e)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(*trace, "\n"); got != base {
		t.Fatalf("zero schedule changed the canonical trace:\n--- with SetSchedule(Schedule{}):\n%s\n--- without:\n%s", base, got)
	}
}

// TestScheduleJitterBounds: jittered costs only ever grow, and never past the
// declared fraction — the legality contract the protocols rely on.
func TestScheduleJitterBounds(t *testing.T) {
	const steps, step = 50, 1000
	run := func(s Schedule) Time {
		e := mustEngine(t, 1, 1)
		e.SetSchedule(s)
		e.Go(e.Proc(0), func(p *Proc) {
			for i := 0; i < steps; i++ {
				p.Advance(step)
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e.MaxTime()
	}
	base := run(Schedule{})
	if base != steps*step {
		t.Fatalf("canonical clock %d, want %d", base, steps*step)
	}
	inflated := false
	for seed := uint64(1); seed <= 5; seed++ {
		got := run(Schedule{Seed: seed, CostJitter: 0.5})
		if got < base || got > base+base/2 {
			t.Fatalf("seed %d: jittered clock %d outside [%d, %d]", seed, got, base, base+base/2)
		}
		if got > base {
			inflated = true
		}
	}
	if !inflated {
		t.Fatal("cost jitter never inflated any cost across 5 seeds")
	}
}

// TestScheduleTieFlip: with ties flipped (and nothing else perturbed), the
// trace must differ from canonical for some seed — and virtual clocks must
// not move, because tie-flipping only reorders same-instant events.
func TestScheduleTieFlip(t *testing.T) {
	base, be := runScheduled(t, 2, 2, Schedule{})
	flipped := false
	for seed := uint64(1); seed <= 8; seed++ {
		tr, fe := runScheduled(t, 2, 2, Schedule{Seed: seed, FlipTies: true})
		if fe.MaxTime() != be.MaxTime() {
			t.Fatalf("seed %d: tie flip moved the clock: %d vs %d", seed, fe.MaxTime(), be.MaxTime())
		}
		if tr != base {
			flipped = true
		}
	}
	if !flipped {
		t.Fatal("FlipTies never changed the trace across 8 seeds")
	}
}

// TestScheduleStagger: staggered starts stay within [0, Stagger] and
// de-synchronize the lockstep startup for some seed.
func TestScheduleStagger(t *testing.T) {
	const maxOff = 10 * Microsecond
	starts := func(s Schedule) []Time {
		e := mustEngine(t, 2, 2)
		e.SetSchedule(s)
		var at []Time
		for i := 0; i < e.NumProcs(); i++ {
			p := e.Proc(i)
			e.Go(p, func(p *Proc) { at = append(at, p.Now()) })
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return at
	}
	spread := false
	for seed := uint64(1); seed <= 4; seed++ {
		at := starts(Schedule{Seed: seed, Stagger: maxOff})
		for _, v := range at {
			if v < 0 || v > maxOff {
				t.Fatalf("seed %d: start offset %d outside [0, %d]", seed, v, maxOff)
			}
		}
		for i := 1; i < len(at); i++ {
			if at[i] != at[0] {
				spread = true
			}
		}
	}
	if !spread {
		t.Fatal("stagger never separated any two start times across 4 seeds")
	}
}

func TestScheduleValidate(t *testing.T) {
	for _, bad := range []Schedule{
		{Seed: 1, CostJitter: -0.1},
		{Seed: 1, CostJitter: MaxCostJitter + 1},
		{Seed: 1, CostJitter: math.NaN()},
		{Seed: 1, Stagger: -1},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("schedule %+v validated", bad)
		}
	}
	if err := (Schedule{Seed: 1, CostJitter: 1, FlipTies: true, Stagger: Millisecond}).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSetScheduleAfterRunPanics(t *testing.T) {
	e := mustEngine(t, 1, 1)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetSchedule after Run did not panic")
		}
	}()
	e.SetSchedule(Schedule{Seed: 1, FlipTies: true})
}
