package treadmarks

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// stormLocks is the lock count of the storm below: each lock guards one
// 16-element quarter of a single page.
const stormLocks = 4

// lockStorm mimics Water's phase-3 merge: four locks guard disjoint quarters
// of one page, every processor takes every lock once per round (starting at
// its own rank, so the lock chains interleave), and barriers separate the
// rounds. After the last round every rank reads all 64 elements; lockStorm
// returns the first that lost an update.
func lockStorm(cfg core.Config) error {
	var lost error
	if _, err := core.Run(cfg, stormProgram(&lost)); err != nil {
		return err
	}
	return lost
}

// stormProgram is lockStorm's program; *lost is set to the first lost
// update.
func stormProgram(lost *error) *core.Program {
	l := core.NewLayout()
	arr := l.F64Pages(16 * stormLocks)
	return &core.Program{
		Name: "lockstorm", SharedBytes: l.Size(), Locks: stormLocks, Barriers: 1,
		Body: func(p *core.Proc) {
			np := p.NumProcs()
			for round := 0; round < 3; round++ {
				for dq := 0; dq < stormLocks; dq++ {
					q := (p.Rank() + dq) % stormLocks
					p.Lock(q)
					for m := q * 16; m < (q+1)*16; m++ {
						arr.Set(p, m, arr.At(p, m)+1)
					}
					p.Unlock(q)
					p.Compute(5 * sim.Microsecond)
				}
				p.Barrier(0)
			}
			for m := 0; m < 16*stormLocks; m++ {
				if got := arr.At(p, m); got != float64(3*np) && *lost == nil {
					*lost = fmt.Errorf("rank %d: arr[%d] = %v, want %v", p.Rank(), m, got, 3*np)
				}
			}
			p.Finish()
		},
	}
}

// TestLockStorm runs the storm on 2x2 at every HandlerWork from 1 to 12 µs:
// moving one cost must not decide whether a lock-protected update survives.
func TestLockStorm(t *testing.T) {
	for hw := 1; hw <= 12; hw++ {
		t.Run(fmt.Sprintf("handler%dus", hw), func(t *testing.T) {
			cfg := testConfig(2, 2, "tmk_mc_poll")
			cfg.Costs.HandlerWork = sim.Time(hw) * sim.Microsecond
			if err := lockStorm(cfg); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestLockStormPerturbed runs the storm under cost jitter over a contiguous
// range of schedule seeds, on the three TreadMarks variants and four shapes
// from 4 to 8 processors. Every perturbed schedule is a legal execution
// (DESIGN §7b item 1), so every one must keep every update.
func TestLockStormPerturbed(t *testing.T) {
	const seeds = 30
	for _, variant := range []string{"tmk_udp_int", "tmk_mc_int", "tmk_mc_poll"} {
		for _, shape := range []struct{ nodes, ppn int }{{1, 4}, {2, 2}, {4, 2}, {8, 1}} {
			t.Run(fmt.Sprintf("%s/%dx%d", variant, shape.nodes, shape.ppn), func(t *testing.T) {
				failed := 0
				var first error
				for s := uint64(1); s <= seeds; s++ {
					cfg := testConfig(shape.nodes, shape.ppn, variant)
					cfg.Schedule = sim.Schedule{Seed: s, CostJitter: 0.5}
					if err := lockStorm(cfg); err != nil {
						if failed++; first == nil {
							first = fmt.Errorf("seed %d: %w", s, err)
						}
					}
				}
				if failed > 0 {
					t.Errorf("%d of %d seeds lost an update; first: %v", failed, seeds, first)
				}
			})
		}
	}
}
