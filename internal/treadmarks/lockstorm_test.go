package treadmarks

import (
	"testing"

	"repro/internal/core"
	"repro/internal/interconnect"
	"repro/internal/msg"
	"repro/internal/sim"
)

// TestLockStorm mimics Water's phase-3 merge: many locks, every proc takes
// each lock once per round, with barriers between rounds.
func TestLockStorm(t *testing.T) {
	cfg := core.Config{
		Nodes: 2, ProcsPerNode: 2,
		MC: interconnect.MCFirstGeneration(), Costs: core.DefaultCosts(),
		Msg: msg.DefaultParams(msg.ModePoll), PollingInstrumented: true,
		NewProtocol: New(Config{}), Variant: "tmk",
	}
	l := core.NewLayout()
	arr := l.F64Pages(64)
	prog := &core.Program{
		Name: "lockstorm", SharedBytes: l.Size(), Locks: 4, Barriers: 1,
		Body: func(p *core.Proc) {
			np := p.NumProcs()
			for round := 0; round < 3; round++ {
				for dq := 0; dq < np; dq++ {
					q := (p.Rank() + dq) % np
					p.Lock(q)
					for m := q * 16; m < (q+1)*16; m++ {
						arr.Set(p, m, arr.At(p, m)+1)
					}
					p.Unlock(q)
					p.Compute(5 * sim.Microsecond)
				}
				p.Barrier(0)
			}
			for m := 0; m < 64; m++ {
				if got := arr.At(p, m); got != float64(3*np) {
					t.Errorf("rank %d: arr[%d] = %v, want %v", p.Rank(), m, got, 3*np)
				}
			}
			p.Finish()
		},
	}
	if _, err := core.Run(cfg, prog); err != nil {
		t.Fatal(err)
	}
}
