package treadmarks

import (
	"testing"

	"repro/internal/core"
	"repro/internal/interconnect"
	"repro/internal/msg"
)

// mimic Water: per-chunk force merge where each proc SKIPS chunks without
// contributions and takes locks in ascending order (not offset by rank).
func TestWaterMergePattern(t *testing.T) {
	var proto *Protocol
	cfg := core.Config{
		Nodes: 2, ProcsPerNode: 2,
		MC: interconnect.MCFirstGeneration(), Costs: core.DefaultCosts(),
		Msg: msg.DefaultParams(msg.ModePoll), PollingInstrumented: true,
		NewProtocol: func(rt *core.Runtime) core.Protocol {
			pr := New(Config{})(rt).(*Protocol)
			proto = pr
			return pr
		},
		Variant: "tmk",
	}
	l := core.NewLayout()
	arr := l.F64Pages(64)
	prog := &core.Program{
		Name: "watermerge", SharedBytes: l.Size(), Locks: 4, Barriers: 3,
		Body: func(p *core.Proc) {
			np := p.NumProcs()
			for step := 0; step < 3; step++ {
				// phase 1: owner clears its chunk
				q := p.Rank()
				for m := q * 16; m < (q+1)*16; m++ {
					arr.Set(p, m, 0)
				}
				p.Barrier(0)
				// phase 2: everyone adds to every chunk in ascending order
				for c := 0; c < np; c++ {
					p.Lock(c)
					for m := c * 16; m < (c+1)*16; m++ {
						arr.Set(p, m, arr.At(p, m)+1)
					}
					p.Unlock(c)
				}
				p.Barrier(1)
				bad := 0
				for m := 0; m < 64; m++ {
					if got := arr.At(p, m); got != float64(np) {
						if bad < 4 {
							t.Errorf("step %d rank %d: arr[%d] = %v, want %v", step, p.Rank(), m, got, np)
						}
						bad++
					}
				}
				if bad > 0 {
					return
				}
				p.Barrier(2) // separate the check from the next step's writes
			}
			p.Finish()
		},
	}
	if _, err := core.Run(cfg, prog); err != nil {
		t.Fatal(err)
	}
	_ = proto
}
