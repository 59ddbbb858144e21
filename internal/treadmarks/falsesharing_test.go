package treadmarks

import (
	"fmt"
	"testing"

	"repro/internal/apps/apputil"
	"repro/internal/core"
	"repro/internal/vm"
)

// falseSharingPages and falseSharingRounds size the program below: enough
// pages that every rank writes a slice of several pages, and enough rounds
// that a page's writers rotate and its diffs stack up across barriers.
const (
	falseSharingPages  = 4
	falseSharingRounds = 3
)

// fsValue is the closed form of element i after round r's write phase.
func fsValue(r, i int) int64 { return int64(i)*3 + int64(r)*1000 + 1 }

// falseSharing builds a barrier-phased, data-race-free program in the style
// of internal/apps/fuzz: each page is cut into `writers` slices, and in round
// r slice s of page pg is written by rank (pg+s+r) mod nprocs, so every slice
// of a page has a different writer and the writers rotate each round. After
// the barrier every rank reads a seeded sample of every page and panics on a
// stale value; after Finish rank 0 reports the sum of the whole array.
func falseSharing(writers int) *core.Program {
	const perPage = vm.PageSize / 8
	elems := falseSharingPages * perPage
	l := core.NewLayout()
	arr := l.I64Pages(elems)
	return &core.Program{
		Name: "falsesharing", SharedBytes: l.Size(), Barriers: 2,
		Body: func(p *core.Proc) {
			np, me := p.NumProcs(), p.Rank()
			rng := apputil.Rng(int64(me)*7919 + 1)
			slice := perPage / writers
			for r := 0; r < falseSharingRounds; r++ {
				for i := 0; i < elems; i++ {
					pg, s := i/perPage, i%perPage/slice
					if (pg+s+r)%np == me {
						arr.Set(p, i, fsValue(r, i))
					}
				}
				p.Barrier(0)
				for pg := 0; pg < falseSharingPages; pg++ {
					for k := 0; k < 16; k++ {
						i := pg*perPage + rng.Intn(perPage)
						if got, want := arr.At(p, i), fsValue(r, i); got != want {
							panic(fmt.Sprintf("round %d rank %d: arr[%d] = %d, want %d", r, me, i, got, want))
						}
					}
				}
				p.Barrier(1)
			}
			p.Finish()
			if me == 0 {
				var sum int64
				for i := 0; i < elems; i++ {
					sum += arr.At(p, i)
				}
				p.ReportCheck("sum", float64(sum))
			}
		},
	}
}

// runFalseSharing runs the program and compares the reported sum with its
// closed form.
func runFalseSharing(cfg core.Config, writers int) error {
	res, err := core.Run(cfg, falseSharing(writers))
	if err != nil {
		return err
	}
	var want int64
	for i := 0; i < falseSharingPages*vm.PageSize/8; i++ {
		want += fsValue(falseSharingRounds-1, i)
	}
	if got := res.Checks["sum"]; got != float64(want) {
		return fmt.Errorf("sum = %v, want %d", got, want)
	}
	if res.Total.DiffsApplied == 0 {
		return fmt.Errorf("pages shared by %d writers merged without a diff", writers)
	}
	return nil
}

// TestFalseSharingManyWriters pins that 4 and 8 writers per page, the case an
// earlier tree lost updates on, computes the right answer at 8 and 16
// processors (the paper's 4x2 and 8x2 layouts) on a polling and an
// interrupt-driven variant.
func TestFalseSharingManyWriters(t *testing.T) {
	for _, shape := range []struct{ nodes, ppn int }{{4, 2}, {8, 2}} {
		for _, variant := range []string{"tmk_mc_poll", "tmk_udp_int"} {
			for _, writers := range []int{4, 8} {
				t.Run(fmt.Sprintf("%dp/%s/w%d", shape.nodes*shape.ppn, variant, writers), func(t *testing.T) {
					if err := runFalseSharing(testConfig(shape.nodes, shape.ppn, variant), writers); err != nil {
						t.Error(err)
					}
				})
			}
		}
	}
}

// TestFalseSharingCatchesDroppedDiffs arms the injected diff-loss fault and
// requires the program above to notice: a pin that cannot fail pins nothing.
func TestFalseSharingCatchesDroppedDiffs(t *testing.T) {
	cfg := testConfig(4, 2, "tmk_mc_poll")
	cfg.NewProtocol = New(Config{TestDropDiffRuns: 3})
	if err := runFalseSharing(cfg, 8); err == nil {
		t.Fatal("TestDropDiffRuns armed, but every read and the sum agreed with the closed form")
	}
}
