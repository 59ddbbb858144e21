package bench

import (
	"fmt"
	"io"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/variants"
	"repro/internal/vm"
)

// Microbenchmark program names registered with the runner, so Table 1's
// measurements flow through the same plan/execute/cache machinery as the
// application runs.
const (
	microLock    = "micro:lock"
	microBarrier = "micro:barrier"
	microPage    = "micro:page"
)

func init() {
	runner.RegisterProgram(microLock, func(apps.Size) *core.Program { return lockProgram() })
	runner.RegisterProgram(microBarrier, func(apps.Size) *core.Program { return barrierProgram() })
	runner.RegisterProgram(microPage, func(apps.Size) *core.Program { return pageProgram() })
}

// microSpec builds the RunSpec for one microbenchmark measurement.
func microSpec(prog, variant string, procs int, vo variants.Options) runner.RunSpec {
	return runner.RunSpec{App: prog, Variant: variant, Procs: procs, Size: apps.SizeSmall, Opts: vo}
}

// Table1Specs enumerates Table 1's measurements: lock acquire, barrier at 2
// and at 16 processors, and page transfer, for every protocol variant.
func Table1Specs(vo variants.Options) []runner.RunSpec {
	var specs []runner.RunSpec
	for _, v := range variants.Names {
		specs = append(specs,
			microSpec(microLock, v, 2, vo),
			microSpec(microBarrier, v, 2, vo),
			microSpec(microBarrier, v, 16, vo),
			microSpec(microPage, v, 2, vo))
	}
	return specs
}

var table1 = Section{
	Name:   "table1",
	Doc:    "Table 1: basic operation costs per variant",
	Specs:  func(o Options) []runner.RunSpec { return Table1Specs(o.VariantOpts) },
	render: renderTable1,
}

// renderTable1 reproduces the paper's Table 1: the minimum cost of page
// transfers and user-level synchronization operations for the six protocol
// implementations. Lock acquire and page transfer are measured between two
// processors on separate nodes; barrier costs are measured at 2 and at 16
// processors (the parenthesized figures in the paper).
func renderTable1(w io.Writer, opts Options, res resultOf) {
	cost := func(prog, v string, procs int) float64 {
		return res(microSpec(prog, v, procs, opts.VariantOpts)).Checks["us"]
	}
	header(w, "Table 1: Cost of basic operations (microseconds; barrier shows 2-proc with 16-proc in parens)")
	fmt.Fprintf(w, "%-14s", "Operation")
	for _, v := range variants.Names {
		fmt.Fprintf(w, "%16s", v)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-14s", "Lock Acquire")
	for _, v := range variants.Names {
		fmt.Fprintf(w, "%16.0f", cost(microLock, v, 2))
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-14s", "Barrier")
	for _, v := range variants.Names {
		fmt.Fprintf(w, "%10.0f (%3.0f)", cost(microBarrier, v, 2), cost(microBarrier, v, 16))
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-14s", "Page Transfer")
	for _, v := range variants.Names {
		fmt.Fprintf(w, "%16.0f", cost(microPage, v, 2))
	}
	fmt.Fprintln(w)
}

// lockProgram times an uncontended lock acquire by a processor that is not
// the lock's last owner (the remote-acquire path).
func lockProgram() *core.Program {
	const iters = 20
	l := core.NewLayout()
	l.Alloc(vm.PageSize, vm.PageSize) // nonempty shared segment
	return &core.Program{
		Name:        "bench-lock",
		SharedBytes: l.Size(),
		Locks:       1,
		Barriers:    2,
		Body: func(p *core.Proc) {
			var total sim.Time
			for i := 0; i < iters; i++ {
				// Alternate ownership: rank (i%2) acquires, so each acquire
				// is remote with respect to the previous owner.
				if p.Rank() == i%2 {
					start := p.Sim().Now()
					p.Lock(0)
					total += p.Sim().Now() - start
					p.Unlock(0)
				}
				p.Barrier(0)
			}
			p.Finish()
			if p.Rank() == 0 {
				p.ReportCheck("us", us(total*2/iters))
			}
		},
	}
}

// barrierProgram times a barrier crossed by all processors.
func barrierProgram() *core.Program {
	const iters = 20
	l := core.NewLayout()
	l.Alloc(vm.PageSize, vm.PageSize)
	return &core.Program{
		Name:        "bench-barrier",
		SharedBytes: l.Size(),
		Barriers:    1,
		Body: func(p *core.Proc) {
			p.Barrier(0) // warm up
			start := p.Sim().Now()
			for i := 0; i < iters; i++ {
				p.Barrier(0)
			}
			total := p.Sim().Now() - start
			p.Finish()
			if p.Rank() == 0 {
				p.ReportCheck("us", us(total/iters))
			}
		},
	}
}

// pageProgram times the fault servicing a first remote read of a page
// dirtied by a processor on another node.
func pageProgram() *core.Program {
	const pages = 16
	l := core.NewLayout()
	arrs := make([]core.F64Array, pages)
	for i := range arrs {
		arrs[i] = l.F64Pages(vm.PageSize / 8)
	}
	return &core.Program{
		Name:        "bench-page",
		SharedBytes: l.Size(),
		Barriers:    2,
		Body: func(p *core.Proc) {
			if p.Rank() == 0 {
				for i := range arrs {
					for j := 0; j < arrs[i].N; j += 64 {
						arrs[i].Set(p, j, float64(i+j))
					}
				}
			}
			p.Barrier(0)
			var total sim.Time
			if p.Rank() == 1 {
				for i := range arrs {
					start := p.Sim().Now()
					_ = arrs[i].At(p, 0) // faults and transfers the page
					total += p.Sim().Now() - start
				}
				p.ReportCheck("us", us(total/pages))
			}
			p.Barrier(1)
			p.Finish()
		},
	}
}
