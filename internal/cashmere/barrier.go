package cashmere

import (
	"repro/internal/core"
	"repro/internal/interconnect"
)

// treeBarrier implements the paper's §3.3.2 application barriers: upon
// arrival each processor waits for its children in a static tree, notifies
// its parent, and finally waits for the root's notification, all through
// explicit words in Memory Channel space. Epoch counters give sense reversal
// so barrier ids can be reused.
const barrierArity = 4

type treeBarrier struct {
	// words layout per barrier id: [nprocs arrival words][1 release word].
	words  *interconnect.WordArray
	stride int
	nprocs int
	epoch  [][]int64 // [barrier][rank]
}

func newTreeBarrier(rt *core.Runtime, numBarriers int) *treeBarrier {
	n := len(rt.ComputeProcs())
	b := &treeBarrier{
		stride: n + 1,
		nprocs: n,
		epoch:  make([][]int64, numBarriers),
	}
	b.words = rt.Net().NewWordArray(numBarriers*b.stride, interconnect.TrafficSync)
	for i := range b.epoch {
		b.epoch[i] = make([]int64, n)
	}
	return b
}

// wait blocks p until all compute processors have arrived at barrier id.
func (b *treeBarrier) wait(p *core.Proc, id int) {
	rank := p.Rank()
	if b.nprocs == 1 {
		return
	}
	epoch := b.epoch[id][rank] + 1
	b.epoch[id][rank] = epoch
	base := id * b.stride
	// Wait for all children's arrival words to reach this epoch.
	for c := barrierArity*rank + 1; c <= barrierArity*rank+barrierArity && c < b.nprocs; c++ {
		word := base + c
		p.SpinWait("barrier children", func() bool {
			return b.words.Read(p.Sim(), word) >= epoch
		})
	}
	if rank == 0 {
		// Root: release everyone by broadcasting the epoch.
		b.words.WriteLoopback(p.Sim(), base+b.nprocs, epoch)
		return
	}
	// Notify parent, then wait for the root's release broadcast.
	b.words.WriteLoopback(p.Sim(), base+rank, epoch)
	release := base + b.nprocs
	p.SpinWait("barrier release", func() bool {
		return b.words.Read(p.Sim(), release) >= epoch
	})
}
