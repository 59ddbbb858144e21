package interconnect

import "repro/internal/sim"

// WordArray is a region of 8-byte words mapped for transmit and receive on
// every node: the representation used for Cashmere's page directory, lock
// arrays, barrier flags, and message flow-control flags. Every backend
// provides it (NewWordArray); only the store cost and the visibility latency
// differ per fabric.
//
// Visibility model: a write performed at virtual time t becomes visible to
// remote nodes at t+latency, where latency is the backend's remote-write
// visibility horizon (the Memory Channel's 5.2 µs; a switched fabric's
// worst-case hop count, so that the broadcast keeps total write ordering).
// With Write, the writer's own node sees the new value immediately (the
// implementation writes the local receive region directly, paper §3.3); with
// WriteLoopback everyone, including the writer's node, sees it at t+latency
// (paper §3.3.2, used by the lock algorithm). One previous value is retained
// for readers inside the visibility window.
type WordArray struct {
	st        *stats
	writeCost sim.Time
	latency   sim.Time
	tc        TrafficClass
	words     []word
}

type word struct {
	cur, prev   int64
	visibleFrom sim.Time
	writerNode  int // -1: visible per visibleFrom only (loopback write)
}

// newWordArray allocates a globally mapped array of n 8-byte words, all
// zero, charging traffic to the given class. Backends call this from their
// NewWordArray with their own store cost and visibility latency.
func newWordArray(st *stats, writeCost, latency sim.Time, n int, tc TrafficClass) *WordArray {
	w := &WordArray{st: st, writeCost: writeCost, latency: latency, tc: tc, words: make([]word, n)}
	for i := range w.words {
		w.words[i].writerNode = -1
	}
	return w
}

// Len returns the number of words.
func (w *WordArray) Len() int { return len(w.words) }

// Read returns the value of word i as seen from processor p's node at p's
// current virtual time. Reads are local memory reads (receive regions live in
// RAM) and cost nothing here; callers charge their own cost model.
func (w *WordArray) Read(p *sim.Proc, i int) int64 {
	wd := &w.words[i]
	if p.Now() >= wd.visibleFrom || p.Node == wd.writerNode {
		return wd.cur
	}
	return wd.prev
}

// Write stores v into word i: one store to the local receive region (visible
// on the writer's node immediately) and one PIO store to the transmit region
// (visible remotely after the fabric latency). The writer is charged two
// store costs.
func (w *WordArray) Write(p *sim.Proc, i int, v int64) {
	p.Advance(2 * w.writeCost)
	w.set(p, i, v, p.Node)
}

// WriteLoopback stores v into word i with loop-back enabled: every node,
// including the writer's, sees the new value only after the fabric latency.
// Used by synchronization primitives that rely on total write ordering.
func (w *WordArray) WriteLoopback(p *sim.Proc, i int, v int64) {
	p.Advance(w.writeCost)
	w.set(p, i, v, -1)
}

func (w *WordArray) set(p *sim.Proc, i int, v int64, writerNode int) {
	wd := &w.words[i]
	wd.prev = wd.cur
	wd.cur = v
	wd.visibleFrom = p.Now() + w.latency
	wd.writerNode = writerNode
	w.st.bytesByClass[w.tc] += 8
}
