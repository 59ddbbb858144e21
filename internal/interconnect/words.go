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
// Writes are loop-back writes (paper §3.3.2): every node, the writer's
// included, sees the new value at t+latency. One previous value is retained
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
}

// newWordArray allocates a globally mapped array of n 8-byte words, all
// zero, charging traffic to the given class. Backends call this from their
// NewWordArray with their own store cost and visibility latency.
func newWordArray(st *stats, writeCost, latency sim.Time, n int, tc TrafficClass) *WordArray {
	return &WordArray{st: st, writeCost: writeCost, latency: latency, tc: tc, words: make([]word, n)}
}

// Len returns the number of words.
func (w *WordArray) Len() int { return len(w.words) }

// Read returns the value of word i as seen from processor p's node at p's
// current virtual time. Reads are local memory reads (receive regions live in
// RAM) and cost nothing here; callers charge their own cost model.
func (w *WordArray) Read(p *sim.Proc, i int) int64 {
	wd := &w.words[i]
	if p.Now() >= wd.visibleFrom {
		return wd.cur
	}
	return wd.prev
}

// WriteLoopback stores v into word i with loop-back enabled: every node,
// including the writer's, sees the new value only after the fabric latency.
// Used by synchronization primitives that rely on total write ordering.
func (w *WordArray) WriteLoopback(p *sim.Proc, i int, v int64) {
	p.Advance(w.writeCost)
	wd := &w.words[i]
	wd.prev = wd.cur
	wd.cur = v
	wd.visibleFrom = p.Now() + w.latency
	w.st.bytesByClass[w.tc] += 8
}
