package sim

// entry is one run-queue element: processor p becomes runnable at virtual
// time at. key is the equal-time order, derived once at the push from the
// engine's push counter (see runQueue.key).
type entry struct {
	at  Time
	key uint64
	p   *Proc
}

// before orders entries by (time, key). FIFO ordering among equal-time entries
// makes Yield hand the baton to same-clock peers instead of spinning, and is
// deterministic because pushes happen in a deterministic order. Under a
// tie-flipping schedule the equal-time order is the salted hash of the push
// order instead — a different, equally deterministic linearization of events
// the conservative rule leaves unordered. Keys are unique either way (see
// runQueue.key), so before is a strict total order on the entries a queue can
// hold and never needs a third comparison.
func (a *entry) before(b *entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.key < b.key
}

// runQueue is an indexed binary min-heap holding at most one entry per
// processor: Proc.qpos is the index of the processor's entry in h, or -1
// while it has none, so a wake that moves a queued processor earlier rewrites
// its entry in place and every entry in the heap is live. A hand-rolled heap
// (rather than container/heap) keeps the hot path free of interface
// conversions.
type runQueue struct {
	h []entry
	// salt, when non-zero, replaces FIFO ordering among equal-time entries
	// with a seeded hash order (Schedule.FlipTies): each push's unique order
	// stamp is mixed with the salt, so a re-pushed entry draws a fresh coin —
	// same-instant ties resolve differently per schedule seed, yet no
	// processor can be starved by a fixed unlucky hash. Set once before Run
	// (applySchedule), never touched during dispatch.
	salt uint64
}

// key turns a push stamp into the entry's equal-time key: the stamp itself
// (FIFO) when unsalted, else mix64(salt^order). Stamps are unique and both
// the XOR with a fixed salt and mix64 (the splitmix64 finalizer) are
// bijections on uint64, so salted keys are as unique as the stamps: two
// entries never compare equal.
func (q *runQueue) key(order uint64) uint64 {
	if q.salt == 0 {
		return order
	}
	return mix64(q.salt ^ order)
}

// headTime returns the time of the earliest entry, or maxTime if the queue is
// empty. Small enough to inline into yieldAt's elide test (scripts/lint.sh
// checks that it stays so).
func (q *runQueue) headTime() Time {
	if len(q.h) == 0 {
		return maxTime
	}
	return q.h[0].at
}

// put stores e at index i and records the position on its processor.
func (q *runQueue) put(i int, e entry) {
	q.h[i] = e
	e.p.qpos = i
}

// push queues p to run at time at with push stamp order. If p is already
// queued its entry is replaced where it sits; the caller guarantees the new
// time is earlier than the old one, so the entry can only move towards the
// root.
func (q *runQueue) push(p *Proc, at Time, order uint64) {
	e := entry{at: at, key: q.key(order), p: p}
	i := p.qpos
	if i < 0 {
		i = len(q.h)
		q.h = append(q.h, e)
	}
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&q.h[parent]) {
			break
		}
		q.put(i, q.h[parent])
		i = parent
	}
	q.put(i, e)
}

// pop removes the earliest entry and returns its processor. The queue must not
// be empty.
func (q *runQueue) pop() *Proc {
	top := q.h[0].p
	top.qpos = -1
	n := len(q.h) - 1
	e := q.h[n]
	q.h = q.h[:n]
	if n > 0 {
		q.siftDown(e)
	}
	return top
}

// pushPop is push(p, at, order) followed by pop() in one sift: p must not be
// queued. If p's new entry sorts before the head it is the one the pop would
// return, so it is returned without touching the heap; otherwise it replaces
// the root, sifts down once, and the old head is returned. The result equals
// push-then-pop because keys are unique: which entry a pop returns depends
// only on the set of entries, never on the heap's layout.
//
// With yield elision on, a re-queue reaches here only when it was not elided,
// i.e. at >= headTime, and the old head wins on time, or on the tie with its
// smaller push stamp — unless a tie-flipping schedule salts the keys, when p
// may win the tie and come straight back. Without elision (SIM_NO_FASTPATH) p
// also comes straight back when it is due strictly first or the heap is
// empty.
func (q *runQueue) pushPop(p *Proc, at Time, order uint64) *Proc {
	e := entry{at: at, key: q.key(order), p: p}
	if len(q.h) == 0 || e.before(&q.h[0]) {
		return p
	}
	top := q.h[0].p
	top.qpos = -1
	q.siftDown(e)
	return top
}

// siftDown stores e at the root, whose old entry the caller has taken out,
// and moves it down to restore heap order.
func (q *runQueue) siftDown(e entry) {
	n := len(q.h)
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && q.h[c+1].before(&q.h[c]) {
			c++
		}
		if !q.h[c].before(&e) {
			break
		}
		q.put(i, q.h[c])
		i = c
	}
	q.put(i, e)
}

func (q *runQueue) len() int { return len(q.h) }
