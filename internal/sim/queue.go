package sim

// entry is one run-queue element: processor p becomes runnable at virtual
// time at. order is the engine's push counter at the push; tie is the
// equal-time key derived from it once, at the push (see runQueue.salt).
type entry struct {
	at    Time
	tie   uint64
	order uint64
	p     *Proc
}

// before orders entries by (time, tie key, push order). FIFO ordering among
// equal-time entries makes Yield hand the baton to same-clock peers instead of
// spinning, and is deterministic because pushes happen in a deterministic
// order. Under a tie-flipping schedule the equal-time order is the salted hash
// of the push order instead — a different, equally deterministic
// linearization of events the conservative rule leaves unordered.
func (a *entry) before(b *entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.tie != b.tie {
		return a.tie < b.tie
	}
	return a.order < b.order
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
	e := entry{at: at, order: order, p: p}
	if q.salt != 0 {
		e.tie = mix64(q.salt ^ order)
	}
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
	if n == 0 {
		return top
	}
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
	return top
}

func (q *runQueue) len() int { return len(q.h) }
