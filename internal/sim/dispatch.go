package sim

import (
	"fmt"
	"math"
)

// maxTime is the "never" sentinel: the head time of an empty run queue.
const maxTime = Time(math.MaxInt64)

// stamp marks target queued to resume at virtual time t and takes a fresh
// stamp from the push counter, which is the FIFO tie-break. The entry itself
// is pushed by the caller: enqueue at once, or — for a yielder — the
// dispatchNext that follows, fused with its pop.
func (e *Engine) stamp(target *Proc, t Time) {
	target.state = stateQueued
	target.queuedAt = t
	e.pushCount++
}

// enqueue makes target runnable at virtual time t. A target that is already
// queued is moved, and t must be earlier than its current resume time (WakeAt
// checks).
func (e *Engine) enqueue(target *Proc, t Time) {
	e.stamp(target, t)
	e.runq.push(target, t, e.pushCount)
}

// yieldAt performs the scheduling step of "q yields until t" short of the
// switch: it resets q's quantum origin (and with it the quiet deadline), then
// either elides the yield (true: q keeps the baton with its clock advanced to
// t) or stamps q queued to resume at t (false: the caller must hand q to
// dispatchNext, which pushes it).
// Yield, PollWait and the inline poll loop all take this one step, so each
// makes the same push-counter updates — FIFO tie-breaking is global, and one
// extra push would renumber every later tie.
//
// The yield may be elided — the enqueue-and-dispatch step skipped entirely —
// because exactly one goroutine runs at a time, so the run queue is quiescent,
// and if the queue's head — the earliest resume time of any runnable
// processor, or maxTime with none — is strictly after t the dispatch loop
// would pop the yielder's own entry and hand the baton straight back. Ties are
// not elidable: FIFO order among equal times would run the already queued
// processor first. An elided yield still takes its push stamp, so the counter
// reads the same with elision on and off: FIFO order only compares stamps,
// but a tie-flipping schedule hashes them (runQueue.key).
func (e *Engine) yieldAt(q *Proc, t Time) (elided bool) {
	q.lastYield = q.now
	q.requiet()
	return e.requeue(q, t)
}

// requeue is yieldAt short of the quiet deadline, for the inline poll loop:
// the deadline of a processor parked in PollWait is read by nothing but
// Deliver's minimum, so pollInline re-derives it once, when the poll reports
// done, from the lastYield of the last re-queue.
func (e *Engine) requeue(q *Proc, t Time) (elided bool) {
	if !e.fastYield || t >= e.runq.headTime() {
		e.stamp(q, t)
		return false
	}
	e.pushCount++
	e.elided++
	if t > q.now {
		q.now = t
	}
	return true
}

// pollInline evaluates a parked processor's PollWait closure on the
// dispatching goroutine, exactly as PollWait's own loop would on the
// processor's: on (false, next) the processor is re-queued (or, when nothing
// else could run first, probed again) and no switch happened; on done the poll
// is cleared and the caller must resume the processor for real. A probe the
// poll's last failure promised (PromiseUntil) is the engine's own Backoff,
// counted and re-queued the same way. e.polling brackets each probe; a probe
// that panics leaves it set for dispatchNext's deferred handler.
func (e *Engine) pollInline(q *Proc) (resume bool) {
	for {
		e.polls++
		e.polling = true
		done, next := q.probe(q.poll)
		e.polling = false
		if done {
			q.poll = nil
			q.requiet()
			return true
		}
		if next < q.now {
			next = q.now
		}
		q.lastYield = q.now
		if !e.requeue(q, next) {
			return false
		}
	}
}

// dispatchNext is the one dispatch loop. It runs on whichever goroutine holds
// the baton: the dispatcher at the start of the run and after a body returns,
// or a yielding, polling or blocking processor (see Proc.pass).
//
// It pops the minimum run-queue entry and returns its processor, marked
// running with its clock at the entry's time. stamped, if not nil, is a
// yielder yieldAt stamped but did not push: its push is fused with the pop
// (runQueue.pushPop), one sift instead of two. Its stamp is still the push
// counter's latest, because nothing runs between yieldAt and here. A
// processor parked in PollWait has its poll evaluated inline and is returned
// only once the poll reports done; otherwise it was stamped again and the loop
// goes on with it. nil means nothing is runnable: the run is over, or
// deadlocked. A panic inside a poll (e.g. a spin-wait livelock bound) is
// recovered here, once per call rather than once per probe, and returned as
// the run's error.
func (e *Engine) dispatchNext(stamped *Proc) (q *Proc, err error) {
	defer func() {
		if !e.polling {
			return // not a poll's panic: let it propagate
		}
		e.polling = false
		if r := recover(); r != nil {
			q, err = nil, fmt.Errorf("sim: proc %d poll panicked: %v", q.ID, r)
		}
	}()
	for {
		switch {
		case stamped != nil:
			q = e.runq.pushPop(stamped, stamped.queuedAt, e.pushCount)
		case e.runq.len() > 0:
			q = e.runq.pop()
		default:
			return nil, nil
		}
		if q.queuedAt > q.now {
			q.now = q.queuedAt
		}
		q.state = stateRunning
		if q.poll == nil || e.pollInline(q) {
			return q, nil
		}
		stamped = q
	}
}

// dispatch runs the simulation to quiescence and reports a body's failure, if
// one ended it. The dispatcher only starts chains of baton passes: q.next()
// switches into q's coroutine, which runs until it parks and names its
// successor (Proc.pass), so the loop body is one half of every
// processor-to-processor switch and nothing else.
func (e *Engine) dispatch() error {
	q, err := e.dispatchNext(nil)
	for q != nil && err == nil {
		succ, parked := q.next()
		if parked {
			q = succ // nil: q found nothing runnable
			continue
		}
		// q's body returned or panicked (Proc.coroutine recorded which).
		if q.err != nil {
			return q.err
		}
		q, err = e.dispatchNext(nil)
	}
	return err
}

// runDispatcher executes dispatch on a goroutine of its own, the dispatcher,
// and turns its outcome into Run's verdict. The goroutine is there for one
// reason: a body that calls runtime.Goexit takes next's caller with it —
// iter.Pull re-raises the exit there — and that must not be Run's caller. The
// dying dispatcher reports the error the coroutine recorded on its way out.
// On every way out the coroutines still parked are unwound, so an aborted
// simulation leaks no goroutines.
func (e *Engine) runDispatcher() error {
	result := make(chan error, 1)
	go func() {
		exiting := true
		defer func() {
			if !exiting {
				return
			}
			err := fmt.Errorf("sim: dispatcher exited abnormally (runtime.Goexit)")
			for _, p := range e.procs {
				if p.err != nil {
					err = p.err
				}
			}
			result <- err
		}()
		err := e.dispatch()
		exiting = false
		result <- err
	}()
	err := <-result
	if err == nil && e.active != 0 {
		err = e.deadlockError()
	}
	// The dispatcher is gone, so every unfinished coroutine is parked in pass
	// (or was never started) and stop unwinds it; stopping a finished one is a
	// no-op.
	for _, p := range e.procs {
		if p.stop != nil {
			p.stop()
		}
	}
	return err
}
