package sim

import (
	"fmt"
	"math"
)

// maxTime is the "never" sentinel: the head time of an empty run queue.
const maxTime = Time(math.MaxInt64)

// enqueue makes target runnable at virtual time t. A target that is already
// queued is moved, and t must be earlier than its current resume time (WakeAt
// checks). Either way the push takes a fresh stamp from the push counter,
// which is the FIFO tie-break.
func (e *Engine) enqueue(target *Proc, t Time) {
	target.state = stateQueued
	target.queuedAt = t
	e.pushCount++
	e.runq.push(target, t, e.pushCount)
}

// yieldAt performs the scheduling step of "q yields until t" short of the
// switch: it resets q's quantum origin, then either elides the yield (true: q
// keeps the baton with its clock advanced to t) or queues q to resume at t
// (false: the caller must dispatch a successor). Yield, PollWait and the
// inline poll loop all take this one step, so each makes the same push-counter
// updates — FIFO tie-breaking is global, and one extra push would renumber
// every later tie.
//
// The yield may be elided — the enqueue-and-dispatch step skipped entirely —
// because exactly one goroutine runs at a time, so the run queue is quiescent,
// and if the queue's head — the earliest resume time of any runnable
// processor, or maxTime with none — is strictly after t the dispatch loop
// would pop the yielder's own entry and hand the baton straight back. Ties are
// not elidable: FIFO order among equal times would run the already queued
// processor first.
func (e *Engine) yieldAt(q *Proc, t Time) (elided bool) {
	q.lastYield = q.now
	if !e.fastYield || t >= e.runq.headTime() {
		e.enqueue(q, t)
		return false
	}
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
// is cleared and the caller must resume the processor for real. e.polling
// brackets each probe; a probe that panics leaves it set for dispatchNext's
// deferred handler.
func (e *Engine) pollInline(q *Proc) (resume bool) {
	for {
		e.polls++
		e.polling = true
		done, next := q.poll()
		e.polling = false
		if done {
			q.poll = nil
			return true
		}
		if next < q.now {
			next = q.now
		}
		if !e.yieldAt(q, next) {
			return false
		}
	}
}

// dispatchNext is the one dispatch loop. It runs on whichever goroutine holds
// the baton: the dispatcher at the start of the run and after a body returns,
// or a yielding, polling or blocking processor (see Proc.pass).
//
// It pops the minimum run-queue entry and returns its processor, marked
// running with its clock at the entry's time. A processor parked in PollWait
// has its poll evaluated inline and is returned only once the poll reports
// done; otherwise it was re-queued and the loop goes on. nil means nothing is
// runnable: the run is over, or deadlocked. A panic inside a poll (e.g. a
// spin-wait livelock bound) is recovered here, once per call rather than once
// per probe, and returned as the run's error.
func (e *Engine) dispatchNext() (q *Proc, err error) {
	defer func() {
		if !e.polling {
			return // not a poll's panic: let it propagate
		}
		e.polling = false
		if r := recover(); r != nil {
			q, err = nil, fmt.Errorf("sim: proc %d poll panicked: %v", q.ID, r)
		}
	}()
	for e.runq.headTime() < maxTime { // false when the queue is empty
		q = e.runq.pop()
		if q.queuedAt > q.now {
			q.now = q.queuedAt
		}
		q.state = stateRunning
		if q.poll == nil || e.pollInline(q) {
			return q, nil
		}
	}
	return nil, nil
}

// dispatch runs the simulation to quiescence and reports a body's failure, if
// one ended it. The dispatcher only starts chains of baton passes: q.next()
// switches into q's coroutine, which runs until it parks and names its
// successor (Proc.pass), so the loop body is one half of every
// processor-to-processor switch and nothing else.
func (e *Engine) dispatch() error {
	q, err := e.dispatchNext()
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
		q, err = e.dispatchNext()
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
