package sim

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// maxTime is the "no horizon" sentinel: a sequential domain executes as if
// its window never closes.
const maxTime = Time(math.MaxInt64)

// ParallelEnv is the environment variable that, when set to any non-empty
// value, makes engines default to node-parallel execution (the default can
// still be overridden per engine with SetParallel). Parallel execution only
// engages when the engine also has a positive cross-domain lookahead declared
// via SetLookahead and more than one node; otherwise the engine silently runs
// sequentially, so setting the variable is always safe.
const ParallelEnv = "SIM_PARALLEL"

// crossKind tags a staged cross-domain event.
type crossKind uint8

const (
	crossDeliver crossKind = iota
	crossWake
)

// crossEvent is one cross-domain interaction staged during a window and
// applied by the coordinator between windows.
type crossEvent struct {
	kind   crossKind
	target int // destination proc id
	at     Time
	from   int // sender domain id (deterministic ordering + tie detection)
	msg    Msg // crossDeliver only
}

// domain is one sequential scheduling region of the engine: a set of
// processors that share a run queue and execute under the baton-passing
// discipline, driven by one host worker goroutine. The run queue holds exactly
// one entry for every queued processor and none for any other, so its head is
// always the next event. A sequential engine has exactly one domain holding
// every processor; a parallel engine has one domain per simulated node.
//
// All of a domain's scheduling state (runq, pushCount, msgSeq, counters) is
// touched only by the goroutine currently holding the domain's baton — the
// worker or one of the domain's processor coroutines — with every transfer of
// control being a coroutine switch (which orders the two sides, so no locks
// are needed and the race detector can verify the discipline). The single
// exception is `in`, the staging buffer for events arriving from other
// domains, which has its own mutex and is drained only by the coordinator
// between windows.
//
// The confinement contract is machine-checked: every field below marked
// dsmvet:domain-confined may only be touched by functions annotated
// dsmvet:dispatch (see internal/analysis and DESIGN.md "Machine-checked
// invariants"), which are exactly the paths that hold the baton or run while
// the domain is provably quiescent.
type domain struct {
	eng *Engine
	id  int

	procs []*Proc
	runq  runQueue // dsmvet:domain-confined

	pushCount uint64 // dsmvet:domain-confined — run-queue push counter for FIFO tie-breaking
	msgSeq    uint64 // dsmvet:domain-confined — per-domain message sequence counter

	// windowH is the exclusive horizon of the current window: the domain may
	// only execute events with virtual time strictly below it. Sequential
	// domains keep it at maxTime.
	// dsmvet:domain-confined
	windowH Time

	active int // dsmvet:domain-confined — processors with bodies not yet done

	// polling is set while a dispatcher evaluates a parked processor's
	// PollWait closure inline; yields and blocks panic during it, enforcing
	// the PollWait contract.
	// dsmvet:domain-confined
	polling bool

	elided   uint64 // dsmvet:domain-confined
	handoffs uint64 // dsmvet:domain-confined
	polls    uint64 // dsmvet:domain-confined — PollWait closures evaluated inline by a dispatcher

	// in stages events sent to this domain by baton holders of other
	// domains during a window. Senders append under mu; the coordinator
	// drains between windows, when no window is executing.
	in struct {
		mu  sync.Mutex
		evs []crossEvent
	}

	// windowCh delivers the next window horizon to the worker; resultCh
	// returns nil or the first panic of the window.
	windowCh chan Time
	resultCh chan error
}

// dsmvet:dispatch — constructor; the domain is not yet visible to any
// other goroutine.
func newDomain(e *Engine, id int) *domain {
	return &domain{eng: e, id: id, windowH: maxTime}
}

// dsmvet:dispatch — called only by the domain's current baton holder.
//
// nextMsgSeq hands out message sequence numbers that are unique across the
// whole engine yet assigned without cross-domain coordination: the sequence
// space is striped by domain id. With a single domain the values are exactly
// the sequential engine's 1, 2, 3, ...
func (d *domain) nextMsgSeq() uint64 {
	s := d.msgSeq*uint64(len(d.eng.domains)) + uint64(d.id) + 1
	d.msgSeq++
	return s
}

// dsmvet:dispatch — called by the baton holder (yields, wakes) or by the
// coordinator between windows (cross-domain drain), when no window runs.
//
// enqueue makes target runnable at virtual time t in this domain's queue. A
// target that is already queued is moved, and t must be earlier than its
// current resume time (wakeLocal checks). Either way the push takes a fresh
// stamp from the push counter, which is the FIFO tie-break.
func (d *domain) enqueue(target *Proc, t Time) {
	target.state = stateQueued
	target.queuedAt = t
	d.pushCount++
	d.runq.push(target, t, d.pushCount)
}

// dsmvet:dispatch — called by the baton holder: a yielding or polling
// processor, or a dispatcher evaluating a parked processor's poll inline.
//
// yieldAt performs the scheduling step of "q yields until t" short of the
// switch: it resets q's quantum origin, then either elides the yield (true: q
// keeps the baton with its clock advanced to t) or queues q to resume at t
// (false: the caller must dispatch a successor). Yield, PollWait and the
// inline poll loop all take this one step, so each makes the same push-counter
// updates — FIFO tie-breaking is global, and one extra push would renumber
// every later tie.
//
// The yield may be elided — the enqueue-and-dispatch step skipped entirely —
// because exactly one goroutine runs at a time within the domain, so the run
// queue is quiescent, and if the queue's head — the earliest resume time of
// any runnable processor, or maxTime with none — is strictly after t the
// dispatch loop would pop the yielder's own entry and hand the baton straight
// back. Ties are not elidable: FIFO order among equal times would run the
// already queued processor first. Under a parallel window the resume time must
// also stay inside the horizon — at or past it, other domains may still
// produce earlier events, so the yielder must genuinely park.
func (d *domain) yieldAt(q *Proc, t Time) (elided bool) {
	q.lastYield = q.now
	if !d.eng.fastYield || t >= d.windowH || t >= d.runq.headTime() {
		d.enqueue(q, t)
		return false
	}
	d.elided++
	if t > q.now {
		q.now = t
	}
	return true
}

// dsmvet:dispatch — runs on the dispatching goroutine, which holds the baton.
//
// pollInline evaluates a parked processor's PollWait closure on the
// dispatching goroutine, exactly as PollWait's own loop would on the
// processor's: on (false, next) the processor is re-queued (or, when nothing
// else could run first, probed again) and no switch happened; on done the poll
// is cleared and the caller must resume the processor for real. d.polling
// brackets each probe; a probe that panics leaves it set for dispatchNext's
// deferred handler.
func (d *domain) pollInline(q *Proc) (resume bool) {
	for {
		d.polls++
		d.polling = true
		done, next := q.poll()
		d.polling = false
		if done {
			q.poll = nil
			return true
		}
		if next < q.now {
			next = q.now
		}
		if !d.yieldAt(q, next) {
			return false
		}
	}
}

// dsmvet:dispatch — the one dispatch loop. It runs on whichever goroutine
// holds the baton: the worker at the start of a window and after a body
// returns, or a yielding, polling or blocking processor (see Proc.pass).
//
// dispatchNext pops the minimum run-queue entry inside the window horizon and
// returns its processor, marked running with its clock at the entry's time. A
// processor parked in PollWait has its poll evaluated inline and is returned
// only once the poll reports done; otherwise it was re-queued and the loop
// goes on. nil means nothing may run before the horizon: the window closes. A
// panic inside a poll (e.g. a spin-wait livelock bound) is recovered here,
// once per call rather than once per probe, and returned as the run's error.
func (d *domain) dispatchNext() (q *Proc, err error) {
	defer func() {
		if !d.polling {
			return // not a poll's panic: let it propagate
		}
		d.polling = false
		if r := recover(); r != nil {
			q, err = nil, fmt.Errorf("sim: proc %d poll panicked: %v", q.ID, r)
		}
	}()
	for d.runq.headTime() < d.windowH { // maxTime, so false, when the queue is empty
		q = d.runq.pop()
		if q.queuedAt > q.now {
			q.now = q.queuedAt
		}
		q.state = stateRunning
		if q.poll == nil || d.pollInline(q) {
			return q, nil
		}
	}
	return nil, nil
}

// dsmvet:dispatch — the worker's side of the baton; it holds it whenever no
// processor coroutine does.
//
// window runs the domain until the next runnable event lies at or past
// horizon (exclusive), the queue drains, or a processor panics. The worker
// only starts a chain of baton passes: q.next() switches into q's coroutine,
// which runs until it parks and names its successor (Proc.pass), so the loop
// body is one half of every processor-to-processor switch and nothing else.
// With horizon == maxTime this is exactly the sequential engine loop.
func (d *domain) window(horizon Time) error {
	d.windowH = horizon
	q, err := d.dispatchNext()
	for q != nil && err == nil {
		succ, parked := q.next()
		if parked {
			q = succ // nil: q found nothing runnable inside the horizon
			continue
		}
		// q's body returned or panicked (Proc.coroutine recorded which).
		if q.err != nil {
			return q.err
		}
		q, err = d.dispatchNext()
	}
	return err
}

// worker is the per-domain host goroutine: it executes one window per command
// and reports the window's outcome. The coordinator closes windowCh to shut it
// down. A body that calls runtime.Goexit takes this goroutine with it —
// iter.Pull re-raises the exit in next's caller — so the dying worker reports
// the error the coroutine recorded on its way out.
func (d *domain) worker() {
	exiting := true
	defer func() {
		if !exiting {
			return
		}
		err := fmt.Errorf("sim: domain %d dispatcher exited abnormally (runtime.Goexit)", d.id)
		for _, p := range d.procs {
			if p.err != nil {
				err = p.err
			}
		}
		d.resultCh <- err
	}()
	for horizon := range d.windowCh {
		d.resultCh <- d.window(horizon)
	}
	exiting = false
}

// stage appends a cross-domain event for this (receiving) domain. Called by
// baton holders of other domains during a window.
func (d *domain) stage(ev crossEvent) {
	d.in.mu.Lock()
	d.in.evs = append(d.in.evs, ev)
	d.in.mu.Unlock()
}

// dsmvet:dispatch — the coordinator; it reads domain state only between
// windows, when every worker is parked on windowCh.
//
// coordinate executes the simulation with one worker per domain under the
// conservative window protocol:
//
//  1. Drain: apply every staged cross-domain event (deliveries and wakes) in
//     deterministic (time, seq) order. No window is executing, so the
//     coordinator owns all state.
//  2. Horizon: compute T, the minimum next-event time over all domains. If no
//     events remain the run is over (success if every processor finished,
//     deadlock otherwise). Otherwise the safe horizon is H = T + lookahead:
//     any event a domain executes before H happens strictly before the
//     earliest instant at which another domain's current or future work could
//     affect it, because every cross-domain interaction carries at least
//     `lookahead` of virtual latency.
//  3. Window: every worker executes its domain's events with time < H in
//     parallel, staging outbound cross-domain events. The coordinator waits
//     for all workers (this barrier is the null-message/horizon-refresh rule:
//     an idle domain's worker returns immediately, implicitly promising it
//     will produce nothing before H), then loops.
//
// A sequential engine is the degenerate case: one domain, nothing ever
// staged, and no horizon, so its single window runs until the queue drains.
// On every way out the coroutines still parked are unwound and the workers
// shut down, so an aborted simulation leaks no goroutines. See DESIGN.md §3b
// for the ordering proof.
func (e *Engine) coordinate() error {
	for _, d := range e.domains {
		d.windowCh = make(chan Time)
		d.resultCh = make(chan error)
		go d.worker()
	}
	defer func() {
		for _, d := range e.domains {
			close(d.windowCh)
		}
		// No window is executing, so every unfinished coroutine is parked in
		// pass (or was never started) and stop unwinds it; stopping a finished
		// one is a no-op.
		for _, p := range e.procs {
			if p.stop != nil {
				p.stop()
			}
		}
	}()

	var firstErr error
	for {
		e.drainCross()
		if firstErr != nil {
			return firstErr
		}
		T := maxTime
		active := 0
		for _, d := range e.domains {
			active += d.active
			if t := d.runq.headTime(); t < T {
				T = t
			}
		}
		if active == 0 {
			return nil
		}
		if T == maxTime {
			return e.deadlockError(active)
		}
		horizon := maxTime
		if e.parallelActive {
			e.rounds++
			if horizon = T + e.lookahead; horizon < T { // overflow
				horizon = maxTime
			}
		}
		for _, d := range e.domains {
			d.windowCh <- horizon
		}
		for _, d := range e.domains {
			if err := <-d.resultCh; err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
}

// drainCross applies all staged cross-domain events. Events are applied in
// (time, seq) order — a deterministic total order independent of which
// domains staged first — and every application uses the same code paths a
// local delivery would (mailbox insert + wake), so parallel delivery is
// bit-exact with sequential delivery whenever no two cross-domain messages
// target the same processor at the same virtual instant (CrossTies counts
// the exceptions; see DESIGN.md §3b).
func (e *Engine) drainCross() {
	var evs []crossEvent
	for _, d := range e.domains {
		d.in.mu.Lock()
		evs = append(evs, d.in.evs...)
		d.in.evs = d.in.evs[:0]
		d.in.mu.Unlock()
	}
	if len(evs) == 0 {
		return
	}
	sort.Slice(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.msg.Seq != b.msg.Seq {
			return a.msg.Seq < b.msg.Seq
		}
		if a.target != b.target {
			return a.target < b.target
		}
		return a.from < b.from
	})
	for i, ev := range evs {
		target := e.procs[ev.target]
		switch ev.kind {
		case crossDeliver:
			if i > 0 && evs[i-1].kind == crossDeliver && evs[i-1].target == ev.target &&
				evs[i-1].at == ev.at && evs[i-1].from != ev.from {
				// Two cross-domain messages for one processor at the same
				// instant from different domains: their relative order is
				// deterministic (sequence stripe) but may differ from the
				// sequential engine's global send order.
				e.crossTies++
			}
			target.inbox.insert(ev.msg)
			wakeLocal(target, ev.at)
		case crossWake:
			wakeLocal(target, ev.at)
		}
		e.crossEvents++
	}
}

// checkLookahead panics if a cross-domain interaction is scheduled closer
// than the declared lookahead: the conservative window protocol is only
// correct if every cross-domain effect carries at least `lookahead` of
// virtual latency, so a violation means the model layer's declared minimum
// (e.g. the interconnect's cross-node latency) does not match its behavior.
func (e *Engine) checkLookahead(sender *Proc, at Time) {
	if at < sender.now+e.lookahead {
		panic(fmt.Sprintf("sim: lookahead violation: proc %d (domain %d) at t=%d scheduled a cross-domain event at t=%d, closer than the declared lookahead %d",
			sender.ID, sender.dom.id, sender.now, at, e.lookahead))
	}
}
