package sim

import "fmt"

// Proc is one simulated processor. All of its methods must be called from the
// processor's own body function (the coroutine started by Run), except
// Deliver and WakeAt which are called from whichever processor currently
// holds the baton.
type Proc struct {
	// ID is the global processor id, 0..NumProcs-1, dense by node.
	ID int
	// Node is the SMP node the processor belongs to.
	Node int
	// CPU is the processor's index within its node.
	CPU int

	eng  *Engine
	body func(*Proc)

	// The processor is a coroutine (newCoro over coroutine, made at Run).
	// next, called by the dispatcher, switches into it until it parks in
	// pass and returns the successor it named there; yield is the coroutine's
	// side of that switch. stop unwinds a parked coroutine at teardown. err is
	// what ended the body abnormally, if anything did.
	next  func() (*Proc, bool)
	stop  func()
	yield func(*Proc) bool
	err   error

	now      Time
	state    procState
	queuedAt Time // resume time of the run-queue entry (state == stateQueued)
	qpos     int  // index of that entry in the run queue, -1 without one

	// wakeToken records that a WakeAt was issued and not yet consumed by a
	// Block. Tokens survive intervening Yields so that a wake issued while
	// the target is merely between scheduling points is not lost.
	wakeToken   bool
	wakeTokenAt Time

	blockReason string

	// poll, when non-nil, lets dispatchers evaluate this parked processor's
	// wait condition inline instead of resuming its coroutine (see PollWait).
	poll func() (bool, Time)

	inbox mailbox

	// lastYield tracks the clock at the most recent scheduler handoff so
	// that YieldIfQuantum can bound how far a processor runs ahead between
	// interaction points.
	lastYield Time

	// jstate is this processor's splitmix64 cost-jitter stream, seeded at Run
	// from (schedule seed, proc ID) when a jittering schedule is committed.
	// Advanced only by the owning goroutine, in program order. jitterK is the
	// schedule's cost-jitter fraction quantized to 1/1024ths (zero: no
	// jitter), set by SetSchedule; it lives here so Advance tests it without
	// leaving the Proc.
	jstate  uint64
	jitterK int64
}

// Engine returns the engine this processor belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the processor's virtual clock in nanoseconds.
func (p *Proc) Now() Time { return p.now }

// Advance adds d nanoseconds of local work to the processor's clock. It never
// yields; callers that can tolerate a scheduling point should follow up with
// YieldIfQuantum. Kept small enough to inline into every charging call site:
// the rare cases live in advanceSlow.
func (p *Proc) Advance(d Time) {
	if d < 0 || p.jitterK != 0 {
		d = p.advanceSlow(d)
	}
	p.now += d
}

// advanceSlow rejects a negative duration and applies cost jitter. Under a
// cost-jittering schedule (SetSchedule) the charged duration is inflated by a
// seed-derived amount in [0, d*CostJitter]: never shrunk, never past the
// declared fraction, so every jittered cost stays within the range the model
// layer declared legal. Integer arithmetic only; the intermediate product
// bounds d below ~100 virtual days per call, far past any real charge.
func (p *Proc) advanceSlow(d Time) Time {
	if d < 0 {
		panic(fmt.Sprintf("sim: proc %d Advance(%d): negative duration", p.ID, d))
	}
	if d > 0 {
		u := int64(jitterNext(&p.jstate) & 1023)
		d += (d * u / 1024) * p.jitterK / 1024
	}
	return d
}

// AdvanceTo moves the clock forward to t if t is in the future; it is a no-op
// otherwise.
func (p *Proc) AdvanceTo(t Time) {
	if t > p.now {
		p.now = t
	}
}

// stopped is the panic value that unwinds a parked coroutine when the engine
// stops it at teardown.
type stopped struct{}

// coroutine is the function newCoro runs: the body, plus the bookkeeping for
// every way it can end. A return or a panic marks the processor done and
// leaves err for the dispatcher, whose next() returns false. runtime.Goexit
// (e.g. t.Fatalf in a test body) cannot be stopped here: the deferred function
// records it and iter.Pull then ends the dispatcher too (see Engine.runDispatcher).
func (p *Proc) coroutine(yield func(*Proc) bool) {
	p.yield = yield
	returned := false
	defer func() {
		r := recover()
		if _, ok := r.(stopped); ok {
			return // engine teardown unwound us; nobody is listening
		}
		p.state = stateDone
		p.eng.active--
		if r != nil {
			p.err = fmt.Errorf("sim: proc %d panicked: %v", p.ID, r)
		} else if !returned {
			p.err = fmt.Errorf("sim: proc %d exited abnormally (runtime.Goexit)", p.ID)
		}
	}()
	p.body(p)
	returned = true
}

// pass is the processor's side of every baton pass. p has already stamped
// itself queued (yield, poll: stamped is p, and dispatchNext pushes it) or
// marked itself blocked (stamped is nil); it now runs the dispatch loop itself
// and, if the successor is another processor, parks by yielding that
// processor to the dispatcher, whose next() on it completes the switch: two
// coroutine switches and no trip through the Go scheduler. If p's own entry
// comes straight back (nothing else was due first, or an inline poll's
// delivery woke a blocker) there is no switch at all. With nothing runnable p
// yields nil, which ends the run as a deadlock. A panicking inline poll aborts
// the run through this body's panic path.
func (p *Proc) pass(stamped *Proc) {
	q, err := p.eng.dispatchNext(stamped)
	if err != nil {
		panic(err)
	}
	if q == p {
		return
	}
	if q != nil {
		p.eng.handoffs++
	}
	if !p.yield(q) {
		panic(stopped{})
	}
}

// Yield hands the baton back to the scheduler and resumes when this processor
// once again has the minimum clock among runnable processors. Every globally
// visible action must be preceded by a Yield (directly or via Block) so that
// cross-processor interactions happen in virtual-time order.
func (p *Proc) Yield() { p.yieldUntil(p.now) }

// YieldUntil parks the processor until virtual time t, resuming earlier if
// another processor issues a WakeAt with an earlier time (message delivery
// does this). Unlike SleepUntil, the clock is not advanced up front, so an
// early wake resumes with the clock unchanged.
func (p *Proc) YieldUntil(t Time) {
	if t < p.now {
		t = p.now
	}
	p.yieldUntil(t)
}

func (p *Proc) yieldUntil(t Time) {
	if p.eng.polling {
		panic(fmt.Sprintf("sim: proc %d yielded inside a dispatcher-run poll (PollWait closures must not yield)", p.ID))
	}
	// When yieldAt elides, the scheduler would have handed the baton straight
	// back, so it made exactly the state updates the round-trip would have —
	// quantum origin reset, clock advanced to the resume time — and p keeps
	// running. Bit-exact with parking: no other processor could have run in
	// between.
	if !p.eng.yieldAt(p, t) {
		p.pass(p)
	}
}

// PollWait repeatedly evaluates poll until it reports done. A poll returning
// (false, next) means "re-evaluate me at virtual time next"; the processor's
// clock is expected to already be at next (polls advance it themselves, like
// a spin loop's backoff sleep).
//
// This is the scheduling primitive behind spin waits. Its value over a plain
// sleep-yield loop is host cost: when the processor parks, the poll closure
// is registered with the scheduler, and whichever goroutine dispatches the
// processor's queue entry — a peer passing the baton or the dispatcher —
// evaluates the poll inline, re-queueing on false without ever switching to
// this coroutine. The processor is only resumed when the poll reports done. A
// contended spin that used to cost two switches per probe costs zero. This is
// bit-exact with the yield loop: the closure runs at exactly the same virtual
// times, in the same global order, with the same effects — only the host
// goroutine executing it differs. With the fast paths pinned off
// (SIM_NO_FASTPATH) the poll is not registered and every probe runs here.
//
// A wait may span several spins and sleeps: its poll is then a resumable step
// function over the whole wait that returns (false, now) at exactly the
// straight-line code's scheduling points — a failed probe after its backoff,
// a sleep after moving the clock — and calls nothing that yields or blocks in
// between. Each return is the one scheduling step the Yield or Sleep it
// replaces would have made, so the argument above carries over unchanged, and
// the coroutine is resumed once for the whole wait (Cashmere's lock acquire
// is the worked example; DESIGN.md §3a item 4).
//
// The contract is that poll must not yield, block, park, or otherwise touch
// the scheduler (delivering messages and waking other processors is fine) —
// it runs on a goroutine that already holds a baton mid-dispatch. Violations
// panic. Polls also must not close over goroutine identity (goroutine-local
// state, testing.T.Helper, ...).
func (p *Proc) PollWait(poll func() (done bool, next Time)) {
	for {
		done, next := poll()
		if done {
			return
		}
		if next < p.now {
			next = p.now
		}
		if p.eng.yieldAt(p, next) {
			continue // nothing else can run before next: probe again
		}
		if p.eng.fastYield {
			p.poll = poll
			p.pass(p)
			return // resumed only once a dispatcher saw the poll report done
		}
		p.pass(p)
	}
}

// YieldIfQuantum yields only if the processor has run more than quantum
// nanoseconds since its last scheduling point. Long local computations call
// this periodically so that their clock does not race arbitrarily far ahead
// of processors that might want to interact with them.
func (p *Proc) YieldIfQuantum(quantum Time) {
	if p.now-p.lastYield >= quantum {
		p.Yield()
	}
}

// CheckpointQuiet reports whether a poll-and-yield checkpoint would be a
// no-op at the current clock: no message is visible in the inbox and the
// processor is still within its quantum. Hot access paths consult this
// before paying for the full checkpoint; the answer is exact, not heuristic,
// so skipping on true cannot change any virtual-time result.
func (p *Proc) CheckpointQuiet(quantum Time) bool {
	return (len(p.inbox.msgs) == 0 || p.inbox.msgs[0].At > p.now) &&
		p.now-p.lastYield < quantum
}

// Block parks the processor until another processor calls WakeAt (or until a
// message is delivered by code that wakes it). The reason string appears in
// deadlock reports. If an unconsumed wake is outstanding (issued at any point
// since the last Block returned), it is consumed immediately and the
// processor does not park. Callers must therefore treat Block as a condition
// variable wait: re-check the condition in a loop.
func (p *Proc) Block(reason string) {
	if p.eng.polling {
		panic(fmt.Sprintf("sim: proc %d blocked inside a dispatcher-run poll (PollWait closures must not block)", p.ID))
	}
	if p.wakeToken {
		p.wakeToken = false
		p.AdvanceTo(p.wakeTokenAt)
		return
	}
	p.blockReason = reason
	p.lastYield = p.now
	// p must be marked blocked before pass dispatches anything: an inline poll
	// evaluated there may deliver a message to p, and the resulting wake only
	// re-queues a processor it observes as parked. If that happens p's own
	// entry surfaces in the queue and pass returns at once with p running —
	// exactly as if the wake had arrived after p parked.
	p.state = stateBlocked
	p.pass(nil)
	p.blockReason = ""
	p.wakeToken = false // the wake that resumed us is consumed
}

// WakeAt makes the target processor runnable no earlier than virtual time t
// and deposits a wake token consumed by the target's next Block. If the target
// is blocked it is queued to resume at max(its clock, t). If it is already
// queued with a later resume time, the earlier time wins. It must be called by
// the processor currently holding the baton (or before Run).
func (e *Engine) WakeAt(target *Proc, t Time) {
	if !target.wakeToken || t < target.wakeTokenAt {
		target.wakeToken = true
		target.wakeTokenAt = t
	}
	switch target.state {
	case stateBlocked:
		e.enqueue(target, t)
	case stateQueued:
		if t < target.queuedAt {
			e.enqueue(target, t)
		}
	}
}

// SleepUntil advances the processor's clock to virtual time t and yields, so
// that any processor with an earlier clock runs first. If t is not in the
// future it returns immediately without yielding.
func (p *Proc) SleepUntil(t Time) {
	if t <= p.now {
		return
	}
	p.now = t
	p.Yield()
}

// Sleep blocks the processor for d nanoseconds of virtual time.
func (p *Proc) Sleep(d Time) { p.SleepUntil(p.now + d) }
