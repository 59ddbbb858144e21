package sim

import (
	"fmt"
	"runtime"
)

// Proc is one simulated processor. All of its methods must be called from the
// processor's own body function (the goroutine started by Run), except
// Deliver and WakeAt which are called from whichever processor currently
// holds the baton.
type Proc struct {
	// ID is the global processor id, 0..NumProcs-1, dense by node.
	ID int
	// Node is the SMP node the processor belongs to.
	Node int
	// CPU is the processor's index within its node.
	CPU int

	eng    *Engine
	dom    *domain
	body   func(*Proc)
	resume chan struct{}

	now      Time
	state    procState
	queueSeq uint64 // validity stamp for run-queue entries
	queuedAt Time   // resume time of the live run-queue entry (state == stateQueued)

	// wakeToken records that a WakeAt was issued and not yet consumed by a
	// Block. Tokens survive intervening Yields so that a wake issued while
	// the target is merely between scheduling points is not lost.
	wakeToken   bool
	wakeTokenAt Time

	blockReason string

	// killed is set by the engine when a failed Run unwinds parked
	// goroutines; the next resume exits via runtime.Goexit.
	killed bool

	// poll, when non-nil, lets dispatchers evaluate this parked processor's
	// wait condition inline instead of resuming its goroutine (see PollWait).
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

func (p *Proc) run() {
	<-p.resume // wait for the first dispatch
	if p.killed {
		return // engine teardown before the body ever ran
	}
	done := false
	defer func() {
		r := recover()
		if p.killed {
			// Engine teardown unwound us mid-yield; nobody is listening on
			// the reports channel any more.
			return
		}
		if r != nil {
			p.dom.reports <- report{p: p, kind: reportPanic, err: fmt.Errorf("sim: proc %d panicked: %v", p.ID, r)}
			return
		}
		if !done {
			// The body exited via runtime.Goexit (e.g. t.Fatalf in a test
			// body). Report it so the engine does not hang.
			p.dom.reports <- report{p: p, kind: reportPanic, err: fmt.Errorf("sim: proc %d exited abnormally (runtime.Goexit)", p.ID)}
		}
	}()
	p.body(p)
	done = true
	p.dom.reports <- report{p: p, kind: reportDone}
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

// dsmvet:dispatch — runs on the yielding processor's goroutine, which holds
// the baton.
func (p *Proc) yieldUntil(t Time) {
	if p.dom.polling {
		panic(fmt.Sprintf("sim: proc %d yielded inside a dispatcher-run poll (PollWait closures must not yield)", p.ID))
	}
	if p.dom.canElide(t) {
		// Fast path: the scheduler would hand the baton straight back, so
		// perform exactly the state updates the round-trip would have made —
		// reset the quantum origin and advance the clock to the resume time —
		// and keep running. Bit-exact with the slow path: no other processor
		// could have run in between.
		p.dom.elided++
		p.lastYield = p.now
		if t > p.now {
			p.now = t
		}
		return
	}
	p.lastYield = p.now
	if p.eng.fastYield && p.dom.handoff(p, t) {
		// Baton passed (or bounced straight back) without waking the dispatcher.
		if p.killed {
			runtime.Goexit()
		}
		return
	}
	p.queuedAt = t
	p.dom.reports <- report{p: p, kind: reportYield, at: t}
	<-p.resume
	if p.killed {
		runtime.Goexit()
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
// processor's queue entry — a peer's direct handoff or the domain worker —
// evaluates the poll inline, re-queueing on false without ever switching to
// this goroutine. The processor's goroutine is only resumed when the poll
// reports done. A contended spin that used to cost two goroutine switches
// per probe costs zero. This is bit-exact with the yield loop: the closure
// runs at exactly the same virtual times, in the same global order, with the
// same effects — only the host goroutine executing it differs.
//
// dsmvet:dispatch — runs on the polling processor's goroutine, which holds
// the baton at every touch of domain state.
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
		if p.dom.canElide(next) {
			// Nothing else can run before next: skip the park entirely,
			// exactly as an elided yield would.
			p.dom.elided++
			p.lastYield = p.now
			if next > p.now {
				p.now = next
			}
			continue
		}
		p.lastYield = p.now
		if !p.eng.fastYield {
			// Slow path pinned (SIM_NO_FASTPATH): behave exactly like a
			// sleep-yield loop, evaluating every poll on this goroutine.
			p.queuedAt = next
			p.dom.reports <- report{p: p, kind: reportYield, at: next}
			<-p.resume
			if p.killed {
				runtime.Goexit()
			}
			continue
		}
		p.poll = poll
		if p.dom.handoff(p, next) {
			if p.killed {
				runtime.Goexit()
			}
			if p.poll == nil {
				return // a dispatcher saw the poll report done and resumed us
			}
			p.poll = nil // own entry bounced straight back: keep polling here
			continue
		}
		// No successor inside the window: report to the worker, which will
		// evaluate the poll inline from its dispatch loop.
		p.queuedAt = next
		p.dom.reports <- report{p: p, kind: reportYield, at: next}
		<-p.resume
		if p.killed {
			runtime.Goexit()
		}
		if p.poll == nil {
			return
		}
		p.poll = nil
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

// dsmvet:dispatch — runs on the blocking processor's goroutine, which holds
// the baton.
//
// Block parks the processor until another processor calls WakeAt (or until a
// message is delivered by code that wakes it). The reason string appears in
// deadlock reports. If an unconsumed wake is outstanding (issued at any point
// since the last Block returned), it is consumed immediately and the
// processor does not park. Callers must therefore treat Block as a condition
// variable wait: re-check the condition in a loop.
func (p *Proc) Block(reason string) {
	if p.dom.polling {
		panic(fmt.Sprintf("sim: proc %d blocked inside a dispatcher-run poll (PollWait closures must not block)", p.ID))
	}
	if p.wakeToken {
		p.wakeToken = false
		p.AdvanceTo(p.wakeTokenAt)
		return
	}
	p.blockReason = reason
	p.lastYield = p.now
	if p.eng.fastYield && p.dom.dispatchBlocked(p) {
		// Baton passed directly; a WakeAt re-queued us and a dispatcher
		// (worker or peer) handed it back.
	} else {
		kind := reportBlock
		if p.state == stateQueued {
			// An inline poll's delivery woke us while dispatchBlocked was
			// looking for a successor, but our entry lies past the window
			// horizon: park as queued, not blocked, so the entry stays live.
			kind = reportParked
		}
		p.dom.reports <- report{p: p, kind: kind}
		<-p.resume
	}
	if p.killed {
		runtime.Goexit()
	}
	p.blockReason = ""
	p.wakeToken = false // the wake that resumed us is consumed
}

// wakeLocal makes the target processor runnable no earlier than virtual time
// t in its own domain and deposits a wake token consumed by the target's next
// Block. If the target is blocked it is queued to resume at max(its clock,
// t). If it is already queued with a later resume time, the earlier time
// wins. Must only run while the target's domain is quiescent for the caller:
// by the domain's own baton holder, or by the coordinator between windows.
func wakeLocal(target *Proc, t Time) {
	if !target.wakeToken || t < target.wakeTokenAt {
		target.wakeToken = true
		target.wakeTokenAt = t
	}
	switch target.state {
	case stateBlocked:
		target.dom.enqueue(target, t)
	case stateQueued:
		if t < target.queuedAt {
			// Supersede the stale entry: pushing with a fresh sequence stamp
			// invalidates the old one, which is skipped when popped.
			target.dom.enqueue(target, t)
		}
	}
}

// WakeAt makes the target processor runnable no earlier than virtual time t.
// It must be called by the processor currently holding the baton (or by the
// engine before Run). In parallel mode the engine cannot tell which domain
// the calling goroutine belongs to, so this form is only legal sequentially;
// use Proc.WakeAt, which names the caller, instead.
func (e *Engine) WakeAt(target *Proc, t Time) {
	if e.parallelActive {
		panic("sim: Engine.WakeAt is ambiguous in parallel mode; use the caller's Proc.WakeAt")
	}
	wakeLocal(target, t)
}

// WakeAt makes target runnable no earlier than virtual time t, with p — the
// processor currently holding its domain's baton — as the caller. Within a
// domain (or a sequential engine) this is the plain wake. Across domains the
// wake is staged and applied by the coordinator at the next window boundary;
// t must then be at least the engine's lookahead past p's clock.
func (p *Proc) WakeAt(target *Proc, t Time) {
	if !p.eng.parallelActive || target.dom == p.dom {
		wakeLocal(target, t)
		return
	}
	p.eng.checkLookahead(p, t)
	target.dom.stage(crossEvent{kind: crossWake, target: target.ID, at: t, from: p.dom.id})
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
