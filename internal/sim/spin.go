package sim

// Spin is the part of a spin loop that follows a failed probe: the livelock
// deadline and the exponential backoff step. The layers above own one per
// wait (internal/core wraps it with the wait's name and the livelock panic);
// the step itself, Backoff, lives here so that a dispatcher running a
// promised probe (PromiseUntil, PromiseWhile) takes it through the same code
// as the poll that made the promise.
type Spin struct {
	// Deadline is the clock past which the wait is a livelock: its owner
	// panics on a failed probe after it, so no promise covers such a probe.
	Deadline Time
	step     Time
}

// The backoff step starts at spinStepMin and doubles after every failed
// probe while it is below spinStepMax, so its largest value is 32 µs.
const (
	spinStepMin = 500 * Nanosecond
	spinStepMax = 20 * Microsecond
)

// StartSpin returns a spin with the given livelock deadline and its backoff
// step at the minimum.
func StartSpin(deadline Time) Spin { return Spin{Deadline: deadline, step: spinStepMin} }

// Backoff is the step after a failed probe of s: it advances p's clock by the
// backoff step (a cost, so it is cost-jittered), doubles the step up to its
// bound and returns the clock, which is when the next probe is due. A
// PollWait poll returns (false, p.Backoff(s)).
func (p *Proc) Backoff(s *Spin) Time {
	p.Advance(s.step)
	if s.step < spinStepMax {
		s.step *= 2
	}
	return p.now
}

// promise is what a poll's last failed probe promised about the ones after
// it (PromiseUntil, PromiseWhile). spin is nil when there is no promise.
type promise struct {
	spin  *Spin
	until Time
	flag  *bool
}

// PromiseUntil is called by a PollWait poll that is about to return
// (false, p.Backoff(s)) after a failed probe. It promises that every further
// probe of the wait at a clock before t would fail the same way — do nothing
// but service the visible messages, check s's deadline and take s's backoff
// step — as long as nothing but the clock changes. Until the promise is void
// the engine takes those probes itself, Backoff included, without calling the
// poll. A promise is void, and the next probe is the poll's, once the clock
// reaches t, a message is visible, or the clock is past s.Deadline; every
// poll call drops it, so a poll that does not renew it has none. With the
// fast paths off (SIM_NO_FASTPATH) no promise is kept and every probe is the
// poll's.
func (p *Proc) PromiseUntil(s *Spin, t Time) {
	if p.eng.fastYield {
		p.promise = promise{spin: s, until: t}
	}
}

// PromiseWhile is PromiseUntil for a wait on a flag: every further probe
// while *flag is true would fail. The engine reads the flag where the probe
// falls in the global order, as the poll would.
func (p *Proc) PromiseWhile(s *Spin, flag *bool) {
	if p.eng.fastYield {
		p.promise = promise{spin: s, until: maxTime, flag: flag}
	}
}

// probe is one probe of p's PollWait, on whichever goroutine runs it: the
// promised backoff while p holds a promise that stands, else the poll itself,
// with the promise dropped first.
func (p *Proc) probe(poll func() (bool, Time)) (done bool, next Time) {
	if pr := &p.promise; pr.spin != nil {
		if p.now < pr.until && p.now <= pr.spin.Deadline && (pr.flag == nil || *pr.flag) && !p.InboxVisible() {
			return false, p.Backoff(pr.spin)
		}
		pr.spin = nil
	}
	return poll()
}
