package cashmere

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/vm"
)

// refLock is the §3.3.2 acquire written straight-line — three SpinWaits and a
// Sleep, each on the acquiring processor's own coroutine — over the same
// lockSpace words and flags as the production acquire. It is the reference
// lockSpace.acquire is tested against: the production code is this algorithm
// cut into a resumable step function, and must take every scheduling point at
// the same clock. The counters record which paths a script reached.
type refLock struct {
	ls    *lockSpace
	spins []refSpin // [rank]

	flagWaits, loopbackWaits, tournaments, dropOuts, maxAttempt int
}

type refSpin struct {
	r              *refLock
	p              *core.Proc
	id, node, base int
	won, waited    bool

	takeFlag, sawLoopback, outlasted func() bool
}

func newRefLock(ls *lockSpace) *refLock {
	r := &refLock{ls: ls, spins: make([]refSpin, len(ls.spins))}
	for i := range r.spins {
		s := &r.spins[i]
		s.r = r
		s.takeFlag, s.sawLoopback, s.outlasted = s.tryFlag, s.loopedBack, s.tournament
	}
	return r
}

func (s *refSpin) tryFlag() bool {
	flag := &s.r.ls.flags[s.id][s.node]
	if *flag {
		s.waited = true
		return false
	}
	*flag = true
	return true
}

func (s *refSpin) loopedBack() bool {
	if s.r.ls.words.Read(s.p.Sim(), s.base+s.node) == 1 {
		return true
	}
	s.waited = true
	return false
}

func (s *refSpin) tournament() bool {
	ls := s.r.ls
	anySet := false
	for n := 0; n < ls.nodes; n++ {
		if n == s.node || ls.words.Read(s.p.Sim(), s.base+n) == 0 {
			continue
		}
		if n < s.node {
			return true // lower contender appeared: drop out
		}
		anySet = true
	}
	s.won = !anySet
	return s.won
}

func (r *refLock) acquire(p *core.Proc, id int) {
	ls := r.ls
	node := p.Node()
	base := id * ls.nodes
	s := &r.spins[p.Rank()]
	s.p, s.id, s.node, s.base, s.won = p, id, node, base, false
	p.ChargeProtocol(p.Costs().LLSC)
	s.waited = false
	p.SpinWait("node lock flag", s.takeFlag)
	if s.waited {
		r.flagWaits++
	}
	for attempt := 1; ; attempt++ {
		if attempt > r.maxAttempt {
			r.maxAttempt = attempt
		}
		ls.words.WriteLoopback(p.Sim(), base+node, 1)
		s.waited = false
		p.SpinWait("lock loopback", s.sawLoopback)
		if s.waited {
			r.loopbackWaits++
		}
		sole := true
		lowest := node
		for n := 0; n < ls.nodes; n++ {
			p.Charge(core.CatProtocol, p.Costs().MemAccess)
			if n != node && ls.words.Read(p.Sim(), base+n) != 0 {
				sole = false
				if n < lowest {
					lowest = n
				}
			}
		}
		if sole {
			return
		}
		if lowest == node {
			r.tournaments++
			p.SpinWait("lock tournament", s.outlasted)
			if s.won {
				return
			}
		}
		r.dropOuts++
		ls.words.WriteLoopback(p.Sim(), base+node, 0)
		backoff := sim.Time((attempt*7+node*13)%16+1) * 3 * sim.Microsecond
		p.Sim().Sleep(backoff)
		p.EP().PollVisible()
	}
}

// lockOnly is a core.Protocol that is nothing but a lockSpace: Lock runs the
// production acquire, or the straight-line reference when ref is set. It lets
// the lock be driven through core.Run (real engine, endpoints, schedules)
// without the coherence protocol's own traffic in the counts.
type lockOnly struct {
	useRef bool

	rt  *core.Runtime
	ls  *lockSpace
	ref *refLock
}

const kindPing = 0

func (l *lockOnly) Name() string { return "lock-only" }

func (l *lockOnly) Setup(rt *core.Runtime) {
	l.rt = rt
	l.ls = newLockSpace(rt, rt.Program().Locks)
	l.ref = newRefLock(l.ls)
}

// The lock scripts touch no shared memory, so nothing ever faults.
func (l *lockOnly) OnReadFault(p *core.Proc, page int)                { panic("lockOnly: read fault") }
func (l *lockOnly) OnWriteFault(p *core.Proc, page int)               { panic("lockOnly: write fault") }
func (l *lockOnly) OnSharedWrite(p *core.Proc, a core.Addr, size int) {}
func (l *lockOnly) WantsWriteHook() bool                              { return false }
func (l *lockOnly) Barrier(p *core.Proc, id int)                      {}
func (l *lockOnly) Finalize(p *core.Proc)                             {}
func (l *lockOnly) Counters() map[string]int64                        { return nil }
func (l *lockOnly) MaxCostJitter() float64                            { return 1.0 }

func (l *lockOnly) Lock(p *core.Proc, id int) {
	if l.useRef {
		l.ref.acquire(p, id)
	} else {
		l.ls.acquire(p, id)
	}
}

func (l *lockOnly) Unlock(p *core.Proc, id int) { l.ls.release(p, id) }

// Service answers a ping the way Cashmere's page-fetch handler does: charge,
// reply, never yield — so it is legal inside a spin probe.
func (l *lockOnly) Service(p *core.Proc, m sim.Msg, req msg.Request) {
	p.ChargeProtocol(p.Costs().HandlerWork)
	p.EP().Reply(req.From, req, nil, 8)
}

// lockRun is what one run of a lock script is compared on.
type lockRun struct {
	res    *core.Result
	clocks []sim.Time // every processor's clock when the run ended
	elided uint64
	passes uint64
	ref    *refLock
}

func runLockScript(t *testing.T, cfg core.Config, prog *core.Program, useRef bool) lockRun {
	t.Helper()
	l := &lockOnly{useRef: useRef}
	cfg.NewProtocol = func(rt *core.Runtime) core.Protocol {
		rt.Engine().SetFastYield(true) // the handoff counts below are the fast path's, whatever SIM_NO_FASTPATH says
		return l
	}
	res, err := core.Run(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	eng := l.rt.Engine()
	out := lockRun{res: res, elided: eng.ElidedYields(), passes: eng.DirectHandoffs(), ref: l.ref}
	for _, sp := range eng.Procs() {
		out.clocks = append(out.clocks, sp.Now())
	}
	return out
}

// contentionScript is 3 nodes × 2 processors on two locks with critical
// sections from 2 µs to ~150 µs: long enough against the 3–48 µs backoff that
// waiters go round the retry loop several times, short enough at the low end
// that loop-back waits and tournaments resolve both ways. A processor
// sometimes pings a peer from inside the critical section, so requests are
// serviced from spin probes and from the poll after a backoff.
func contentionScript() (core.Config, *core.Program) {
	cfg := testConfig(3, 2, "csm_poll", Config{})
	prog := &core.Program{
		Name:        "lock-contention",
		SharedBytes: vm.PageSize,
		Locks:       2,
		Body: func(p *core.Proc) {
			r := p.Rank()
			for i := 0; i < 12; i++ {
				id := (r/2 + i) % 2
				p.Lock(id)
				p.Compute(sim.Time(2+(r*37+i*53)%150) * sim.Microsecond)
				if (r+i)%3 == 0 {
					peer := p.Runtime().ProcByRank((r + 1 + i%4) % p.NumProcs())
					p.EP().Call(peer.EP(), kindPing, nil, 64)
				}
				p.Unlock(id)
				p.Compute(sim.Time(1+(r*11+i*7)%40) * sim.Microsecond)
			}
		},
	}
	return cfg, prog
}

// TestAcquireMatchesStraightLine runs the contention script through the
// production acquire and through the straight-line reference under the
// canonical schedule and 24 perturbed ones. Every virtual-time observable must
// be equal — the step function takes the reference's scheduling points at the
// reference's clocks, jitter draws included — and the only thing allowed to
// differ is the host-side switch count, downwards.
func TestAcquireMatchesStraightLine(t *testing.T) {
	cfg, prog := contentionScript()
	schedules := []sim.Schedule{{}}
	for seed := uint64(1); seed <= 24; seed++ {
		schedules = append(schedules, sim.Schedule{Seed: seed, FlipTies: true, CostJitter: 0.25 * float64(1+seed%4)})
	}
	for _, sched := range schedules {
		cfg.Schedule = sched
		got := runLockScript(t, cfg, prog, false)
		want := runLockScript(t, cfg, prog, true)
		if !reflect.DeepEqual(got.clocks, want.clocks) {
			t.Errorf("schedule %+v: final clocks %v, straight-line %v", sched, got.clocks, want.clocks)
		}
		if !reflect.DeepEqual(got.res.PerProc, want.res.PerProc) {
			t.Errorf("schedule %+v: per-processor stats differ:\n got %+v\nwant %+v", sched, got.res.PerProc, want.res.PerProc)
		}
		if !reflect.DeepEqual(got.res.Traffic, want.res.Traffic) {
			t.Errorf("schedule %+v: traffic %v, straight-line %v", sched, got.res.Traffic, want.res.Traffic)
		}
		if got.elided != want.elided {
			t.Errorf("schedule %+v: %d elided yields, straight-line %d", sched, got.elided, want.elided)
		}
		if got.passes > want.passes {
			t.Errorf("schedule %+v: %d handoffs, more than straight-line's %d", sched, got.passes, want.passes)
		}
		if sched.Enabled() {
			continue
		}
		// The script is only a test if it reaches every wait of the algorithm.
		r := want.ref
		if r.flagWaits == 0 || r.loopbackWaits == 0 || r.tournaments == 0 || r.dropOuts == 0 || r.maxAttempt < 3 {
			t.Errorf("script too tame: %d flag waits, %d loop-back waits, %d tournaments, %d drop-outs, %d attempts at most",
				r.flagWaits, r.loopbackWaits, r.tournaments, r.dropOuts, r.maxAttempt)
		}
		if got.passes >= want.passes {
			t.Errorf("canonical schedule: %d handoffs, straight-line %d: nothing was saved", got.passes, want.passes)
		}
	}
}

// stormProgram has every processor take lock 0 rounds times, holding it for
// hold with no scheduling point inside the critical section.
func stormProgram(rounds int, hold sim.Time) *core.Program {
	return &core.Program{
		Name:        "lock-storm",
		SharedBytes: vm.PageSize,
		Locks:       1,
		Body: func(p *core.Proc) {
			for i := 0; i < rounds; i++ {
				p.Lock(0)
				p.Charge(core.CatUser, hold)
				p.Unlock(0)
			}
		},
	}
}

// TestContendedAcquireHandsOffOnce pins the shape this file's step function
// exists for: a contender parks once per acquire, however often it retries. A
// handoff resumes a parked coroutine, and one Lock/Unlock pair parks its
// coroutine at most three times — core.Proc.Lock's Yield, the acquire's one
// PollWait, core.Proc.Unlock's Yield (the critical section has no scheduling
// point) — so handoffs ≤ 3 per pair. With one SpinWait per wait and a Sleep per
// backoff the count grows with the retries instead: 200 µs critical sections
// against 3–48 µs backoffs put it an order of magnitude higher.
func TestContendedAcquireHandsOffOnce(t *testing.T) {
	const nodes, ppn, rounds = 4, 2, 10
	cfg := testConfig(nodes, ppn, "csm_poll", Config{})
	run := runLockScript(t, cfg, stormProgram(rounds, 200*sim.Microsecond), false)
	if bound := uint64(3 * nodes * ppn * rounds); run.passes > bound {
		t.Errorf("%d handoffs for %d acquires, want at most %d", run.passes, nodes*ppn*rounds, bound)
	}
	for i, st := range run.res.PerProc {
		if st.LockAcquires != rounds {
			t.Errorf("rank %d made %d acquires, want %d", i, st.LockAcquires, rounds)
		}
	}
}

// TestAcquireAllocatesNothing is core.TestSpinWaitAllocatesNothing for the
// lock: the acquire's state is the per-rank lockSpin and its step function is
// bound once, so acquiring a contended lock must not touch the heap. Rank 0
// measures while the other processors contend with the same code.
func TestAcquireAllocatesNothing(t *testing.T) {
	cfg := testConfig(2, 2, "csm_poll", Config{})
	done := false
	cycle := func(p *core.Proc) {
		p.Lock(0)
		p.Charge(core.CatUser, 30*sim.Microsecond)
		p.Unlock(0)
	}
	prog := &core.Program{
		Name:        "lock-alloc",
		SharedBytes: vm.PageSize,
		Locks:       1,
		Body: func(p *core.Proc) {
			if p.Rank() != 0 {
				for !done {
					cycle(p)
				}
				return
			}
			cycle(p)
			if n := testing.AllocsPerRun(50, func() { cycle(p) }); n != 0 {
				t.Errorf("a contended acquire allocated %v objects, want 0", n)
			}
			done = true
		},
	}
	runLockScript(t, cfg, prog, false)
}

// BenchmarkContendedLock is 16 processors on one lock: the shape the acquire's
// step function is built for. CI smoke-runs it; perfbench's sync_storm
// measures it.
func BenchmarkContendedLock(b *testing.B) {
	cfg := testConfig(8, 2, "csm_poll", Config{})
	prog := stormProgram(20, 50*sim.Microsecond)
	for i := 0; i < b.N; i++ {
		l := &lockOnly{}
		cfg.NewProtocol = func(*core.Runtime) core.Protocol { return l }
		if _, err := core.Run(cfg, prog); err != nil {
			b.Fatal(err)
		}
	}
}
