package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// irregularWorkload drives yields, quantum yields, message traffic, and
// block/wake pairs and a contended spin across eight processors under
// schedule s and returns the final clocks. Used to compare the fast
// scheduling paths against the plain enqueue-and-dispatch of every yield.
// Its durations are in units of Quantum/200, so a step's work is up to two
// and a half quanta and the quantum yields fire often.
func irregularWorkload(t *testing.T, fast bool, s Schedule) ([]Time, *Engine) {
	t.Helper()
	const u = Quantum / 200
	e := mustEngine(t, 2, 4)
	e.SetFastYield(fast)
	e.SetSchedule(s)
	n := e.NumProcs()
	raised := false
	for i, p := range e.Procs() {
		i := i
		e.Go(p, func(p *Proc) {
			for step := 0; step < 30; step++ {
				p.Advance(Time((i*37+step*101)%500+1) * u)
				switch step % 4 {
				case 0:
					p.Yield()
				case 1:
					p.YieldIfQuantum()
				case 2:
					p.YieldUntil(p.Now() + Time(i*13)*u)
				}
				target := e.Proc((i + step) % n)
				if target != p {
					target.Deliver(p.NewMsg(p.Now()+Time(100+i)*u, step, nil))
					e.WakeAt(target, p.Now()+Time(50+i)*u)
				}
				for {
					if _, ok := p.TryRecv(); !ok {
						break
					}
				}
			}
			for p.InboxLen() > 0 {
				p.Recv("drain")
			}
			// A spin on a flag the last processor raises late: inline polls
			// when the fast paths are on, a sleep-yield loop when they are off.
			if i == n-1 {
				p.Advance(5000 * u)
				p.Yield()
				raised = true
				return
			}
			p.PollWait(func() (bool, Time) {
				if raised {
					return true, 0
				}
				p.Advance(Time(40+i) * u)
				return false, p.Now()
			})
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	clocks := make([]Time, n)
	for i, p := range e.Procs() {
		clocks[i] = p.Now()
	}
	return clocks, e
}

// TestFastYieldEquivalence checks that yield elision and inline poll
// evaluation are bit-exact: the same irregular workload must land every
// processor on exactly the same final clock with the fast paths on and off.
// Off means no yield is elided and no poll runs on a dispatcher; baton passes
// are the same coroutine switch either way, so both runs count handoffs, and
// the slow one must count more (every elided yield and inline probe of the
// fast run is a real pass in it). Perturbed schedules take the fast paths
// too, so the same must hold under tie flips, staggered starts and the full
// perturbation: there the salted tie keys hash every push stamp, including
// the ones elided yields take.
func TestFastYieldEquivalence(t *testing.T) {
	slow, se := irregularWorkload(t, false, Schedule{})
	fast, fe := irregularWorkload(t, true, Schedule{})
	if se.ElidedYields() != 0 || se.InlinePolls() != 0 {
		t.Fatalf("slow path took fast paths: elided=%d inline polls=%d", se.ElidedYields(), se.InlinePolls())
	}
	if fe.ElidedYields() == 0 || fe.InlinePolls() == 0 {
		t.Fatalf("fast path not exercised: elided=%d inline polls=%d", fe.ElidedYields(), fe.InlinePolls())
	}
	if se.DirectHandoffs() <= fe.DirectHandoffs() || fe.DirectHandoffs() == 0 {
		t.Fatalf("handoffs: slow=%d fast=%d, want slow > fast > 0", se.DirectHandoffs(), fe.DirectHandoffs())
	}
	for i := range slow {
		if slow[i] != fast[i] {
			t.Fatalf("proc %d clock differs: slow=%d fast=%d", i, slow[i], fast[i])
		}
	}

	var elided, polls uint64
	for seed := uint64(1); seed <= 40; seed++ {
		for _, s := range []Schedule{
			{Seed: seed, FlipTies: true},
			{Seed: seed, FlipTies: true, Stagger: 2 * Microsecond},
			fullSchedule(seed),
		} {
			slow, _ := irregularWorkload(t, false, s)
			fast, fe := irregularWorkload(t, true, s)
			elided += fe.ElidedYields()
			polls += fe.InlinePolls()
			for i := range slow {
				if slow[i] != fast[i] {
					t.Errorf("schedule %+v: proc %d clock differs: slow=%d fast=%d", s, i, slow[i], fast[i])
					break
				}
			}
		}
	}
	if elided == 0 || polls == 0 {
		t.Errorf("perturbed runs took no fast path: elided=%d inline polls=%d", elided, polls)
	}
}

// promiseRun is what one run of promiseScript is compared on.
type promiseRun struct {
	clocks                   []Time
	served                   [][2]int64 // (message Seq, clock at service), in service order
	doneAt                   Time       // the spinner's clock when its wait ended
	elided, handoffs, inline uint64
	err                      string
}

// promiseScript parks processor 0 in a PollWait that waits until its clock
// reaches until, 300 µs after the wait starts, and processor 1 has cleared a
// flag at about clear. Each failed probe checks a livelock deadline,
// services the visible messages and takes the Backoff step; with promise set
// it first promises the probes after it — until the window's end while the
// clock is inside it, while the flag is set after that. Messages reach the
// spinner before, inside and after the window, and processor 1 moves the
// spinner's run-queue entry earlier with a WakeAt while its backoff step is
// long. It returns the run and how often the poll itself was called.
func promiseScript(t *testing.T, promise, fast bool, s Schedule, deadline, clear Time) (promiseRun, int) {
	t.Helper()
	const us = Microsecond
	e := mustEngine(t, 2, 2)
	e.SetFastYield(fast)
	e.SetSchedule(s)
	var run promiseRun
	calls := 0
	flag := true
	spinner := e.Proc(0)
	serve := func(m Msg, p *Proc) {
		run.served = append(run.served, [2]int64{int64(m.Seq), p.Now()})
		p.Advance(us) // the handler's cost
	}
	e.Go(spinner, func(p *Proc) {
		p.Advance(2 * us)
		p.Yield()
		spin := StartSpin(p.Now() + deadline)
		until := p.Now() + 300*us
		p.PollWait(func() (bool, Time) {
			calls++
			if !flag && p.Now() >= until {
				return true, 0
			}
			if promise {
				if p.Now() < until {
					p.PromiseUntil(&spin, until)
				} else {
					p.PromiseWhile(&spin, &flag)
				}
			}
			if p.Now() > spin.Deadline {
				panic(fmt.Sprintf("proc %d spun past %dns at %d", p.ID, spin.Deadline, p.Now()))
			}
			for m, ok := p.TryRecv(); ok; m, ok = p.TryRecv() {
				serve(m, p)
			}
			return false, p.Backoff(&spin)
		})
		run.doneAt = p.Now()
		for p.InboxLen() > 0 {
			serve(p.Recv("drain"), p)
		}
	})
	e.Go(e.Proc(1), func(p *Proc) {
		spinner.Deliver(p.NewMsg(us, 1, nil)) // before the window
		p.Advance(10 * us)
		p.Yield()
		spinner.Deliver(p.NewMsg(p.Now()+5*us, 1, nil)) // inside it
		p.Advance(120 * us)
		p.Yield()
		e.WakeAt(spinner, p.Now()) // the spinner is queued for later
		p.Advance(clear - 130*us)
		p.Yield()
		flag = false
		p.Advance(20 * us)
		p.Yield()
		spinner.Deliver(p.NewMsg(p.Now()+300*us, 1, nil)) // after it
	})
	e.Go(e.Proc(2), func(p *Proc) {
		for i := 0; i < 40; i++ {
			p.Advance(Time(5+i%5*5) * us)
			p.Yield()
			if i%9 == 4 {
				spinner.Deliver(p.NewMsg(p.Now()+Time(i)*us, 2, nil))
			}
		}
	})
	e.Go(e.Proc(3), func(p *Proc) {
		for i := 0; i < 12; i++ {
			p.Sleep(30 * us)
			if i%4 == 2 {
				spinner.Deliver(p.NewMsg(p.Now()-3*us, 3, nil)) // visible at once
			}
		}
	})
	if err := e.Run(); err != nil {
		run.err = err.Error()
	}
	for _, p := range e.Procs() {
		run.clocks = append(run.clocks, p.now)
	}
	run.elided, run.handoffs, run.inline = e.ElidedYields(), e.DirectHandoffs(), e.InlinePolls()
	return run, calls
}

// livelock is the poll's own panic message in a run's error: with the fast
// paths off the poll panics on the spinner's coroutine, not a dispatcher's, so
// the wrapping differs.
func livelock(err string) string {
	if i := strings.Index(err, "proc 0 spun past"); i >= 0 {
		return err[i:]
	}
	return err
}

// TestPromisedProbesMatchPolledProbes runs promiseScript with the poll's
// promises and with them withheld, under the canonical schedule and under
// tie-flipping and cost-jittering ones, with the flag cleared inside the
// window and after it, and with a deadline far off and with ones that pass
// inside either promise. Every clock, the service time of
// every message, the elision, handoff and inline-poll counts and the livelock
// panic's text must be equal; the promises must have spared poll calls. With
// the fast paths off the promise is never consulted: the run is the
// withheld one's, poll call for poll call, but for the counters and the
// wrapping of the panic.
func TestPromisedProbesMatchPolledProbes(t *testing.T) {
	schedules := []Schedule{{}}
	for seed := uint64(1); seed <= 8; seed++ {
		schedules = append(schedules,
			Schedule{Seed: seed, FlipTies: true},
			Schedule{Seed: seed, CostJitter: 0.75},
			Schedule{Seed: seed, FlipTies: true, CostJitter: 0.5})
	}
	var spared, panics int
	for _, c := range []struct{ deadline, clear Time }{
		{Second, 200 * Microsecond}, {Second, 500 * Microsecond},
		{40 * Microsecond, 500 * Microsecond}, {150 * Microsecond, 500 * Microsecond},
		{250 * Microsecond, 500 * Microsecond}, {420 * Microsecond, 500 * Microsecond},
	} {
		deadline := c.deadline
		for _, s := range schedules {
			got, gotCalls := promiseScript(t, true, true, s, deadline, c.clear)
			want, wantCalls := promiseScript(t, false, true, s, deadline, c.clear)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("deadline %d, schedule %+v:\npromised %+v\n  polled %+v", deadline, s, got, want)
			}
			spared += wantCalls - gotCalls
			if got.err != "" {
				panics++
				if !strings.Contains(got.err, "spun past") {
					t.Fatalf("deadline %d, schedule %+v: %s, want the livelock panic", deadline, s, got.err)
				}
			}
			slow, slowCalls := promiseScript(t, true, false, s, deadline, c.clear)
			if slowCalls != wantCalls || !reflect.DeepEqual(slow.clocks, want.clocks) ||
				!reflect.DeepEqual(slow.served, want.served) || slow.doneAt != want.doneAt || livelock(slow.err) != livelock(want.err) {
				t.Fatalf("deadline %d, schedule %+v: fast paths off, %d poll calls and\n%+v\nwant %d and\n%+v",
					deadline, s, slowCalls, slow, wantCalls, want)
			}
		}
	}
	if spared <= 0 {
		t.Errorf("promises spared %d poll calls: the engine never took a promised probe", spared)
	}
	if want := 4 * len(schedules); panics != want {
		t.Errorf("%d runs with an early deadline panicked, want %d", panics, want)
	}
}

// TestCheckpointQuietMatchesPredicate checks that the one-compare deadline
// is the predicate it replaced: after every operation that moves a clock, a
// quantum origin or an inbox head — seeded random Delivers with past and
// future arrival times, TryRecv, Yield, YieldUntil, Advance, Block, WakeAt
// and a promising PollWait on three processors — CheckpointQuiet must equal
// `(inbox empty || head.At > now) && now-lastYield < Quantum` on every
// processor not parked in a PollWait (the inline poll loop re-derives the
// deadline when the poll reports done), and with the fast paths off it must
// always be false.
func TestCheckpointQuietMatchesPredicate(t *testing.T) {
	for _, fast := range []bool{true, false} {
		for seed := int64(1); seed <= 200; seed++ {
			if msg := checkpointQuietRun(t, fast, seed); msg != "" {
				t.Fatalf("fast=%v seed %d: %s", fast, seed, msg)
			}
		}
	}
}

// checkpointQuietRun drives one seeded run and returns the first mismatch
// between CheckpointQuiet and its predicate, or "".
func checkpointQuietRun(t *testing.T, fast bool, seed int64) (failure string) {
	e := mustEngine(t, 1, 3)
	e.SetFastYield(fast)
	rng := rand.New(rand.NewSource(seed))
	dur := func() Time { return Time(rng.Intn(int(2 * Quantum))) }
	alive, blocked := e.NumProcs(), 0
	check := func(op string) bool {
		for _, q := range e.Procs() {
			if q.poll != nil {
				continue
			}
			want := fast && (len(q.inbox.msgs) == 0 || q.inbox.msgs[0].At > q.now) &&
				q.now-q.lastYield < Quantum
			if got := q.CheckpointQuiet(); got != want && failure == "" {
				failure = fmt.Sprintf("after %s: proc %d CheckpointQuiet() = %v, predicate %v (now %d, lastYield %d, inbox %d)",
					op, q.ID, got, want, q.now, q.lastYield, len(q.inbox.msgs))
			}
		}
		return failure == ""
	}
	for _, p := range e.Procs() {
		e.Go(p, func(p *Proc) {
			for step := 0; step < 60 && check("start"); step++ {
				var op string
				switch rng.Intn(9) {
				case 0, 1:
					op = "Deliver"
					at := p.now + dur() - Quantum // past or future
					if at < 0 {
						at = 0
					}
					e.Proc(rng.Intn(e.NumProcs())).Deliver(p.NewMsg(at, step, nil))
				case 2:
					op = "TryRecv"
					p.TryRecv()
				case 3:
					op = "Yield"
					p.Yield()
				case 4:
					op = "YieldUntil"
					p.YieldUntil(p.now + dur())
				case 5:
					op = "Advance"
					p.Advance(dur())
				case 6:
					op = "WakeAt"
					e.WakeAt(e.Proc(rng.Intn(e.NumProcs())), p.now+dur())
				case 7:
					// Park only while another processor runs on to wake us
					// (any Deliver to us does, and so does its exit).
					if alive-blocked < 2 {
						continue
					}
					op = "Block"
					blocked++
					p.Block("checkpoint-quiet test")
					blocked--
				case 8:
					op = "PollWait"
					spin := StartSpin(maxTime)
					until := p.now + dur()
					p.PollWait(func() (bool, Time) {
						if p.now >= until {
							return true, 0
						}
						p.PromiseUntil(&spin, until)
						return false, p.Backoff(&spin)
					})
				}
				check(op)
			}
			alive--
			for _, q := range e.Procs() {
				e.WakeAt(q, p.now)
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return failure
}

// TestElisionCountsSoloYields checks that a lone processor's quantum yields
// are satisfied without scheduler round-trips: with an empty run queue the
// dispatch loop could only hand the baton straight back.
func TestElisionCountsSoloYields(t *testing.T) {
	e := mustEngine(t, 1, 1)
	e.SetFastYield(true)
	e.Go(e.Proc(0), func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Advance(10)
			p.Yield()
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := e.ElidedYields(); got != 100 {
		t.Fatalf("ElidedYields = %d, want 100", got)
	}
}

// TestHandoffBypassesEngine checks that a two-processor ping-pong counts its
// processor-to-processor baton passes, and that the dispatcher's first dispatch
// of each processor is not one of them.
func TestHandoffBypassesEngine(t *testing.T) {
	e := mustEngine(t, 1, 2)
	e.SetFastYield(true)
	for _, p := range e.Procs() {
		e.Go(p, func(p *Proc) {
			for i := 0; i < 50; i++ {
				p.Advance(10)
				p.Yield()
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Each of the 100 yields finds the other processor due first and passes
	// the baton; the two first dispatches and the dispatch after proc 0
	// returns are the dispatcher's and do not count.
	if got := e.DirectHandoffs(); got != 100 {
		t.Fatalf("DirectHandoffs = %d, want 100", got)
	}
}

// waitGoroutines polls until the process goroutine count drops to at most
// want or the deadline passes, then returns the final count.
func waitGoroutines(want int, deadline time.Duration) int {
	end := time.Now().Add(deadline)
	for {
		n := runtime.NumGoroutine()
		if n <= want || time.Now().After(end) {
			return n
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// TestNoGoroutineLeakOnDeadlock checks that an aborted Run unwinds every
// parked processor goroutine instead of leaking it.
func TestNoGoroutineLeakOnDeadlock(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		e := mustEngine(t, 1, 4)
		for _, p := range e.Procs() {
			e.Go(p, func(p *Proc) {
				p.Advance(Time(p.ID * 10))
				p.Yield()
				p.Block("leak-test: never woken")
			})
		}
		err := e.Run()
		if err == nil || !strings.Contains(err.Error(), "deadlock") {
			t.Fatalf("Run = %v, want deadlock", err)
		}
	}
	if n := waitGoroutines(base+2, 5*time.Second); n > base+2 {
		t.Fatalf("goroutines leaked after deadlocks: %d -> %d", base, n)
	}
}

// TestNoGoroutineLeakOnPanic checks the same for the panic abort path, with
// the surviving processors parked at various scheduling points.
func TestNoGoroutineLeakOnPanic(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		e := mustEngine(t, 1, 4)
		e.Go(e.Proc(0), func(p *Proc) {
			p.Advance(500)
			p.Yield()
			panic("leak-test boom")
		})
		e.Go(e.Proc(1), func(p *Proc) {
			for {
				p.Advance(100)
				p.Yield()
			}
		})
		e.Go(e.Proc(2), func(p *Proc) { p.Block("leak-test: parked") })
		e.Go(e.Proc(3), func(p *Proc) { p.YieldUntil(Second) })
		err := e.Run()
		if err == nil || !strings.Contains(err.Error(), "boom") {
			t.Fatalf("Run = %v, want panic propagation", err)
		}
	}
	if n := waitGoroutines(base+2, 5*time.Second); n > base+2 {
		t.Fatalf("goroutines leaked after panics: %d -> %d", base, n)
	}
}

// TestNoGoroutineLeakSlowPath repeats the deadlock leak check with the fast
// paths disabled.
func TestNoGoroutineLeakSlowPath(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		e := mustEngine(t, 1, 4)
		e.SetFastYield(false)
		for _, p := range e.Procs() {
			e.Go(p, func(p *Proc) {
				p.Yield()
				p.Block("leak-test: never woken")
			})
		}
		if err := e.Run(); err == nil {
			t.Fatal("expected deadlock")
		}
	}
	if n := waitGoroutines(base+2, 5*time.Second); n > base+2 {
		t.Fatalf("goroutines leaked: %d -> %d", base, n)
	}
}

// BenchmarkYieldElided measures the elided yield path: a lone processor whose
// yields never need a scheduler round-trip.
func BenchmarkYieldElided(b *testing.B) {
	e, err := NewEngine(Config{Nodes: 1, ProcsPerNode: 1})
	if err != nil {
		b.Fatal(err)
	}
	e.SetFastYield(true)
	n := b.N
	e.Go(e.Proc(0), func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Advance(10)
			p.Yield()
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
