package sim

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// irregularWorkload drives yields, quantum yields, message traffic, and
// block/wake pairs and a contended spin across eight processors under
// schedule s and returns the final clocks. Used to compare the fast
// scheduling paths against the plain enqueue-and-dispatch of every yield.
func irregularWorkload(t *testing.T, fast bool, s Schedule) ([]Time, *Engine) {
	t.Helper()
	e := mustEngine(t, 2, 4)
	e.SetFastYield(fast)
	e.SetSchedule(s)
	n := e.NumProcs()
	raised := false
	for i, p := range e.Procs() {
		i := i
		e.Go(p, func(p *Proc) {
			for step := 0; step < 30; step++ {
				p.Advance(Time((i*37+step*101)%500 + 1))
				switch step % 4 {
				case 0:
					p.Yield()
				case 1:
					p.YieldIfQuantum(200)
				case 2:
					p.YieldUntil(p.Now() + Time(i*13))
				}
				target := e.Proc((i + step) % n)
				if target != p {
					target.Deliver(p.NewMsg(p.Now()+Time(100+i), step, nil))
					e.WakeAt(target, p.Now()+Time(50+i))
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
				p.Advance(5000)
				p.Yield()
				raised = true
				return
			}
			p.PollWait(func() (bool, Time) {
				if raised {
					return true, 0
				}
				p.Advance(Time(40 + i))
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
