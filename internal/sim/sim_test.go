package sim

import (
	"strings"
	"testing"
	"testing/quick"
)

func mustEngine(t *testing.T, nodes, ppn int) *Engine {
	t.Helper()
	e, err := NewEngine(Config{Nodes: nodes, ProcsPerNode: ppn})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	return e
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		cfg Config
		ok  bool
	}{
		{Config{Nodes: 1, ProcsPerNode: 1}, true},
		{Config{Nodes: 8, ProcsPerNode: 4}, true},
		{Config{Nodes: 0, ProcsPerNode: 4}, false},
		{Config{Nodes: 4, ProcsPerNode: 0}, false},
		{Config{Nodes: -1, ProcsPerNode: 2}, false},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if (err == nil) != c.ok {
			t.Errorf("Validate(%+v) = %v, want ok=%v", c.cfg, err, c.ok)
		}
	}
	if got := (Config{Nodes: 8, ProcsPerNode: 4}).TotalProcs(); got != 32 {
		t.Errorf("TotalProcs = %d, want 32", got)
	}
}

func TestProcIdentity(t *testing.T) {
	e := mustEngine(t, 3, 4)
	if e.NumProcs() != 12 {
		t.Fatalf("NumProcs = %d, want 12", e.NumProcs())
	}
	for i, p := range e.Procs() {
		if p.ID != i {
			t.Errorf("proc %d has ID %d", i, p.ID)
		}
		if want := i / 4; p.Node != want {
			t.Errorf("proc %d Node = %d, want %d", i, p.Node, want)
		}
		if want := i % 4; p.CPU != want {
			t.Errorf("proc %d CPU = %d, want %d", i, p.CPU, want)
		}
		if e.Proc(i) != p {
			t.Errorf("Proc(%d) mismatch", i)
		}
	}
}

// TestMinClockOrdering checks the core scheduling invariant: globally visible
// actions execute in virtual-time order, regardless of spawn order.
func TestMinClockOrdering(t *testing.T) {
	e := mustEngine(t, 1, 4)
	var order []int
	delays := []Time{300, 100, 400, 200}
	for i, p := range e.Procs() {
		d := delays[i]
		id := i
		e.Go(p, func(p *Proc) {
			p.Advance(d)
			p.Yield() // scheduling point before the visible action
			order = append(order, id)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 3, 0, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestTieBreakByID(t *testing.T) {
	e := mustEngine(t, 1, 4)
	var order []int
	for i, p := range e.Procs() {
		id := i
		e.Go(p, func(p *Proc) {
			p.Advance(100)
			p.Yield()
			order = append(order, id)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, id := range order {
		if id != i {
			t.Fatalf("tie order = %v, want ascending ids", order)
		}
	}
}

func TestAdvanceAndNow(t *testing.T) {
	e := mustEngine(t, 1, 1)
	p := e.Proc(0)
	e.Go(p, func(p *Proc) {
		if p.Now() != 0 {
			t.Errorf("initial Now = %d", p.Now())
		}
		p.Advance(5 * Microsecond)
		if p.Now() != 5000 {
			t.Errorf("Now = %d, want 5000", p.Now())
		}
		p.AdvanceTo(3000) // in the past: no-op
		if p.Now() != 5000 {
			t.Errorf("AdvanceTo past moved clock to %d", p.Now())
		}
		p.AdvanceTo(9000)
		if p.Now() != 9000 {
			t.Errorf("AdvanceTo future: Now = %d, want 9000", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.MaxTime() != 9000 {
		t.Errorf("MaxTime = %d, want 9000", e.MaxTime())
	}
}

func TestAdvanceNegativePanics(t *testing.T) {
	e := mustEngine(t, 1, 1)
	e.Go(e.Proc(0), func(p *Proc) { p.Advance(-1) })
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "negative") {
		t.Fatalf("Run error = %v, want negative-duration panic", err)
	}
}

func TestSleepUntil(t *testing.T) {
	e := mustEngine(t, 1, 2)
	var wakeOrder []int
	e.Go(e.Proc(0), func(p *Proc) {
		p.SleepUntil(1000)
		wakeOrder = append(wakeOrder, 0)
		if p.Now() != 1000 {
			t.Errorf("proc 0 woke at %d, want 1000", p.Now())
		}
	})
	e.Go(e.Proc(1), func(p *Proc) {
		p.SleepUntil(500)
		wakeOrder = append(wakeOrder, 1)
		p.SleepUntil(100) // past: immediate
		if p.Now() != 500 {
			t.Errorf("SleepUntil past moved clock to %d", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(wakeOrder) != 2 || wakeOrder[0] != 1 || wakeOrder[1] != 0 {
		t.Fatalf("wake order = %v, want [1 0]", wakeOrder)
	}
}

func TestBlockAndWake(t *testing.T) {
	e := mustEngine(t, 1, 2)
	waiter, waker := e.Proc(0), e.Proc(1)
	var wokeAt Time
	e.Go(waiter, func(p *Proc) {
		p.Block("waiting for test wake")
		wokeAt = p.Now()
	})
	e.Go(waker, func(p *Proc) {
		p.Advance(2000)
		p.Yield()
		p.eng.WakeAt(waiter, 2500)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wokeAt != 2500 {
		t.Errorf("woke at %d, want 2500", wokeAt)
	}
}

// TestWakeBeforeBlock checks that a wake issued while the target is still
// running is not lost.
func TestWakeBeforeBlock(t *testing.T) {
	e := mustEngine(t, 1, 2)
	a, b := e.Proc(0), e.Proc(1)
	done := false
	e.Go(a, func(p *Proc) {
		// Run far ahead so b's wake lands while a is "running" in virtual
		// time terms (a blocks only after b has issued the wake).
		p.Advance(10000)
		p.Yield() // b (clock 0) runs to completion here
		p.Block("should consume pending wake")
		done = true
		if p.Now() != 10000 {
			t.Errorf("clock = %d, want 10000 (wake time in past)", p.Now())
		}
	})
	e.Go(b, func(p *Proc) {
		p.eng.WakeAt(a, 500) // a is queued at 10000; 500 is earlier, so it must supersede
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("waiter never resumed")
	}
}

func TestWakeEarlierSupersedesQueued(t *testing.T) {
	e := mustEngine(t, 1, 2)
	a, b := e.Proc(0), e.Proc(1)
	var resumed Time
	e.Go(a, func(p *Proc) {
		p.YieldUntil(10000)
		resumed = p.Now()
	})
	e.Go(b, func(p *Proc) {
		p.Advance(100)
		p.Yield()
		p.eng.WakeAt(a, 200)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if resumed != 200 {
		t.Errorf("resumed at %d, want 200 (early wake)", resumed)
	}
}

func TestWakeLaterDoesNotDelayQueued(t *testing.T) {
	e := mustEngine(t, 1, 2)
	a, b := e.Proc(0), e.Proc(1)
	var resumed Time
	e.Go(a, func(p *Proc) {
		p.YieldUntil(300)
		resumed = p.Now()
	})
	e.Go(b, func(p *Proc) {
		p.Yield()
		p.eng.WakeAt(a, 5000) // later than queued resume: must not delay
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if resumed != 300 {
		t.Errorf("resumed at %d, want 300", resumed)
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := mustEngine(t, 1, 2)
	e.Go(e.Proc(0), func(p *Proc) { p.Block("never woken (A)") })
	e.Go(e.Proc(1), func(p *Proc) { p.Block("never woken (B)") })
	err := e.Run()
	if err == nil {
		t.Fatal("expected deadlock error")
	}
	for _, want := range []string{"deadlock", "never woken (A)", "never woken (B)"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("deadlock error %q missing %q", err, want)
		}
	}
}

func TestPanicPropagation(t *testing.T) {
	e := mustEngine(t, 1, 2)
	e.Go(e.Proc(0), func(p *Proc) { panic("boom") })
	e.Go(e.Proc(1), func(p *Proc) { p.Advance(1) })
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("Run error = %v, want panic propagation", err)
	}
}

func TestRunTwiceFails(t *testing.T) {
	e := mustEngine(t, 1, 1)
	e.Go(e.Proc(0), func(p *Proc) {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err == nil {
		t.Fatal("second Run should fail")
	}
}

func TestYieldIfQuantum(t *testing.T) {
	e := mustEngine(t, 1, 2)
	var trace []string
	e.Go(e.Proc(0), func(p *Proc) {
		for i := 0; i < 4; i++ {
			p.Advance(600)
			p.YieldIfQuantum(1000) // yields on every other iteration
		}
		trace = append(trace, "slow-done")
	})
	e.Go(e.Proc(1), func(p *Proc) {
		p.Advance(1500)
		p.Yield()
		trace = append(trace, "mid")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Proc 0 yields at 1200 and 2400; proc 1's action at 1500 must interleave
	// between them rather than waiting for proc 0 to finish at 2400.
	if len(trace) != 2 || trace[0] != "mid" {
		t.Fatalf("trace = %v, want [mid slow-done]", trace)
	}
}

func TestMailboxOrdering(t *testing.T) {
	e := mustEngine(t, 1, 3)
	recv, s1, s2 := e.Proc(0), e.Proc(1), e.Proc(2)
	var got []int
	e.Go(recv, func(p *Proc) {
		for i := 0; i < 4; i++ {
			m := p.Recv("test messages")
			got = append(got, m.Kind)
		}
	})
	e.Go(s1, func(p *Proc) {
		recv.Deliver(p.NewMsg(500, 1, nil))
		recv.Deliver(p.NewMsg(100, 2, nil))
	})
	e.Go(s2, func(p *Proc) {
		p.Advance(1)
		p.Yield()
		recv.Deliver(p.NewMsg(300, 3, nil))
		recv.Deliver(p.NewMsg(100, 4, nil)) // same time as kind=2: later seq
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{2, 4, 3, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("receive order = %v, want %v", got, want)
		}
	}
}

// TestMailboxReleasesAndReusesSlots checks the two memory properties of
// receiving: a consumed slot no longer references its message's payload, and
// an emptied inbox starts again at the front of the same backing array.
func TestMailboxReleasesAndReusesSlots(t *testing.T) {
	var mb mailbox
	mb.insert(Msg{At: 1, Seq: 1, Data: new(int)})
	mb.insert(Msg{At: 2, Seq: 2, Data: new(int)})
	front := &mb.msgs[0]
	if m := mb.pop(); m.Seq != 1 || m.Data == nil {
		t.Fatalf("pop = %+v, want message 1 with its payload", m)
	}
	if front.Data != nil {
		t.Fatal("consumed slot still pins its payload")
	}
	mb.pop()
	if len(mb.msgs) != 0 {
		t.Fatalf("inbox holds %d messages after receiving both", len(mb.msgs))
	}
	mb.insert(Msg{At: 3, Seq: 3})
	if &mb.msgs[0] != front {
		t.Fatal("emptied inbox did not reuse its backing array")
	}
}

func TestRecvAdvancesClockToArrival(t *testing.T) {
	e := mustEngine(t, 1, 2)
	r, s := e.Proc(0), e.Proc(1)
	e.Go(r, func(p *Proc) {
		m := p.Recv("one message")
		if m.Kind != 7 {
			t.Errorf("Kind = %d", m.Kind)
		}
		if p.Now() != 4000 {
			t.Errorf("clock after Recv = %d, want 4000", p.Now())
		}
	})
	e.Go(s, func(p *Proc) {
		p.Advance(1000)
		p.Yield()
		r.Deliver(p.NewMsg(4000, 7, nil))
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTryRecvFutureInvisible(t *testing.T) {
	e := mustEngine(t, 1, 2)
	r, s := e.Proc(0), e.Proc(1)
	e.Go(r, func(p *Proc) {
		p.Yield() // let sender deliver
		p.Yield()
		if _, ok := p.TryRecv(); ok {
			t.Error("future message visible at t=0")
		}
		if _, ok := p.PeekInbox(); ok {
			t.Error("future message peekable at t=0")
		}
		if p.InboxLen() != 1 {
			t.Errorf("InboxLen = %d, want 1", p.InboxLen())
		}
		p.AdvanceTo(900)
		if _, ok := p.TryRecv(); ok {
			t.Error("message visible before arrival")
		}
		p.AdvanceTo(1000)
		if m, ok := p.TryRecv(); !ok || m.Kind != 9 {
			t.Errorf("TryRecv at arrival = %v %v", m, ok)
		}
	})
	e.Go(s, func(p *Proc) {
		r.Deliver(p.NewMsg(1000, 9, nil))
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestDeterminism runs an irregular workload twice and checks final clocks
// match exactly.
func TestDeterminism(t *testing.T) {
	run := func() []Time {
		e := mustEngine(t, 2, 4)
		n := e.NumProcs()
		for i, p := range e.Procs() {
			i := i
			e.Go(p, func(p *Proc) {
				for step := 0; step < 20; step++ {
					p.Advance(Time((i*37+step*101)%500 + 1))
					if step%3 == 0 {
						p.Yield()
					}
					target := e.Proc((i + step) % n)
					if target != p {
						target.Deliver(p.NewMsg(p.Now()+Time(100+i), step, nil))
					}
					for {
						if _, ok := p.TryRecv(); !ok {
							break
						}
					}
				}
				// Drain any stragglers so the run terminates cleanly.
				for p.InboxLen() > 0 {
					p.Recv("drain")
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		clocks := make([]Time, n)
		for i, p := range e.Procs() {
			clocks[i] = p.Now()
		}
		return clocks
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic clock for proc %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestRunQueueProperty exercises the hand-rolled heap against a reference
// implementation with random operation sequences.
func TestRunQueueProperty(t *testing.T) {
	f := func(times []uint16) bool {
		var q runQueue
		for i, at := range times {
			q.push(entry{at: Time(at), procID: i, seq: 1})
		}
		if q.len() != len(times) {
			return false
		}
		var prev entry
		first := true
		for {
			e, ok := q.pop()
			if !ok {
				break
			}
			if !first && q.less(e, prev) {
				return false
			}
			prev, first = e, false
		}
		return q.len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGoAfterRunPanics(t *testing.T) {
	e := mustEngine(t, 1, 2)
	e.Go(e.Proc(0), func(p *Proc) {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Go after Run did not panic")
		}
	}()
	e.Go(e.Proc(1), func(p *Proc) {})
}

func TestDoubleBodyPanics(t *testing.T) {
	e := mustEngine(t, 1, 1)
	e.Go(e.Proc(0), func(p *Proc) {})
	defer func() {
		if recover() == nil {
			t.Fatal("double Go did not panic")
		}
	}()
	e.Go(e.Proc(0), func(p *Proc) {})
}

// BenchmarkYield measures baton handoff throughput between two processors.
func BenchmarkYield(b *testing.B) {
	e, err := NewEngine(Config{Nodes: 1, ProcsPerNode: 2})
	if err != nil {
		b.Fatal(err)
	}
	n := b.N
	for _, p := range e.Procs() {
		e.Go(p, func(p *Proc) {
			for i := 0; i < n; i++ {
				p.Advance(10)
				p.Yield()
			}
		})
	}
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkDeliverRecv measures message round trips through the mailbox.
func BenchmarkDeliverRecv(b *testing.B) {
	e, err := NewEngine(Config{Nodes: 2, ProcsPerNode: 1})
	if err != nil {
		b.Fatal(err)
	}
	n := b.N
	a, c := e.Proc(0), e.Proc(1)
	e.Go(a, func(p *Proc) {
		for i := 0; i < n; i++ {
			c.Deliver(p.NewMsg(p.Now()+100, 1, nil))
			p.Recv("pong")
		}
	})
	e.Go(c, func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Recv("ping")
			a.Deliver(p.NewMsg(p.Now()+100, 2, nil))
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
