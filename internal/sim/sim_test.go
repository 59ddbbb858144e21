package sim

import (
	"reflect"
	"sort"
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

// refEntry and refQueue are the reference model TestRunQueueProperty checks the
// indexed heap against: a slice with at most one entry per processor (the
// latest push wins), re-sorted by (at, tie, order) on every pop. It keeps the
// three-field comparator the queue's single key replaced, so the test also
// checks that the key orders entries exactly as (tie, order) did.
type refEntry struct {
	at         Time
	tie, order uint64
	id         int
}

type refQueue struct {
	es   []refEntry
	salt uint64
}

func (r *refQueue) push(id int, at Time, order uint64) {
	e := refEntry{at: at, order: order, id: id}
	if r.salt != 0 {
		e.tie = mix64(r.salt ^ order)
	}
	for i := range r.es {
		if r.es[i].id == id {
			r.es[i] = e
			return
		}
	}
	r.es = append(r.es, e)
}

func (r *refQueue) pop() refEntry {
	sort.Slice(r.es, func(i, j int) bool {
		a, b := r.es[i], r.es[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.tie != b.tie {
			return a.tie < b.tie
		}
		return a.order < b.order
	})
	top := r.es[0]
	r.es = r.es[1:]
	return top
}

// TestRunQueueProperty drives random sequences of push, earlier wake of a
// queued processor, pop, and the fused pushPop of an unqueued processor
// through the indexed run queue and the reference model (where pushPop is a
// push followed by a pop), under FIFO and salted tie-breaking. The pop
// sequences must agree, and after every operation the heap must hold at most
// one entry per processor, be heap-ordered, and agree with every processor's
// qpos (-1 when not queued).
func TestRunQueueProperty(t *testing.T) {
	const nprocs = 8
	for _, salt := range []uint64{0, 0x9e3779b97f4a7c15} {
		f := func(ops []uint32) bool {
			procs := make([]*Proc, nprocs)
			for i := range procs {
				procs[i] = &Proc{ID: i, qpos: -1}
			}
			q := runQueue{salt: salt}
			ref := refQueue{salt: salt}
			var order uint64
			consistent := func() bool {
				if len(q.h) > nprocs || len(q.h) != len(ref.es) {
					return false
				}
				queued := 0
				for _, p := range procs {
					if p.qpos >= 0 {
						queued++
					}
				}
				for i := range q.h {
					if q.h[i].p.qpos != i || i > 0 && !q.h[(i-1)/2].before(&q.h[i]) {
						return false
					}
				}
				return queued == len(q.h)
			}
			for _, op := range ops {
				p := procs[(op>>2)%nprocs]
				at := Time((op >> 8) % 16) // a narrow range, so ties are common
				switch {
				case op%4 == 3:
					if q.len() == 0 {
						continue
					}
					want := ref.pop()
					got := q.pop()
					if got.ID != want.id || got.queuedAt != want.at || got.qpos != -1 {
						return false
					}
				case op%4 == 2 && p.qpos < 0:
					order++
					p.queuedAt = at
					ref.push(p.ID, at, order)
					want := ref.pop()
					got := q.pushPop(p, at, order)
					if got.ID != want.id || got.queuedAt != want.at || got.qpos != -1 {
						return false
					}
				case p.qpos >= 0:
					if p.queuedAt == 0 {
						continue // cannot be woken any earlier
					}
					at %= p.queuedAt
					fallthrough
				default:
					order++
					p.queuedAt = at
					q.push(p, at, order)
					ref.push(p.ID, at, order)
				}
				if !consistent() {
					return false
				}
			}
			for q.len() > 0 {
				if want, got := ref.pop(), q.pop(); got.ID != want.id || !consistent() {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatalf("salt %#x: %v", salt, err)
		}
	}
}

// TestEarlierDeliveriesDispatchOnce: a processor parked in YieldUntil(far)
// receives two deliveries at successively earlier times. It must be dispatched
// once, at the earliest, and never again for the resume times it was moved
// away from — every count below is worked out by hand, and a queue that kept a
// ghost entry for 10000 or 600 would dispatch a again and shift them.
func TestEarlierDeliveriesDispatchOnce(t *testing.T) {
	e := mustEngine(t, 1, 2)
	e.SetFastYield(true)
	a, b := e.Proc(0), e.Proc(1)
	var resumed, received []Time
	e.Go(a, func(p *Proc) {
		p.YieldUntil(10000) // b is queued at 0: handoff 1, a -> b
		resumed = append(resumed, p.Now())
		received = append(received, p.Recv("first").At)  // visible at 300
		received = append(received, p.Recv("second").At) // b is queued at 700, so waiting until 600 is elision 3
		p.YieldUntil(20000)                              // handoff 3, a -> b; b returns and the dispatcher dispatches a
		resumed = append(resumed, p.Now())
	})
	e.Go(b, func(p *Proc) {
		p.Advance(100)
		p.Yield() // a is queued at 10000: elision 1
		a.Deliver(p.NewMsg(600, 0, nil))
		p.Advance(100)
		p.Yield() // a moved to 600, b is at 200: elision 2
		a.Deliver(p.NewMsg(300, 0, nil))
		p.Advance(500)
		p.Yield() // a moved to 300, b is at 700: handoff 2, b -> a
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []Time{300, 20000}; !reflect.DeepEqual(resumed, want) {
		t.Errorf("a resumed at %v, want %v", resumed, want)
	}
	if want := []Time{300, 600}; !reflect.DeepEqual(received, want) {
		t.Errorf("a received messages arriving at %v, want %v", received, want)
	}
	if got := e.DirectHandoffs(); got != 3 {
		t.Errorf("DirectHandoffs = %d, want 3", got)
	}
	if got := e.ElidedYields(); got != 3 {
		t.Errorf("ElidedYields = %d, want 3", got)
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
