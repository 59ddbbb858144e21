package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// runOrHang calls e.Run on a goroutine of its own and fails the test if it
// does not return: every abnormal way out of a body must end Run with an
// error, never a hang.
func runOrHang(t *testing.T, e *Engine) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- e.Run() }()
	select {
	case err := <-done:
		return err
	case <-time.After(20 * time.Second):
		t.Fatal("Run did not return")
		return nil
	}
}

// TestAbnormalExitsEndRun drives every way a processor can leave its
// coroutine other than returning — a body panic, runtime.Goexit (which
// iter.Pull re-raises in next's caller, the dispatcher) and a poll that panics
// under a peer's dispatch — at GOMAXPROCS 1, 2 and 8. Each must end Run with
// an error naming the cause and leave no goroutine behind, with the survivors
// parked at a yield, a block and an inline poll. The fast path is pinned on:
// with it off no poll is ever registered, so nothing parks at an inline poll
// and a poll's panic is its own body's.
func TestAbnormalExitsEndRun(t *testing.T) {
	cases := []struct {
		name string
		want string
		bad  func(p *Proc)
	}{
		{"panic", "proc 0 panicked: coro-test boom", func(p *Proc) {
			p.Advance(500)
			p.Yield()
			panic("coro-test boom")
		}},
		{"goexit", "proc 0 exited abnormally (runtime.Goexit)", func(p *Proc) {
			p.Advance(500)
			p.Yield()
			runtime.Goexit()
		}},
		// Proc 0 parks in PollWait beside the yielding proc 1, whose dispatch
		// loop runs the second probe.
		{"poll-panic-peer", "proc 0 poll panicked: coro-test poll boom", func(p *Proc) {
			probes := 0
			p.PollWait(func() (bool, Time) {
				if probes++; probes > 1 {
					panic("coro-test poll boom")
				}
				p.Advance(150)
				return false, p.Now()
			})
		}},
	}
	for _, procs := range []int{1, 2, 8} {
		for _, c := range cases {
			c := c
			t.Run(fmt.Sprintf("P%d/%s", procs, c.name), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				base := runtime.NumGoroutine()
				for i := 0; i < 5; i++ {
					e := mustEngine(t, 2, 2)
					e.SetFastYield(true)
					e.Go(e.Proc(0), c.bad)
					e.Go(e.Proc(1), func(p *Proc) {
						for {
							p.Advance(100)
							p.Yield()
						}
					})
					e.Go(e.Proc(2), func(p *Proc) { p.Block("coro-test: parked") })
					e.Go(e.Proc(3), func(p *Proc) {
						p.PollWait(func() (bool, Time) {
							p.Advance(Millisecond)
							return false, p.Now()
						})
					})
					err := runOrHang(t, e)
					if err == nil || !strings.Contains(err.Error(), c.want) {
						t.Fatalf("Run = %v, want error containing %q", err, c.want)
					}
				}
				if n := waitGoroutines(base+2, 5*time.Second); n > base+2 {
					t.Fatalf("goroutines leaked: %d -> %d", base, n)
				}
			})
		}
	}
}

// TestPollPanicUnderWorker covers the one dispatcher the table above cannot
// reach: the dispatcher goroutine itself probes a registered poll only when a
// peer's body returns while the poller is parked. Proc 0's first probe parks
// it at t=1000 behind proc 1, which finishes at t=500; the dispatch after that
// return runs the second probe.
func TestPollPanicUnderWorker(t *testing.T) {
	base := runtime.NumGoroutine()
	e := mustEngine(t, 1, 2)
	e.SetFastYield(true)
	e.Go(e.Proc(0), func(p *Proc) {
		probes := 0
		p.PollWait(func() (bool, Time) {
			if probes++; probes > 1 {
				panic("coro-test worker poll boom")
			}
			p.Advance(1000)
			return false, p.Now()
		})
	})
	e.Go(e.Proc(1), func(p *Proc) {
		p.Advance(500)
		p.Yield()
	})
	err := runOrHang(t, e)
	if err == nil || !strings.Contains(err.Error(), "sim: proc 0 poll panicked: coro-test worker poll boom") ||
		strings.Contains(err.Error(), "panicked: sim:") {
		t.Fatalf("Run = %v, want the poll panic reported by the dispatcher, unwrapped", err)
	}
	if e.InlinePolls() != 1 {
		t.Fatalf("InlinePolls = %d, want 1", e.InlinePolls())
	}
	if n := waitGoroutines(base+2, 5*time.Second); n > base+2 {
		t.Fatalf("goroutines leaked: %d -> %d", base, n)
	}
}

// TestPollingFlagResetAfterPollPanic checks that the recover in dispatchNext
// clears the engine's polling flag: were it left set, unwinding the parked
// bodies (whose deferred functions may yield) would trip the "yielded inside
// a dispatcher-run poll" check instead of stopping quietly.
func TestPollingFlagResetAfterPollPanic(t *testing.T) {
	e := mustEngine(t, 1, 2)
	e.SetFastYield(true) // only an inline poll sets the flag
	e.Go(e.Proc(0), func(p *Proc) {
		probes := 0
		p.PollWait(func() (bool, Time) {
			if probes++; probes > 1 {
				panic("coro-test flag boom")
			}
			p.Advance(150)
			return false, p.Now()
		})
	})
	e.Go(e.Proc(1), func(p *Proc) {
		for {
			p.Advance(100)
			p.Yield()
		}
	})
	if err := runOrHang(t, e); err == nil || !strings.Contains(err.Error(), "poll panicked") {
		t.Fatalf("Run = %v, want poll panic", err)
	}
	if e.polling {
		t.Fatal("engine left in polling state after a poll panic")
	}
}

// BenchmarkHandoff measures one processor-to-processor baton pass (a
// two-processor yield ping-pong) at GOMAXPROCS 1 and at NumCPU. A baton pass
// is two coroutine switches that never enter the Go scheduler, so idle Ps
// have nothing to steal or wake for and the two numbers should agree: their
// ratio is the idle-P penalty, ~1.0 (it was ~1.35 when the baton was a
// channel send and receive between goroutines).
func BenchmarkHandoff(b *testing.B) {
	for _, c := range []struct {
		name  string
		procs int
	}{{"P1", 1}, {"PNumCPU", runtime.NumCPU()}} {
		b.Run(c.name, func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(c.procs))
			BenchmarkYield(b)
		})
	}
}
