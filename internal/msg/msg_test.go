package msg

import (
	"testing"

	"repro/internal/interconnect"
	"repro/internal/sim"
)

const (
	kindEcho = iota
	kindOneWay
)

type harness struct {
	eng *sim.Engine
	net interconnect.Interconnect
	eps []*Endpoint
}

func newHarness(t *testing.T, nodes, ppn int, mode Mode) *harness {
	t.Helper()
	cs := interconnect.ClusterSpec{Nodes: nodes, ProcsPerNode: ppn}
	eng, err := sim.NewEngine(cs.EngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	net, err := cs.Build(eng)
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{eng: eng, net: net}
	for _, p := range eng.Procs() {
		ep, err := NewEndpoint(p, net, DefaultParams(mode))
		if err != nil {
			t.Fatal(err)
		}
		h.eps = append(h.eps, ep)
	}
	return h
}

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{ModePoll: "poll", ModeInterrupt: "interrupt", ModeUDP: "udp", Mode(9): "invalid"} {
		if got := m.String(); got != want {
			t.Errorf("Mode(%d).String() = %q, want %q", m, got, want)
		}
	}
}

func TestParamsValidate(t *testing.T) {
	for _, m := range []Mode{ModePoll, ModeInterrupt, ModeUDP} {
		if err := DefaultParams(m).Validate(); err != nil {
			t.Errorf("DefaultParams(%v) invalid: %v", m, err)
		}
	}
	bad := DefaultParams(ModePoll)
	bad.DispatchCost = 0
	if bad.Validate() == nil {
		t.Error("zero dispatch cost accepted")
	}
	bad = DefaultParams(ModePoll)
	bad.Mode = Mode(42)
	if bad.Validate() == nil {
		t.Error("bad mode accepted")
	}
}

// echoServer installs a handler that replies with the request data plus one.
func echoServer(ep *Endpoint) {
	ep.SetHandler(func(m sim.Msg, req Request) {
		switch m.Kind {
		case kindEcho:
			ep.Reply(req.From, req, req.Data.(int)+1, 64)
		case kindOneWay:
			// no reply
		}
	})
}

// callRTT measures a single cross-node Call round trip in the given mode.
func callRTT(t *testing.T, mode Mode) (sim.Time, *harness) {
	t.Helper()
	h := newHarness(t, 2, 1, mode)
	client, server := h.eps[0], h.eps[1]
	echoServer(server)
	var rtt sim.Time
	h.eng.Go(client.p, func(p *sim.Proc) {
		start := p.Now()
		got := client.Call(server, kindEcho, 41, 64)
		rtt = p.Now() - start
		if got.(int) != 42 {
			t.Errorf("Call returned %v", got)
		}
		client.Shutdown(server)
	})
	h.eng.Go(server.p, func(p *sim.Proc) { server.ServeUntilShutdown() })
	if err := h.eng.Run(); err != nil {
		t.Fatal(err)
	}
	return rtt, h
}

func TestCallRoundTripPoll(t *testing.T) {
	rtt, h := callRTT(t, ModePoll)
	// Round trip in poll mode: two ~5.2us latencies plus transfer and
	// software costs; far below one interrupt latency.
	if rtt <= 2*interconnect.MCFirstGeneration().Latency {
		t.Errorf("rtt %d implausibly low", rtt)
	}
	if rtt >= h.net.InterruptLatency() {
		t.Errorf("poll-mode rtt %d should be far below interrupt latency", rtt)
	}
	if h.eps[0].MessagesSent() != 1 {
		t.Errorf("client messages = %d", h.eps[0].MessagesSent())
	}
	if h.eps[1].MessagesSent() != 1 {
		t.Errorf("server messages = %d (reply)", h.eps[1].MessagesSent())
	}
}

func TestCallInterruptLatencyDominates(t *testing.T) {
	rttPoll, _ := callRTT(t, ModePoll)
	rttInt, hInt := callRTT(t, ModeInterrupt)
	rttUDP, _ := callRTT(t, ModeUDP)
	if !(rttPoll < rttInt && rttInt < rttUDP) {
		t.Errorf("rtt ordering wrong: poll=%d int=%d udp=%d", rttPoll, rttInt, rttUDP)
	}
	if rttInt < hInt.net.InterruptLatency() {
		t.Errorf("interrupt rtt %d below interrupt latency", rttInt)
	}
}

func TestSameNodeCheaperThanCrossNode(t *testing.T) {
	var same, cross sim.Time
	{
		h := newHarness(t, 1, 2, ModeInterrupt)
		c, s := h.eps[0], h.eps[1]
		echoServer(s)
		h.eng.Go(c.p, func(p *sim.Proc) {
			start := p.Now()
			c.Call(s, kindEcho, 1, 64)
			same = p.Now() - start
			c.Shutdown(s)
		})
		h.eng.Go(s.p, func(p *sim.Proc) { s.ServeUntilShutdown() })
		if err := h.eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	{
		h := newHarness(t, 2, 1, ModeInterrupt)
		c, s := h.eps[0], h.eps[1]
		echoServer(s)
		h.eng.Go(c.p, func(p *sim.Proc) {
			start := p.Now()
			c.Call(s, kindEcho, 1, 64)
			cross = p.Now() - start
			c.Shutdown(s)
		})
		h.eng.Go(s.p, func(p *sim.Proc) { s.ServeUntilShutdown() })
		if err := h.eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if same >= cross {
		t.Errorf("same-node rtt %d not cheaper than cross-node %d", same, cross)
	}
}

// TestReentrantWait: A calls B while B calls A; both must service the peer's
// request while waiting for their own reply.
func TestReentrantWait(t *testing.T) {
	h := newHarness(t, 2, 1, ModePoll)
	a, b := h.eps[0], h.eps[1]
	for _, pair := range []struct{ self, peer *Endpoint }{{a, b}, {b, a}} {
		self, peer := pair.self, pair.peer
		self.SetHandler(func(m sim.Msg, req Request) {
			self.Reply(req.From, req, req.Data.(int)*2, 8)
		})
		_ = peer
	}
	results := make([]int, 2)
	h.eng.Go(a.p, func(p *sim.Proc) {
		results[0] = a.Call(b, kindEcho, 10, 8).(int)
	})
	h.eng.Go(b.p, func(p *sim.Proc) {
		results[1] = b.Call(a, kindEcho, 20, 8).(int)
	})
	if err := h.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if results[0] != 20 || results[1] != 40 {
		t.Errorf("results = %v, want [20 40]", results)
	}
}

func TestSendOneWayAndPollVisible(t *testing.T) {
	h := newHarness(t, 2, 1, ModePoll)
	src, dst := h.eps[0], h.eps[1]
	var got []int
	dst.SetHandler(func(m sim.Msg, req Request) {
		got = append(got, req.Data.(int))
	})
	h.eng.Go(src.p, func(p *sim.Proc) {
		src.Send(dst, kindOneWay, 1, 8)
		src.Send(dst, kindOneWay, 2, 8)
	})
	h.eng.Go(dst.p, func(p *sim.Proc) {
		p.SleepUntil(1 * sim.Millisecond)
		dst.PollVisible()
	})
	if err := h.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("got %v, want [1 2] in order", got)
	}
}

func TestNegativeKindPanics(t *testing.T) {
	h := newHarness(t, 2, 1, ModePoll)
	h.eng.Go(h.eps[0].p, func(p *sim.Proc) {
		h.eps[0].Send(h.eps[1], -5, nil, 8)
	})
	if err := h.eng.Run(); err == nil {
		t.Fatal("negative kind accepted")
	}
}

func TestMissingHandlerPanics(t *testing.T) {
	h := newHarness(t, 2, 1, ModePoll)
	h.eng.Go(h.eps[0].p, func(p *sim.Proc) {
		h.eps[0].Send(h.eps[1], kindOneWay, nil, 8)
	})
	h.eng.Go(h.eps[1].p, func(p *sim.Proc) {
		p.SleepUntil(sim.Millisecond)
		h.eps[1].PollVisible()
	})
	if err := h.eng.Run(); err == nil {
		t.Fatal("missing handler did not fail the run")
	}
}

func TestBytesAccounting(t *testing.T) {
	h := newHarness(t, 2, 1, ModePoll)
	c, s := h.eps[0], h.eps[1]
	echoServer(s)
	h.eng.Go(c.p, func(p *sim.Proc) {
		c.Call(s, kindEcho, 1, 1000)
		c.Shutdown(s)
	})
	h.eng.Go(s.p, func(p *sim.Proc) { s.ServeUntilShutdown() })
	if err := h.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if c.BytesSent() != 1000 {
		t.Errorf("client bytes = %d", c.BytesSent())
	}
	if s.BytesSent() != 64 {
		t.Errorf("server bytes = %d", s.BytesSent())
	}
	if h.net.TrafficBytes(interconnect.TrafficMessage) != 1064 {
		t.Errorf("MC message traffic = %d", h.net.TrafficBytes(interconnect.TrafficMessage))
	}
	if !s.shutdown {
		t.Error("shutdown flag not set")
	}
}

// TestParallelCallsOutOfOrder: two in-flight calls whose replies arrive in
// reverse order must both resolve via the stash.
func TestParallelCallsOutOfOrder(t *testing.T) {
	h := newHarness(t, 3, 1, ModePoll)
	client, fast, slow := h.eps[0], h.eps[1], h.eps[2]
	// fast replies immediately; slow sleeps before replying.
	fast.SetHandler(func(m sim.Msg, req Request) {
		fast.Reply(req.From, req, "fast", 8)
	})
	slow.SetHandler(func(m sim.Msg, req Request) {
		slow.p.Sleep(2 * sim.Millisecond)
		slow.Reply(req.From, req, "slow", 8)
	})
	h.eng.Go(client.p, func(p *sim.Proc) {
		tokSlow := client.CallStart(slow, kindEcho, nil, 8)
		tokFast := client.CallStart(fast, kindEcho, nil, 8)
		// Wait for the slow one first: the fast reply must be stashed.
		if got := client.WaitReply(tokSlow); got.(string) != "slow" {
			t.Errorf("slow reply = %v", got)
		}
		if got := client.WaitReply(tokFast); got.(string) != "fast" {
			t.Errorf("fast reply = %v", got)
		}
		client.Shutdown(fast)
		client.Shutdown(slow)
	})
	h.eng.Go(fast.p, func(p *sim.Proc) { fast.ServeUntilShutdown() })
	h.eng.Go(slow.p, func(p *sim.Proc) { slow.ServeUntilShutdown() })
	if err := h.eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestWaitReplyStashFirst: a stashed reply is consumed without blocking.
func TestWaitReplyStashFirst(t *testing.T) {
	h := newHarness(t, 2, 1, ModePoll)
	c, s := h.eps[0], h.eps[1]
	echoServer(s)
	h.eng.Go(c.p, func(p *sim.Proc) {
		t1 := c.CallStart(s, kindEcho, 1, 8)
		t2 := c.CallStart(s, kindEcho, 2, 8)
		// Both replies arrive while waiting for t2; t1 lands in the stash.
		if got := c.WaitReply(t2); got.(int) != 3 {
			t.Errorf("t2 = %v", got)
		}
		if got := c.WaitReply(t1); got.(int) != 2 {
			t.Errorf("t1 = %v", got)
		}
		c.Shutdown(s)
	})
	h.eng.Go(s.p, func(p *sim.Proc) { s.ServeUntilShutdown() })
	if err := h.eng.Run(); err != nil {
		t.Fatal(err)
	}
}
