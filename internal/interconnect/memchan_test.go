package interconnect

import (
	"reflect"
	"regexp"
	"testing"

	"repro/internal/sim"
)

func testCluster(t *testing.T, nodes, ppn int) (*sim.Engine, *mcNet) {
	t.Helper()
	cs := ClusterSpec{Nodes: nodes, ProcsPerNode: ppn}
	eng, err := sim.NewEngine(cs.EngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	net, err := cs.Build(eng)
	if err != nil {
		t.Fatal(err)
	}
	return eng, net.(*mcNet)
}

func TestParamsValidate(t *testing.T) {
	if err := MCFirstGeneration().Validate(); err != nil {
		t.Errorf("MCFirstGeneration invalid: %v", err)
	}
	if err := MCSecondGeneration().Validate(); err != nil {
		t.Errorf("MCSecondGeneration invalid: %v", err)
	}
	// Zeroing any one field must fail, with an error that shows the zero.
	def := MCFirstGeneration()
	for i := 0; i < reflect.TypeOf(def).NumField(); i++ {
		name := reflect.TypeOf(def).Field(i).Name
		bad := def
		reflect.ValueOf(&bad).Elem().Field(i).SetInt(0)
		if err := bad.Validate(); err == nil || !regexp.MustCompile(`\b`+name+`:0\b`).MatchString(err.Error()) {
			t.Errorf("zero %s: Validate() = %v, want an error naming it", name, err)
		}
	}
	bad := MCFirstGeneration()
	bad.LinkBandwidth = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative bandwidth accepted")
	}
}

func TestSecondGenerationScaling(t *testing.T) {
	d, s := MCFirstGeneration(), MCSecondGeneration()
	if s.Latency != d.Latency/2 {
		t.Errorf("latency = %d, want half of %d", s.Latency, d.Latency)
	}
	if s.LinkBandwidth != d.LinkBandwidth*10 {
		t.Errorf("link bw = %d, want 10x", s.LinkBandwidth)
	}
}

func TestTrafficClassString(t *testing.T) {
	for tc, want := range map[TrafficClass]string{
		TrafficDoubling: "doubling", TrafficPage: "page", TrafficMeta: "meta",
		TrafficSync: "sync", TrafficMessage: "message", NumTrafficClasses: "unknown",
	} {
		if got := tc.String(); got != want {
			t.Errorf("TrafficClass(%d).String() = %q, want %q", tc, got, want)
		}
	}
}

func TestMCKindAndCaps(t *testing.T) {
	// testCluster has already asserted that the zero Spec builds an *mcNet.
	_, net := testCluster(t, 2, 1)
	caps := net.Caps()
	if caps.RemoteReads {
		t.Error("Memory Channel claims remote reads")
	}
	if !caps.RemoteWrites {
		t.Error("Memory Channel does not claim remote writes")
	}
}

func TestTransferLatencyAndBandwidth(t *testing.T) {
	eng, net := testCluster(t, 2, 1)
	params := net.params
	e := eng
	e.Go(e.Proc(0), func(p *sim.Proc) {
		arrival := net.Transfer(p, 1, 8192, TrafficPage)
		wantXfer := durOn(8192, params.LinkBandwidth)
		want := p.Now() + wantXfer + params.Latency
		if arrival != want {
			t.Errorf("arrival = %d, want %d", arrival, want)
		}
		if p.Now() != params.WriteCost {
			t.Errorf("sender advanced to %d, want only issue cost %d", p.Now(), params.WriteCost)
		}
		// A second transfer queues behind the first on the link.
		arrival2 := net.Transfer(p, 1, 8192, TrafficPage)
		if arrival2 < arrival+wantXfer {
			t.Errorf("second transfer arrival %d does not queue behind first %d", arrival2, arrival)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := net.TrafficBytes(TrafficPage); got != 16384 {
		t.Errorf("page traffic = %d, want 16384", got)
	}
	if net.Transfers() != 2 {
		t.Errorf("transfers = %d, want 2", net.Transfers())
	}
	if net.TotalTraffic() != 16384 {
		t.Errorf("total traffic = %d", net.TotalTraffic())
	}
}

func TestAggregateBandwidthContention(t *testing.T) {
	eng, net := testCluster(t, 4, 1)
	const bytes = 64 * 1024
	var arrivals []sim.Time
	// Two transfers on disjoint node pairs still contend for aggregate
	// bandwidth.
	eng.Go(eng.Proc(0), func(p *sim.Proc) {
		arrivals = append(arrivals, net.Transfer(p, 1, bytes, TrafficPage))
	})
	eng.Go(eng.Proc(2), func(p *sim.Proc) {
		p.Advance(1) // deterministic ordering: this transfer goes second
		p.Yield()
		arrivals = append(arrivals, net.Transfer(p, 3, bytes, TrafficPage))
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	aggDur := durOn(bytes, net.params.AggregateBandwidth)
	if arrivals[1]-arrivals[0] < aggDur/2 {
		t.Errorf("second transfer (%d) not delayed by aggregate occupancy after first (%d)", arrivals[1], arrivals[0])
	}
}

func TestWriteThroughStallsOnFullBuffer(t *testing.T) {
	eng, net := testCluster(t, 2, 1)
	eng.Go(eng.Proc(0), func(p *sim.Proc) {
		// Issue far more bytes than the write buffer holds with no time
		// passing: the writer must stall to drain.
		start := p.Now()
		for i := 0; i < 1000; i++ {
			net.WriteThrough(p, 1, 8)
		}
		if p.Now() == start {
			t.Error("writer never stalled despite full write buffer")
		}
		// Fence waits for full drain plus latency.
		f := net.FenceTime(p)
		if f < p.Now()+net.params.Latency {
			t.Errorf("fence %d earlier than now+latency", f)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if net.TrafficBytes(TrafficDoubling) != 8000 {
		t.Errorf("doubling traffic = %d", net.TrafficBytes(TrafficDoubling))
	}
}

func TestFenceIdleIsJustLatency(t *testing.T) {
	eng, net := testCluster(t, 2, 1)
	eng.Go(eng.Proc(0), func(p *sim.Proc) {
		net.WriteThrough(p, 1, 8)
		p.Advance(1 * sim.Millisecond) // long after drain
		if f := net.FenceTime(p); f != p.Now()+net.params.Latency {
			t.Errorf("fence = %d, want now+latency", f)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestWordVisibilityWindow: a word write is visible on no node, the
// writer's included, inside the Memory Channel's 5.2 us latency and on every
// node after it.
func TestWordVisibilityWindow(t *testing.T) {
	eng, net := testCluster(t, 2, 2)
	w := net.NewWordArray(4, TrafficMeta)
	// Writer: proc 0 (node 0). Same-node reader: proc 1. Remote: proc 2.
	eng.Go(eng.Proc(0), func(p *sim.Proc) {
		w.WriteLoopback(p, 0, 42)
	})
	for _, id := range []int{1, 2} {
		eng.Go(eng.Proc(id), func(p *sim.Proc) {
			p.Advance(1 * sim.Microsecond)
			p.Yield()
			if v := w.Read(p, 0); v != 0 {
				t.Errorf("proc %d read inside window = %d, want 0", p.ID, v)
			}
			p.Advance(10 * sim.Microsecond) // past 5.2us latency
			if v := w.Read(p, 0); v != 42 {
				t.Errorf("proc %d read after window = %d, want 42", p.ID, v)
			}
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteLoopbackHidesFromWriterNode(t *testing.T) {
	eng, net := testCluster(t, 2, 2)
	w := net.NewWordArray(1, TrafficSync)
	eng.Go(eng.Proc(0), func(p *sim.Proc) {
		w.WriteLoopback(p, 0, 7)
		if v := w.Read(p, 0); v != 0 {
			t.Errorf("loopback write visible immediately on own node: %d", v)
		}
		p.Advance(net.params.Latency + 1)
		if v := w.Read(p, 0); v != 7 {
			t.Errorf("loopback write not visible after latency: %d", v)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildRejectsBadParams(t *testing.T) {
	cs := ClusterSpec{Nodes: 1, ProcsPerNode: 1, MC: MCParams{Latency: -1}}
	eng, err := sim.NewEngine(cs.EngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Build(eng); err == nil {
		t.Fatal("Build accepted bad MC params")
	}
}

func TestWordArrayLen(t *testing.T) {
	_, net := testCluster(t, 1, 1)
	if got := net.NewWordArray(17, TrafficSync).Len(); got != 17 {
		t.Errorf("Len = %d", got)
	}
}

func TestDurOn(t *testing.T) {
	if d := durOn(0, 30e6); d != 0 {
		t.Errorf("durOn(0) = %d", d)
	}
	if d := durOn(-5, 30e6); d != 0 {
		t.Errorf("durOn(-5) = %d", d)
	}
	// 30 MB at 30 MB/s = 1 s
	if d := durOn(30e6, 30e6); d != sim.Second {
		t.Errorf("durOn(30e6) = %d, want 1s", d)
	}
}

// TestAccountTraffic covers the metadata accounting hook used by Cashmere's
// directory broadcasts.
func TestAccountTraffic(t *testing.T) {
	_, net := testCluster(t, 1, 1)
	net.AccountTraffic(TrafficMeta, 24)
	net.AccountTraffic(TrafficMeta, 8)
	if got := net.TrafficBytes(TrafficMeta); got != 32 {
		t.Errorf("meta traffic = %d, want 32", got)
	}
	if net.TotalTraffic() != 32 {
		t.Errorf("total = %d", net.TotalTraffic())
	}
}

// TestWordVisibilityTwoWritesWindow documents the single-previous-value
// approximation: a reader inside the window of the second write sees the
// first write's value.
func TestWordVisibilityTwoWritesWindow(t *testing.T) {
	eng, net := testCluster(t, 2, 1)
	w := net.NewWordArray(1, TrafficSync)
	eng.Go(eng.Proc(0), func(p *sim.Proc) {
		w.WriteLoopback(p, 0, 1)
		p.Advance(20 * sim.Microsecond) // first write fully visible
		w.WriteLoopback(p, 0, 2)
	})
	eng.Go(eng.Proc(1), func(p *sim.Proc) {
		p.SleepUntil(22 * sim.Microsecond) // inside the second write's window
		if v := w.Read(p, 0); v != 1 {
			t.Errorf("read %d inside second window, want previous value 1", v)
		}
		p.SleepUntil(40 * sim.Microsecond)
		if v := w.Read(p, 0); v != 2 {
			t.Errorf("read %d after window, want 2", v)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}
