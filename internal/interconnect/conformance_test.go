package interconnect

// Conformance suite: every Interconnect implementation is run against the
// contract documented on the interface, so a new backend cannot silently
// weaken a guarantee the protocols rely on. Each test runs once per Kind.

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// forEachBackend runs fn once per interconnect kind on a fresh cluster of
// the given shape, built through the one supported construction path
// (ClusterSpec.Build).
func forEachBackend(t *testing.T, nodes, ppn int, fn func(t *testing.T, eng *sim.Engine, net Interconnect)) {
	t.Helper()
	for _, kind := range Kinds {
		t.Run(string(kind), func(t *testing.T) {
			cs := ClusterSpec{Nodes: nodes, ProcsPerNode: ppn, Net: Spec{Kind: kind}}
			eng, err := sim.NewEngine(cs.EngineConfig())
			if err != nil {
				t.Fatal(err)
			}
			net, err := cs.Build(eng)
			if err != nil {
				t.Fatal(err)
			}
			fn(t, eng, net)
		})
	}
}

// presetLatency is the smallest one-way latency the backend's own preset
// gives a cross-node interaction: the arrival-time floor the latency tests
// below hold every modeled arrival to. The product declares no such floor
// (nothing in a simulation reads one), so the tests take it from the
// parameters the backend was built with.
func presetLatency(t *testing.T, net Interconnect) sim.Time {
	t.Helper()
	switch n := net.(type) {
	case *mcNet:
		return n.params.Latency
	case *rdmaNet:
		return n.params.Latency
	case *switchNet:
		return n.params.WireLatency + 2*n.params.HopLatency // same-leaf path
	}
	t.Fatalf("no preset latency known for backend %T", net)
	return 0
}

func TestConformanceDeclaredCaps(t *testing.T) {
	forEachBackend(t, 2, 1, func(t *testing.T, eng *sim.Engine, net Interconnect) {
		// Every current backend models one-sided remote writes; Cashmere's
		// Setup guard depends on the declaration.
		if !net.Caps().RemoteWrites {
			t.Error("backend does not declare remote writes (Caps().RemoteWrites)")
		}
		if net.InterruptLatency() <= 0 || net.InterruptSendCost() <= 0 {
			t.Errorf("interrupt costs = %d/%d, want > 0",
				net.InterruptSendCost(), net.InterruptLatency())
		}
	})
}

// TestConformanceVisibilityMonotonic: once a remote reader has observed a
// value of a globally mapped word, it never observes an older one — the
// visibility horizon moves only forward.
func TestConformanceVisibilityMonotonic(t *testing.T) {
	forEachBackend(t, 2, 1, func(t *testing.T, eng *sim.Engine, net Interconnect) {
		w := net.NewWordArray(1, TrafficMeta)
		// Written sequence: 0 (initial), 1, 2, 3 at 20us spacing.
		order := map[int64]int{0: 0, 1: 1, 2: 2, 3: 3}
		eng.Go(eng.Proc(0), func(p *sim.Proc) {
			for v := int64(1); v <= 3; v++ {
				p.Advance(20 * sim.Microsecond)
				w.WriteLoopback(p, 0, v)
			}
		})
		eng.Go(eng.Proc(1), func(p *sim.Proc) {
			last := 0
			for i := 0; i < 200; i++ {
				p.Advance(500 * sim.Nanosecond)
				p.Yield()
				v := w.Read(p, 0)
				idx, known := order[v]
				if !known {
					t.Fatalf("read unwritten value %d", v)
				}
				if idx < last {
					t.Fatalf("visibility regressed: saw %d after newer value", v)
				}
				last = idx
			}
			if last != 3 {
				t.Errorf("final value index %d, want 3 (latest write visible)", last)
			}
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestConformanceVisibilityWindow: a remote write is invisible strictly
// inside the fabric latency and visible after it (old-to-new transition).
func TestConformanceVisibilityWindow(t *testing.T) {
	forEachBackend(t, 2, 1, func(t *testing.T, eng *sim.Engine, net Interconnect) {
		w := net.NewWordArray(1, TrafficMeta)
		eng.Go(eng.Proc(0), func(p *sim.Proc) {
			w.WriteLoopback(p, 0, 7)
		})
		eng.Go(eng.Proc(1), func(p *sim.Proc) {
			p.Advance(100 * sim.Nanosecond)
			p.Yield()
			if v := w.Read(p, 0); v != 0 {
				t.Errorf("remote read inside latency window = %d, want 0", v)
			}
			p.Advance(1 * sim.Millisecond) // far past any backend's latency
			if v := w.Read(p, 0); v != 7 {
				t.Errorf("remote read after latency window = %d, want 7", v)
			}
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestConformanceTotalWriteOrder: on every backend, observers on different
// nodes see two writes to the same word in the same order. The lock and
// directory algorithms require it, so it is not a capability a backend may
// decline.
func TestConformanceTotalWriteOrder(t *testing.T) {
	forEachBackend(t, 4, 1, func(t *testing.T, eng *sim.Engine, net Interconnect) {
		w := net.NewWordArray(1, TrafficMeta)
		eng.Go(eng.Proc(0), func(p *sim.Proc) {
			p.Advance(10 * sim.Microsecond)
			w.WriteLoopback(p, 0, 1)
		})
		eng.Go(eng.Proc(1), func(p *sim.Proc) {
			p.Advance(40 * sim.Microsecond)
			w.WriteLoopback(p, 0, 2)
		})
		observed := make([][]int64, 2)
		for r := 0; r < 2; r++ {
			reader := eng.Proc(2 + r)
			slot := r
			eng.Go(reader, func(p *sim.Proc) {
				var seen []int64
				for i := 0; i < 300; i++ {
					p.Advance(500 * sim.Nanosecond)
					p.Yield()
					v := w.Read(p, 0)
					if len(seen) == 0 || seen[len(seen)-1] != v {
						seen = append(seen, v)
					}
				}
				observed[slot] = seen
			})
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		for r, seen := range observed {
			if len(seen) == 0 || seen[len(seen)-1] != 2 {
				t.Fatalf("reader %d never observed the final write: %v", r, seen)
			}
		}
		if len(observed[0]) != len(observed[1]) {
			t.Fatalf("readers observed different transition counts: %v vs %v",
				observed[0], observed[1])
		}
		for i := range observed[0] {
			if observed[0][i] != observed[1][i] {
				t.Fatalf("readers disagree on write order: %v vs %v",
					observed[0], observed[1])
			}
		}
	})
}

// TestConformanceTransferLatencyFloor: a cross-node transfer never arrives
// earlier than issue time plus the backend's preset cross-node latency, and
// the sender is not advanced to the arrival time (writes are asynchronous).
func TestConformanceTransferLatencyFloor(t *testing.T) {
	forEachBackend(t, 2, 1, func(t *testing.T, eng *sim.Engine, net Interconnect) {
		eng.Go(eng.Proc(0), func(p *sim.Proc) {
			start := p.Now()
			arrival := net.Transfer(p, 1, 4096, TrafficPage)
			if floor := presetLatency(t, net); arrival < start+floor {
				t.Errorf("arrival %d < issue %d + preset latency %d", arrival, start, floor)
			}
			if p.Now() >= arrival {
				t.Errorf("sender advanced to %d, at/after arrival %d", p.Now(), arrival)
			}
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if net.Transfers() != 1 {
			t.Errorf("transfers = %d, want 1", net.Transfers())
		}
		if net.TrafficBytes(TrafficPage) != 4096 {
			t.Errorf("page traffic = %d, want 4096", net.TrafficBytes(TrafficPage))
		}
	})
}

// TestConformanceOccupancyMonotonic: back-to-back transfers on the same path
// queue — arrivals never go backwards, and a busy link pushes later
// transfers out.
func TestConformanceOccupancyMonotonic(t *testing.T) {
	forEachBackend(t, 2, 1, func(t *testing.T, eng *sim.Engine, net Interconnect) {
		eng.Go(eng.Proc(0), func(p *sim.Proc) {
			var prev sim.Time
			for i := 0; i < 8; i++ {
				arrival := net.Transfer(p, 1, 64*1024, TrafficPage)
				if arrival < prev {
					t.Fatalf("transfer %d arrival %d before previous arrival %d", i, arrival, prev)
				}
				prev = arrival
			}
			// Eight 64KB transfers issued with no time passing must queue:
			// the last arrival is strictly beyond one transfer's worth.
			if first := presetLatency(t, net); prev <= first {
				t.Errorf("no queueing visible: last arrival %d", prev)
			}
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestConformanceRemoteReadCapability: RemoteRead panics exactly when the
// backend declares Caps().RemoteReads false, and behaves like a round trip
// when declared available.
func TestConformanceRemoteReadCapability(t *testing.T) {
	forEachBackend(t, 2, 1, func(t *testing.T, eng *sim.Engine, net Interconnect) {
		if !net.Caps().RemoteReads {
			eng.Go(eng.Proc(0), func(p *sim.Proc) {
				defer func() {
					r := recover()
					if r == nil {
						t.Error("RemoteRead did not panic despite Caps().RemoteReads == false")
						return
					}
					if !strings.Contains(r.(string), "remote read") {
						t.Errorf("panic %q does not explain the missing capability", r)
					}
					panic(r) // re-panic: the engine converts it into a run error
				}()
				net.RemoteRead(p, 1, 4096, TrafficPage)
			})
			if err := eng.Run(); err == nil {
				t.Error("run succeeded despite RemoteRead panic")
			}
			return
		}
		eng.Go(eng.Proc(0), func(p *sim.Proc) {
			start := p.Now()
			avail := net.RemoteRead(p, 1, 4096, TrafficPage)
			if avail < start+presetLatency(t, net) {
				t.Errorf("remote read available at %d, earlier than one-way latency after %d", avail, start)
			}
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if net.Transfers() != 1 {
			t.Errorf("transfers = %d, want 1 (remote read counts)", net.Transfers())
		}
		if net.TrafficBytes(TrafficPage) != 4096 {
			t.Errorf("page traffic = %d, want 4096", net.TrafficBytes(TrafficPage))
		}
	})
}

// TestConformanceFence: the fence horizon is never in the past, never
// retreats as more write-through traffic is issued, and covers at least the
// fabric latency of the last doubled write.
func TestConformanceFence(t *testing.T) {
	forEachBackend(t, 2, 1, func(t *testing.T, eng *sim.Engine, net Interconnect) {
		eng.Go(eng.Proc(0), func(p *sim.Proc) {
			if f := net.FenceTime(p); f < p.Now() {
				t.Errorf("idle fence %d in the past (now %d)", f, p.Now())
			}
			net.WriteThrough(p, 1, 8)
			f1 := net.FenceTime(p)
			if f1 <= p.Now() {
				t.Errorf("fence %d not beyond now %d after a doubled write", f1, p.Now())
			}
			for i := 0; i < 100; i++ {
				net.WriteThrough(p, 1, 8)
			}
			if f2 := net.FenceTime(p); f2 < f1 {
				t.Errorf("fence retreated from %d to %d after more writes", f1, f2)
			}
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if net.TrafficBytes(TrafficDoubling) != 8*101 {
			t.Errorf("doubling traffic = %d, want %d", net.TrafficBytes(TrafficDoubling), 8*101)
		}
	})
}

// TestConformanceAccounting: AccountTraffic feeds TrafficBytes and
// TotalTraffic without occupancy side effects.
func TestConformanceAccounting(t *testing.T) {
	forEachBackend(t, 2, 1, func(t *testing.T, eng *sim.Engine, net Interconnect) {
		net.AccountTraffic(TrafficMeta, 24)
		net.AccountTraffic(TrafficSync, 16)
		if net.TrafficBytes(TrafficMeta) != 24 || net.TrafficBytes(TrafficSync) != 16 {
			t.Errorf("per-class bytes = %d/%d, want 24/16",
				net.TrafficBytes(TrafficMeta), net.TrafficBytes(TrafficSync))
		}
		if net.TotalTraffic() != 40 {
			t.Errorf("total = %d, want 40", net.TotalTraffic())
		}
		if net.Transfers() != 0 {
			t.Errorf("transfers = %d, want 0", net.Transfers())
		}
	})
}
