package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/apps/sor"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/interconnect"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/treadmarks"
	"repro/internal/variants"
	"repro/internal/vm"
)

// Probes time calls into one layer's exported functions in isolation. They do
// not depend on the workload; every traced run repeats them so that a
// per-layer cost sits next to the exact counts it multiplies. Each probe
// returns nanoseconds per operation; probeReps runs are made and the median
// reported.

var probeReps = 5

type probe struct {
	name string
	unit string
	fn   func() (float64, error)
}

func runProbes(metrics map[string]metric) error {
	for _, pr := range probes() {
		var xs []float64
		for i := 0; i < probeReps; i++ {
			x, err := pr.fn()
			if err != nil {
				return fmt.Errorf("probe %s: %w", pr.name, err)
			}
			xs = append(xs, x)
		}
		metrics[pr.name] = metric{median(xs), pr.unit}
	}
	return nil
}

func probes() []probe {
	ps := []probe{
		{"sim.handoff_ns", "ns", func() (float64, error) {
			return simProbe(2, func(p *sim.Proc) {
				for i := 0; i < 20000; i++ {
					p.Advance(10)
					p.Yield()
				}
			}, (*sim.Engine).DirectHandoffs)
		}},
		{"sim.runqueue64_ns", "ns", func() (float64, error) {
			return simProbe(64, func(p *sim.Proc) {
				for i := 0; i < 600; i++ {
					p.Advance(10)
					p.Yield()
				}
			}, (*sim.Engine).DirectHandoffs)
		}},
		{"sim.elided_yield_ns", "ns", func() (float64, error) {
			return simProbe(1, func(p *sim.Proc) {
				for i := 0; i < 400000; i++ {
					p.Advance(10)
					p.Yield()
				}
			}, (*sim.Engine).ElidedYields)
		}},
		{"sim.deliver_recv_ns", "ns", func() (float64, error) {
			const n = 10000
			return simProbe(2, func(p *sim.Proc) {
				peer := p.Engine().Proc(1 - p.ID)
				for i := 0; i < n; i++ {
					if (i+p.ID)%2 == 0 {
						p.Yield()
						peer.Deliver(p.NewMsg(p.Now()+100, 0, nil))
					} else {
						p.Recv("probe")
					}
				}
			}, func(*sim.Engine) uint64 { return n })
		}},
		{"sim.pollwait_ns", "ns", func() (float64, error) {
			// Processor 0 spins on a flag while processor 1 keeps yielding, so
			// each of 1's handoffs evaluates 0's poll inline on the dispatching
			// goroutine: the cost of one yield plus one dispatcher-run poll.
			flag := false
			return simProbe(2, func(p *sim.Proc) {
				if p.ID == 1 {
					for i := 0; i < 20000; i++ {
						p.Advance(100)
						p.Yield()
					}
					flag = true
					return
				}
				p.PollWait(func() (bool, sim.Time) {
					if flag {
						return true, 0
					}
					p.Advance(100)
					return false, p.Now()
				})
			}, (*sim.Engine).InlinePolls)
		}},
		{"vm.prot_ns", "ns", func() (float64, error) {
			s := vm.NewSpace(256)
			const n = 2_000_000
			sink := vm.ProtNone
			t0 := time.Now()
			for i := 0; i < n; i++ {
				sink |= s.Prot(i & 255)
			}
			keep(int(sink))
			return perOp(t0, n), nil
		}},
		{"vm.setprot_ns", "ns", func() (float64, error) {
			s := vm.NewSpace(256)
			const n = 2_000_000
			t0 := time.Now()
			for i := 0; i < n; i++ {
				s.SetProt(i&255, vm.Prot(i%3))
			}
			return perOp(t0, n), nil
		}},
		{"vm.ensure_frame_ns", "ns", func() (float64, error) {
			const n = 2048
			s := vm.NewSpace(n)
			t0 := time.Now()
			for i := 0; i < n; i++ {
				keep(len(s.EnsureFrame(i)))
			}
			return perOp(t0, n), nil
		}},
		{"cache.access_ns.stream", "ns", func() (float64, error) { return cacheProbe(8) }},
		{"cache.access_ns.conflict", "ns", func() (float64, error) { return cacheProbe(uint64(cache.Alpha21064A.SizeBytes)) }},
		{"core.read_ns", "ns", func() (float64, error) {
			return accessProbe(variants.Sequential, func(p *core.Proc, a core.F64Array, n int) {
				s := 0.0
				for i := 0; i < n; i++ {
					s += a.At(p, i&(a.N-1))
				}
				keep(int(s))
			})
		}},
		{"core.write_ns", "ns", func() (float64, error) {
			return accessProbe(variants.Sequential, func(p *core.Proc, a core.F64Array, n int) {
				for i := 0; i < n; i++ {
					a.Set(p, i&(a.N-1), 1)
				}
			})
		}},
		{"core.write_hook_ns", "ns", func() (float64, error) {
			return accessProbe("csm_poll", func(p *core.Proc, a core.F64Array, n int) {
				for i := 0; i < n; i++ {
					a.Set(p, i&(a.N-1), 1)
				}
			})
		}},
		{"core.read_range_ns_per_elem", "ns", func() (float64, error) {
			return accessProbe(variants.Sequential, func(p *core.Proc, a core.F64Array, n int) {
				buf := make([]float64, a.N)
				for done := 0; done < n; done += a.N {
					p.ReadF64Range(a.Addr(0), buf)
				}
			})
		}},
		{"core.run_fixed_ms", "ms", func() (float64, error) {
			cfg, err := variants.Config("csm_poll", 8, 4, variants.Options{})
			if err != nil {
				return 0, err
			}
			const n = 20
			t0 := time.Now()
			for i := 0; i < n; i++ {
				prog := &core.Program{Name: "empty", SharedBytes: vm.PageSize, Barriers: 1, Body: func(p *core.Proc) {}}
				if _, err := core.Run(cfg, prog); err != nil {
					return 0, err
				}
			}
			return perOp(t0, n) / 1e6, nil
		}},
		{"treadmarks.makediff_ns_sparse", "ns", func() (float64, error) { return diffProbe(64, false), nil }},
		{"treadmarks.makediff_ns_dense", "ns", func() (float64, error) { return diffProbe(1, false), nil }},
		{"treadmarks.applydiff_ns", "ns", func() (float64, error) { return diffProbe(8, true), nil }},
		{"treadmarks.vt_maxinto_ns", "ns", func() (float64, error) {
			a, b := treadmarks.NewVT(32), treadmarks.NewVT(32)
			for i := range b {
				b[i] = int32(i)
			}
			const n = 1_000_000
			t0 := time.Now()
			for i := 0; i < n; i++ {
				a.MaxInto(b)
			}
			return perOp(t0, n), nil
		}},
	}
	for _, m := range []struct {
		name string
		mode msg.Mode
	}{{"poll", msg.ModePoll}, {"interrupt", msg.ModeInterrupt}, {"udp", msg.ModeUDP}} {
		mode := m.mode
		ps = append(ps, probe{"msg.call_ns." + m.name, "ns", func() (float64, error) { return callProbe(mode) }})
	}
	for _, kind := range interconnect.Kinds {
		kind := kind
		ps = append(ps,
			probe{"interconnect.transfer_ns." + string(kind), "ns", func() (float64, error) { return netProbe(kind, transferLoop) }},
			probe{"interconnect.write_through_ns." + string(kind), "ns", func() (float64, error) { return netProbe(kind, writeThroughLoop) }})
	}
	ps = append(ps, probe{"interconnect.remote_read_ns.rdma", "ns", func() (float64, error) {
		return netProbe(interconnect.RDMA, remoteReadLoop)
	}})
	return ps
}

var sink int

// keep defeats dead-code elimination of a probe's loop.
func keep(x int) { sink += x }

func perOp(t0 time.Time, n int) float64 { return float64(time.Since(t0)) / float64(n) }

// simProbe runs body on every processor of a one-node engine and divides the
// host time by the engine counter ops reads afterwards.
func simProbe(procs int, body func(*sim.Proc), ops func(*sim.Engine) uint64) (float64, error) {
	eng, err := sim.NewEngine(sim.Config{Nodes: 1, ProcsPerNode: procs})
	if err != nil {
		return 0, err
	}
	for _, p := range eng.Procs() {
		eng.Go(p, body)
	}
	t0 := time.Now()
	if err := eng.Run(); err != nil {
		return 0, err
	}
	d := time.Since(t0)
	n := ops(eng)
	if n == 0 {
		return 0, fmt.Errorf("the engine counted no operations")
	}
	return float64(d) / float64(n), nil
}

// cacheProbe walks the L1 model with the given stride.
func cacheProbe(stride uint64) (float64, error) {
	l1, err := cache.New(cache.Alpha21064A)
	if err != nil {
		return 0, err
	}
	const n = 2_000_000
	hits := 0
	t0 := time.Now()
	for i := uint64(0); i < n; i++ {
		if l1.Access(i * stride) {
			hits++
		}
	}
	keep(hits)
	return perOp(t0, n), nil
}

// accessProbe times loop over a 64-page array on one processor after every
// page has been mapped read-write, so no access faults.
func accessProbe(variant string, loop func(p *core.Proc, a core.F64Array, n int)) (float64, error) {
	cfg, err := variants.Config(variant, 1, 1, variants.Options{})
	if err != nil {
		return 0, err
	}
	l := core.NewLayout()
	arr := l.F64Pages(64 * elemsPerPage)
	const n = 1 << 20
	var d time.Duration
	prog := &core.Program{Name: "probe", SharedBytes: l.Size(), Body: func(p *core.Proc) {
		for i := 0; i < arr.N; i += elemsPerPage {
			arr.Set(p, i, 0)
		}
		t0 := time.Now()
		loop(p, arr, n)
		d = time.Since(t0)
	}}
	if _, err := core.Run(cfg, prog); err != nil {
		return 0, err
	}
	return float64(d) / n, nil
}

// diffProbe times MakeDiff (or ApplyDiff of its output) on a page in which
// every stride-th word differs from the twin.
func diffProbe(stride int, apply bool) float64 {
	frame, twin := make([]byte, vm.PageSize), make([]byte, vm.PageSize)
	for i := 0; i < vm.PageSize; i += 8 * stride {
		frame[i] = 1
	}
	runs := treadmarks.MakeDiff(frame, twin)
	const n = 2000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if apply {
			treadmarks.ApplyDiff(twin, runs)
		} else {
			keep(len(treadmarks.MakeDiff(frame, twin)))
		}
	}
	return perOp(t0, n)
}

// twoNodes builds a two-node, one-processor-per-node engine and its fabric.
func twoNodes(kind interconnect.Kind) (*sim.Engine, interconnect.Interconnect, error) {
	cs := interconnect.ClusterSpec{Nodes: 2, ProcsPerNode: 1, MC: interconnect.MCFirstGeneration()}
	if kind != interconnect.MemoryChannel {
		cs.Net = interconnect.Spec{Kind: kind}
	}
	eng, err := sim.NewEngine(cs.EngineConfig())
	if err != nil {
		return nil, nil, err
	}
	net, err := cs.Build(eng)
	return eng, net, err
}

// The fabric ops are declared functions, each running its own loop behind the
// capability check the repository's capsgate analyzer requires of such call
// sites (it does not look for guards inside function literals). They report
// false when the backend lacks the capability.

func transferLoop(net interconnect.Interconnect, p *sim.Proc, n int) bool {
	for i := 0; i < n; i++ {
		net.Transfer(p, 1, vm.PageSize, interconnect.TrafficPage)
	}
	return true
}

func writeThroughLoop(net interconnect.Interconnect, p *sim.Proc, n int) bool {
	if !net.Caps().RemoteWrites {
		return false
	}
	for i := 0; i < n; i++ {
		net.WriteThrough(p, 1, 8)
	}
	return true
}

func remoteReadLoop(net interconnect.Interconnect, p *sim.Proc, n int) bool {
	if !net.Caps().RemoteReads {
		return false
	}
	for i := 0; i < n; i++ {
		net.RemoteRead(p, 1, vm.PageSize, interconnect.TrafficPage)
	}
	return true
}

// netProbe times one of the fabric ops above, issued by node 0.
func netProbe(kind interconnect.Kind, op func(net interconnect.Interconnect, p *sim.Proc, n int) bool) (float64, error) {
	eng, net, err := twoNodes(kind)
	if err != nil {
		return 0, err
	}
	const n = 100000
	var d time.Duration
	ok := false
	eng.Go(eng.Proc(0), func(p *sim.Proc) {
		t0 := time.Now()
		ok = op(net, p, n)
		d = time.Since(t0)
	})
	eng.Go(eng.Proc(1), func(p *sim.Proc) {})
	if err := eng.Run(); err != nil {
		return 0, err
	}
	if !ok {
		return 0, fmt.Errorf("the %s fabric lacks the capability", kind)
	}
	return float64(d) / n, nil
}

// callProbe times Endpoint.Call round trips from node 0 to a serving node 1.
func callProbe(mode msg.Mode) (float64, error) {
	eng, net, err := twoNodes(interconnect.MemoryChannel)
	if err != nil {
		return 0, err
	}
	var eps [2]*msg.Endpoint
	for i := range eps {
		if eps[i], err = msg.NewEndpoint(eng.Proc(i), net, msg.DefaultParams(mode)); err != nil {
			return 0, err
		}
	}
	eps[1].SetHandler(func(m sim.Msg, req msg.Request) { eps[1].Reply(req.From, req, nil, 8) })
	const n = 5000
	var d time.Duration
	eng.Go(eng.Proc(0), func(p *sim.Proc) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			eps[0].Call(eps[1], 0, nil, 64)
		}
		d = time.Since(t0)
		eps[0].Shutdown(eps[1])
	})
	eng.Go(eng.Proc(1), func(p *sim.Proc) { eps[1].ServeUntilShutdown() })
	if err := eng.Run(); err != nil {
		return 0, err
	}
	return float64(d) / n, nil
}

// idlePRatio records the pathology behind the GOMAXPROCS policy: one
// 16-processor simulation's host time with every host CPU available to the
// Go scheduler, over its host time pinned to one. Informational.
func idlePRatio() (float64, error) {
	j := job{
		key: "idle-p", variant: "csm_poll", nodes: 8, ppn: 2,
		build: func() *core.Program { return sor.New(sor.Config{Rows: 192, Cols: 2048, Iters: 2}) },
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	var wide, one []float64
	for i := 0; i < 3; i++ {
		for _, n := range []int{runtime.NumCPU(), 1} {
			runtime.GOMAXPROCS(n)
			t0 := time.Now()
			if _, err := runJob(j, nil); err != nil {
				return 0, err
			}
			if n == 1 {
				one = append(one, time.Since(t0).Seconds())
			} else {
				wide = append(wide, time.Since(t0).Seconds())
			}
		}
	}
	return median(wide) / median(one), nil
}
