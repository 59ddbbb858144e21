package cashmere

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/interconnect"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/vm"
)

// testConfig builds a Cashmere run configuration in the given variant.
func testConfig(nodes, ppn int, variant string, ccfg Config) core.Config {
	cfg := core.Config{
		Nodes:        nodes,
		ProcsPerNode: ppn,
		MC:           interconnect.MCFirstGeneration(),
		Costs:        core.DefaultCosts(),
		NewProtocol:  New(ccfg),
		Variant:      variant,
	}
	switch variant {
	case "csm_pp":
		cfg.DedicatedServer = true
		cfg.Msg = msg.DefaultParams(msg.ModePoll)
	case "csm_int":
		cfg.Msg = msg.DefaultParams(msg.ModeInterrupt)
	default: // csm_poll
		cfg.Msg = msg.DefaultParams(msg.ModePoll)
		cfg.PollingInstrumented = true
	}
	return cfg
}

func TestNoticeList(t *testing.T) {
	nl := newNoticeList(200)
	if !nl.add(5) {
		t.Error("first add rejected")
	}
	if nl.add(5) {
		t.Error("duplicate accepted")
	}
	if !nl.add(130) {
		t.Error("second page rejected")
	}
	got := nl.drain()
	if len(got) != 2 || got[0] != 5 || got[1] != 130 {
		t.Errorf("drain = %v", got)
	}
	for _, w := range nl.bitmap {
		if w != 0 {
			t.Fatalf("drain kept bitmap bits %v", nl.bitmap)
		}
	}
	if !nl.add(5) {
		t.Error("re-add after drain rejected")
	}
}

func TestDoubledAddr(t *testing.T) {
	a := uint64(0x12345)
	d := DoubledAddr(a)
	if d == a {
		t.Error("doubled address equals original")
	}
	// Must flip the 0x2000 bit (different L1 index) and set the MC region.
	if (d^a)&doubleFlip == 0 {
		t.Error("index bit not flipped")
	}
	if d&mcRegionBase == 0 {
		t.Error("MC region bit not set")
	}
}

// TestSharedWriteRejectsNonWordSize: core stores one 8-byte word, so the
// write hook has a single word-move path and refuses any other size.
func TestSharedWriteRejectsNonWordSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("OnSharedWrite with size 4 did not panic")
		}
	}()
	(&Protocol{}).OnSharedWrite(nil, 0, 4)
}

// producerConsumer: rank 0 writes a page-aligned array, barrier, others read.
func producerConsumer(t *testing.T, cfg core.Config, n int) *core.Result {
	t.Helper()
	l := core.NewLayout()
	arr := l.F64Pages(n)
	prog := &core.Program{
		Name:        "prodcons",
		SharedBytes: l.Size(),
		Barriers:    2,
		Body: func(p *core.Proc) {
			if p.Rank() == 0 {
				for i := 0; i < n; i++ {
					arr.Set(p, i, float64(i)+0.5)
				}
			}
			p.Barrier(0)
			sum := 0.0
			for i := 0; i < n; i++ {
				sum += arr.At(p, i)
			}
			want := float64(n*(n-1))/2 + 0.5*float64(n)
			if sum != want {
				t.Errorf("rank %d sum = %v, want %v", p.Rank(), sum, want)
			}
			p.Barrier(1)
			p.Finish()
		},
	}
	res, err := core.Run(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestProducerConsumerAcrossNodes(t *testing.T) {
	res := producerConsumer(t, testConfig(2, 1, "csm_poll", Config{}), 3000)
	if res.Total.PageTransfers == 0 {
		t.Error("no page transfers for cross-node sharing")
	}
	if res.Total.ReadFaults == 0 || res.Total.WriteFaults == 0 {
		t.Errorf("faults: %d read, %d write", res.Total.ReadFaults, res.Total.WriteFaults)
	}
	if res.Traffic["page"] == 0 {
		t.Error("no page traffic recorded")
	}
	if res.Traffic["doubling"] == 0 {
		t.Error("no write-through traffic recorded")
	}
}

func TestProducerConsumerSameNode(t *testing.T) {
	res := producerConsumer(t, testConfig(1, 4, "csm_poll", Config{}), 2000)
	// All sharing is intra-node: pages are copied locally, never transferred.
	if res.Total.PageTransfers != 0 {
		t.Errorf("same-node run did %d page transfers", res.Total.PageTransfers)
	}
	if res.Total.PageCopies == 0 {
		t.Error("no local page copies")
	}
}

func TestVariantsProduceSameData(t *testing.T) {
	for _, v := range []string{"csm_pp", "csm_int", "csm_poll"} {
		producerConsumer(t, testConfig(2, 2, v, Config{}), 1500)
	}
}

func TestVariantTimingOrder(t *testing.T) {
	// For a fetch-heavy workload, interrupts must be slowest; the dedicated
	// protocol processor (emulated remote reads) must beat polling compute
	// processors that are busy.
	times := make(map[string]sim.Time)
	for _, v := range []string{"csm_pp", "csm_int", "csm_poll"} {
		res := producerConsumer(t, testConfig(2, 1, v, Config{}), 4000)
		times[v] = res.Time
	}
	if !(times["csm_poll"] < times["csm_int"]) {
		t.Errorf("polling %d not faster than interrupts %d", times["csm_poll"], times["csm_int"])
	}
	if !(times["csm_pp"] < times["csm_int"]) {
		t.Errorf("protocol processor %d not faster than interrupts %d", times["csm_pp"], times["csm_int"])
	}
}

func TestLockMutualExclusion(t *testing.T) {
	l := core.NewLayout()
	counter := l.I64Pages(1)
	const perProc = 30
	prog := &core.Program{
		Name:        "lockcount",
		SharedBytes: l.Size(),
		Locks:       1,
		Barriers:    1,
		Body: func(p *core.Proc) {
			for i := 0; i < perProc; i++ {
				p.Lock(0)
				counter.Set(p, 0, counter.At(p, 0)+1)
				p.Unlock(0)
				p.Compute(10 * sim.Microsecond)
			}
			p.Barrier(0)
			if got := counter.At(p, 0); got != int64(perProc*p.NumProcs()) {
				t.Errorf("rank %d: counter = %d, want %d", p.Rank(), got, perProc*p.NumProcs())
			}
			p.Finish()
		},
	}
	res, err := core.Run(testConfig(2, 2, "csm_poll", Config{}), prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.LockAcquires != int64(perProc*4) {
		t.Errorf("lock acquires = %d", res.Total.LockAcquires)
	}
}

func TestBarrierOrdering(t *testing.T) {
	l := core.NewLayout()
	phase := l.I64Pages(8)
	prog := &core.Program{
		Name:        "phases",
		SharedBytes: l.Size(),
		Barriers:    1,
		Body: func(p *core.Proc) {
			for ph := 0; ph < 4; ph++ {
				// Each rank writes its slot; after the barrier everyone must
				// see every slot at the current phase.
				phase.Set(p, p.Rank(), int64(ph))
				p.Barrier(0)
				for r := 0; r < p.NumProcs(); r++ {
					if got := phase.At(p, r); got != int64(ph) {
						t.Errorf("phase %d rank %d sees slot %d = %d", ph, p.Rank(), r, got)
					}
				}
				p.Barrier(0)
			}
			p.Finish()
		},
	}
	if _, err := core.Run(testConfig(2, 2, "csm_poll", Config{}), prog); err != nil {
		t.Fatal(err)
	}
}

// TestExclusiveMode: a page written by one processor and never shared should
// enter exclusive mode after the first release and take no further faults.
func TestExclusiveMode(t *testing.T) {
	run := func(disable bool) *core.Result {
		l := core.NewLayout()
		private := l.F64Pages(512) // rank 0's working page
		other := l.F64Pages(512)   // rank 1 keeps busy elsewhere
		prog := &core.Program{
			Name:        "exclusive",
			SharedBytes: l.Size(),
			Barriers:    1,
			Body: func(p *core.Proc) {
				arr := private
				if p.Rank() == 1 {
					arr = other
				}
				for iter := 0; iter < 5; iter++ {
					for i := 0; i < arr.N; i++ {
						arr.Set(p, i, float64(iter))
					}
					p.Barrier(0)
				}
				p.Finish()
			},
		}
		res, err := core.Run(testConfig(2, 1, "csm_poll", Config{DisableExclusive: disable}), prog)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	with := run(false)
	without := run(true)
	// With exclusive mode: one write fault per page (first touch). Without:
	// a write fault per page per barrier interval.
	if with.Total.WriteFaults >= without.Total.WriteFaults {
		t.Errorf("exclusive mode did not reduce write faults: %d vs %d",
			with.Total.WriteFaults, without.Total.WriteFaults)
	}
	if with.Counters["exclusive_entries"] == 0 {
		t.Error("no exclusive entries recorded")
	}
	if without.Counters["exclusive_entries"] != 0 {
		t.Error("ablation still entered exclusive mode")
	}
}

// TestNLE: when a second processor starts reading an exclusive page, the
// former exclusive holder must resume sending write notices.
func TestNLE(t *testing.T) {
	l := core.NewLayout()
	arr := l.F64Pages(64)
	flag := l.I64Pages(1)
	prog := &core.Program{
		Name:        "nle",
		SharedBytes: l.Size(),
		Locks:       1,
		Barriers:    4,
		Body: func(p *core.Proc) {
			if p.Rank() == 0 {
				// Interval 1: write the page privately -> exclusive mode.
				arr.Set(p, 0, 1)
				p.Barrier(0)
				p.Barrier(1)
				// Interval 2: write again while rank 1 is now sharing.
				arr.Set(p, 0, 2)
				p.Barrier(2)
			} else {
				p.Barrier(0)
				if got := arr.At(p, 0); got != 1 {
					t.Errorf("reader saw %v, want 1", got)
				}
				p.Barrier(1)
				p.Barrier(2)
				// The barrier-2 acquire must have invalidated the page via a
				// write notice (NLE forced rank 0 out of exclusive mode).
				if got := arr.At(p, 0); got != 2 {
					t.Errorf("reader saw %v after writer's new interval, want 2", got)
				}
			}
			_ = flag
			p.Barrier(3)
			p.Finish()
		},
	}
	res, err := core.Run(testConfig(2, 1, "csm_poll", Config{}), prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.WriteNotices == 0 {
		t.Error("no write notices sent")
	}
}

func TestFirstTouchVsRoundRobinHomes(t *testing.T) {
	// With first touch, a processor that writes its own band pays no MC
	// write-through for remote homes... its doubled writes stay local, so
	// doubling traffic still counts but fetches do not occur. Compare home
	// assignment counters instead.
	res := producerConsumer(t, testConfig(2, 1, "csm_poll", Config{}), 2000)
	if res.Counters["home_assignments"] == 0 {
		t.Error("first-touch made no home assignments")
	}
	resRR := producerConsumer(t, testConfig(2, 1, "csm_poll", Config{RoundRobinHomes: true}), 2000)
	if resRR.Counters["home_assignments"] != 0 {
		t.Error("round-robin homes still did first-touch assignments")
	}
}

func TestDeterminism(t *testing.T) {
	r1 := producerConsumer(t, testConfig(2, 2, "csm_poll", Config{}), 2000)
	r2 := producerConsumer(t, testConfig(2, 2, "csm_poll", Config{}), 2000)
	if r1.Time != r2.Time {
		t.Errorf("nondeterministic: %d vs %d", r1.Time, r2.Time)
	}
	if r1.Total.PageTransfers != r2.Total.PageTransfers {
		t.Error("nondeterministic page transfers")
	}
}

func TestMigratorySharing(t *testing.T) {
	// Lock-protected migratory object bouncing between 4 procs on 2 nodes.
	l := core.NewLayout()
	obj := l.F64Pages(16)
	prog := &core.Program{
		Name:        "migratory",
		SharedBytes: l.Size(),
		Locks:       1,
		Barriers:    1,
		Body: func(p *core.Proc) {
			for i := 0; i < 10; i++ {
				p.Lock(0)
				for j := 0; j < obj.N; j++ {
					obj.Set(p, j, obj.At(p, j)+1)
				}
				p.Unlock(0)
				p.Compute(20 * sim.Microsecond)
			}
			p.Barrier(0)
			if p.Rank() == 0 {
				if got := obj.At(p, 0); got != 40 {
					t.Errorf("migratory count = %v, want 40", got)
				}
			}
			p.Finish()
		},
	}
	if _, err := core.Run(testConfig(2, 2, "csm_poll", Config{}), prog); err != nil {
		t.Fatal(err)
	}
}

// TestDirectorySpaceOverhead checks the paper's §2.1 observation: directory
// space for 8-node entries of eight 4-byte words is about 0.4% of an 8 KB
// page per entry (the paper reports ~3% with per-node replication).
func TestDirectorySpaceOverhead(t *testing.T) {
	const entryBytes = 8 * 4
	const pageBytes = 8192
	perPage := float64(entryBytes) / float64(pageBytes)
	replicated := perPage * 8
	if replicated < 0.025 || replicated > 0.04 {
		t.Errorf("replicated directory overhead = %.4f, want ~3%%", replicated)
	}
}

// TestFirstTouchHomePerPage: every page gets its own home, the node of its
// first toucher, even when a neighbouring page is homed elsewhere.
func TestFirstTouchHomePerPage(t *testing.T) {
	var proto *Protocol
	cfg := testConfig(2, 1, "csm_poll", Config{})
	inner := cfg.NewProtocol
	cfg.NewProtocol = func(rt *core.Runtime) core.Protocol {
		proto = inner(rt).(*Protocol)
		return proto
	}
	l := core.NewLayout()
	a := l.F64Pages(1024) // page 0
	b := l.F64Pages(1024) // page 1
	prog := &core.Program{
		Name:        "homes",
		SharedBytes: l.Size(),
		Barriers:    1,
		Body: func(p *core.Proc) {
			if p.Rank() == 0 {
				a.Set(p, 0, 1) // rank 0 (node 0) first-touches page 0
			}
			p.Barrier(0)
			if p.Rank() == 1 {
				b.Set(p, 0, 2) // rank 1 (node 1) first-touches page 1
			}
			p.Finish()
		},
	}
	if _, err := core.Run(cfg, prog); err != nil {
		t.Fatal(err)
	}
	if want := []int32{0, 1}; !slices.Equal(proto.home, want) {
		t.Errorf("page homes = %v, want %v", proto.home, want)
	}
}

// TestWriteThroughFenceAtRelease: a release cannot complete before the
// doubled writes drain; a release after a large write burst must advance the
// clock past the drain horizon.
func TestWriteThroughFenceAtRelease(t *testing.T) {
	l := core.NewLayout()
	arr := l.F64Pages(8192) // 64 KB of doubled writes
	var fenceGap sim.Time
	prog := &core.Program{
		Name:        "fence",
		SharedBytes: l.Size(),
		Locks:       1,
		Barriers:    1,
		Body: func(p *core.Proc) {
			if p.Rank() == 0 {
				p.Lock(0)
				start := p.Sim().Now()
				for i := 0; i < arr.N; i++ {
					arr.Set(p, i, 1)
				}
				p.Unlock(0) // release fences the write-through pipe
				fenceGap = p.Sim().Now() - start
			}
			p.Barrier(0)
			p.Finish()
		},
	}
	if _, err := core.Run(testConfig(2, 1, "csm_poll", Config{}), prog); err != nil {
		t.Fatal(err)
	}
	// 64 KB at 30 MB/s is ~2.2 ms of drain. Write-buffer backpressure makes
	// the writer absorb most of it during the burst itself; the release
	// fence covers the rest. Either way, burst+release cannot complete
	// before the pipe drained.
	if fenceGap < 2*sim.Millisecond {
		t.Errorf("write burst + release took %d ns, below the 2.2 ms drain bound", fenceGap)
	}
}

// BenchmarkDoubledStore times a Cashmere store on one csm_poll processor
// past each page's first store: after one store to each of four pages has
// made its home copy private, every timed store strides to the next page, so
// each write-through reads another page's home frame. One op is one store:
// core's accessor, the doubled word and the write-through charge. A store
// advances the clock about 270 ns, so a b.N past about 700 million runs
// into core's 200-virtual-second bound on a run.
func BenchmarkDoubledStore(b *testing.B) {
	const pages = 4
	cfg := testConfig(1, 1, "csm_poll", Config{})
	l := core.NewLayout()
	arr := l.I64Pages(pages * vm.PageSize / 8)
	stride := vm.PageSize/8 + 1 // the next page, one word further on
	n := b.N
	prog := &core.Program{
		Name:        "doubled-store",
		SharedBytes: l.Size(),
		Body: func(p *core.Proc) {
			for pg := range pages {
				arr.Set(p, pg*vm.PageSize/8, 1)
			}
			b.ResetTimer()
			for i := range n {
				arr.Set(p, i*stride%arr.N, int64(i))
			}
		},
	}
	if _, err := core.Run(cfg, prog); err != nil {
		b.Fatal(err)
	}
}
