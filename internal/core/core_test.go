package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/interconnect"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/vm"
)

func seqConfig() Config {
	return Config{
		Nodes:        1,
		ProcsPerNode: 1,
		MC:           interconnect.MCFirstGeneration(),
		Msg:          msg.DefaultParams(msg.ModePoll),
		Costs:        DefaultCosts(),
		NewProtocol:  NewNullProtocol,
		Variant:      "sequential",
	}
}

func TestCostModel(t *testing.T) {
	c := DefaultCosts()
	if err := c.Validate(); err != nil {
		t.Fatalf("default costs invalid: %v", err)
	}
	bad := c
	bad.PageFault = 0
	if bad.Validate() == nil {
		t.Error("zero PageFault accepted")
	}
	bad = c
	bad.DiffCreateMax = c.DiffCreateMin - 1
	if bad.Validate() == nil {
		t.Error("inverted diff range accepted")
	}
	if got := c.DiffCreate(0, vm.PageSize); got != c.DiffCreateMin {
		t.Errorf("DiffCreate(0) = %d, want min %d", got, c.DiffCreateMin)
	}
	if got := c.DiffCreate(vm.PageSize, vm.PageSize); got != c.DiffCreateMax {
		t.Errorf("DiffCreate(full) = %d, want max %d", got, c.DiffCreateMax)
	}
	if got := c.DiffCreate(2*vm.PageSize, vm.PageSize); got != c.DiffCreateMax {
		t.Errorf("DiffCreate clamping failed: %d", got)
	}
	if got := c.DiffCreate(-4, vm.PageSize); got != c.DiffCreateMin {
		t.Errorf("DiffCreate negative clamping failed: %d", got)
	}
	if c.Copy(1000) != 1000*c.CopyPerByte {
		t.Error("Copy cost wrong")
	}
}

func TestCategoryString(t *testing.T) {
	for cat, want := range map[Category]string{
		CatUser: "User", CatProtocol: "Protocol", CatPolling: "Polling",
		CatDoubling: "Write doubling", NumCategories: "unknown",
	} {
		if got := cat.String(); got != want {
			t.Errorf("Category(%d) = %q, want %q", cat, got, want)
		}
	}
}

func TestLayoutAllocation(t *testing.T) {
	l := NewLayout()
	a := F64Array{Base: l.Alloc(8*10, 8), N: 10}
	if a.Base != 0 {
		t.Errorf("first array at %d", a.Base)
	}
	if b := l.Alloc(8*3, 8); b != 80 {
		t.Errorf("second array at %d, want 80", b)
	}
	c := l.F64Pages(2)
	if c.Base != vm.PageSize {
		t.Errorf("page-aligned array at %d, want %d", c.Base, vm.PageSize)
	}
	if l.Size() != vm.PageSize+16 {
		t.Errorf("Size = %d, want %d", l.Size(), vm.PageSize+16)
	}
	if got := a.Addr(3); got != 24 {
		t.Errorf("Addr(3) = %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range Addr did not panic")
		}
	}()
	a.Addr(10)
}

// TestSharedIndexChecked: At and Set on both array types reject index N and
// -1 with the index and the bound. The check lives in Proc.load/store; one
// past the end still lies inside the mapped page, so without it the access
// would succeed.
func TestSharedIndexChecked(t *testing.T) {
	l := NewLayout()
	f, n := l.F64Pages(4), l.I64Pages(3)
	for _, tc := range []struct {
		name   string
		n      int
		access func(p *Proc, i int)
	}{
		{"F64Array.At", f.N, func(p *Proc, i int) { f.At(p, i) }},
		{"F64Array.Set", f.N, func(p *Proc, i int) { f.Set(p, i, 1) }},
		{"I64Array.At", n.N, func(p *Proc, i int) { n.At(p, i) }},
		{"I64Array.Set", n.N, func(p *Proc, i int) { n.Set(p, i, 1) }},
	} {
		for _, i := range []int{tc.n, -1} {
			prog := &Program{
				Name:        "index",
				SharedBytes: l.Size(),
				Body:        func(p *Proc) { tc.access(p, i) },
			}
			_, err := Run(seqConfig(), prog)
			want := fmt.Sprintf("index %d out of range [0,%d)", i, tc.n)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s(%d): err = %v, want it to contain %q", tc.name, i, err, want)
			}
		}
	}
}

// TestComputeNegativePanics: a negative computation time is a caller bug, as
// it is for Advance and Charge, not a silent no-op.
func TestComputeNegativePanics(t *testing.T) {
	prog := &Program{
		Name:        "negcompute",
		SharedBytes: vmPageSize,
		Body:        func(p *Proc) { p.Compute(-3) },
	}
	_, err := Run(seqConfig(), prog)
	if want := "proc 0 Compute(-3)"; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("err = %v, want it to contain %q", err, want)
	}
}

// TestRunRejectsBadCostJitter: a jitter outside [0, the protocol's declared
// tolerance] fails the run before it starts. NaN is outside every range,
// although it compares false with both bounds.
func TestRunRejectsBadCostJitter(t *testing.T) {
	prog := &Program{Name: "jitter", SharedBytes: vmPageSize, Body: func(p *Proc) {}}
	for _, j := range []float64{-0.5, 1.5, math.NaN()} {
		cfg := seqConfig()
		cfg.Schedule = sim.Schedule{Seed: 1, CostJitter: j}
		if _, err := Run(cfg, prog); err == nil {
			t.Errorf("cost jitter %v: run accepted", j)
		}
	}
}

func TestLayoutBadAlign(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad align did not panic")
		}
	}()
	NewLayout().Alloc(8, 3)
}

func TestSequentialRoundTrip(t *testing.T) {
	l := NewLayout()
	arr := l.F64Pages(1000)
	cnt := l.I64Pages(4)
	prog := &Program{
		Name:        "roundtrip",
		SharedBytes: l.Size(),
		Init: func(w *ImageWriter) {
			for i := 0; i < arr.N; i++ {
				arr.Init(w, i, float64(i)*1.5)
			}
			cnt.Init(w, 0, 7)
		},
		Body: func(p *Proc) {
			sum := 0.0
			for i := 0; i < arr.N; i++ {
				sum += arr.At(p, i)
			}
			want := 1.5 * float64(arr.N*(arr.N-1)) / 2
			if sum != want {
				t.Errorf("sum = %v, want %v", sum, want)
			}
			arr.Set(p, 0, 42)
			if arr.At(p, 0) != 42 {
				t.Error("write lost")
			}
			cnt.Set(p, 1, cnt.At(p, 0)+1)
			if cnt.At(p, 1) != 8 {
				t.Error("i64 write lost")
			}
			p.Compute(100 * sim.Microsecond)
			p.PollPoint()
			p.Lock(0)
			p.Unlock(0)
			p.Barrier(0)
			p.Finish()
			p.ReportCheck("sum", sum)
		},
		Locks:    1,
		Barriers: 1,
	}
	res, err := Run(seqConfig(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.Procs != 1 {
		t.Errorf("Procs = %d", res.Procs)
	}
	if res.Time <= 0 {
		t.Errorf("Time = %d", res.Time)
	}
	st := res.PerProc[0]
	if st.ReadFaults == 0 {
		t.Error("no read faults recorded")
	}
	if st.Cat[CatUser] <= 100*sim.Microsecond {
		t.Errorf("user time %d too small", st.Cat[CatUser])
	}
	if st.LockAcquires != 1 || st.Barriers != 1 {
		t.Errorf("sync counters: %d locks, %d barriers", st.LockAcquires, st.Barriers)
	}
	if res.Checks["sum"] == 0 {
		t.Error("check not reported")
	}
	if res.Variant != "sequential" || res.Program != "roundtrip" {
		t.Errorf("labels: %q %q", res.Variant, res.Program)
	}
}

func TestSequentialDeterminism(t *testing.T) {
	l := NewLayout()
	arr := l.F64Pages(500)
	mk := func() *Program {
		return &Program{
			Name:        "det",
			SharedBytes: l.Size(),
			Body: func(p *Proc) {
				for i := 0; i < arr.N; i++ {
					arr.Set(p, i, float64(i))
					p.Compute(50 * sim.Nanosecond)
				}
				p.Finish()
			},
		}
	}
	r1, err := Run(seqConfig(), mk())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(seqConfig(), mk())
	if err != nil {
		t.Fatal(err)
	}
	if r1.Time != r2.Time {
		t.Errorf("nondeterministic: %d vs %d", r1.Time, r2.Time)
	}
}

func TestCacheModelCharges(t *testing.T) {
	l := NewLayout()
	arr := l.F64Pages(8192) // 64 KB: four 16 KB caches' worth
	run := func(withCache bool) *Result {
		cfg := seqConfig()
		if withCache {
			c := cache.Alpha21064A
			cfg.Cache = &c
		}
		prog := &Program{
			Name:        "cache",
			SharedBytes: l.Size(),
			Body: func(p *Proc) {
				for pass := 0; pass < 4; pass++ {
					for i := 0; i < arr.N; i++ {
						arr.Set(p, i, 1)
					}
				}
				p.Finish()
			},
		}
		res, err := Run(cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	with, without := run(true), run(false)
	if with.Time <= without.Time {
		t.Errorf("cache-model run %d not slower than no-cache %d", with.Time, without.Time)
	}
	if with.PerProc[0].CacheMisses == 0 {
		t.Error("no cache misses recorded")
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := seqConfig()
	cfg.Nodes = 0
	if _, err := Run(cfg, &Program{Body: func(p *Proc) {}}); err == nil {
		t.Error("bad shape accepted")
	}
	cfg = seqConfig()
	cfg.NewProtocol = nil
	if _, err := Run(cfg, &Program{Body: func(p *Proc) {}}); err == nil {
		t.Error("nil protocol accepted")
	}
	if _, err := Run(seqConfig(), &Program{Name: "nobody"}); err == nil {
		t.Error("nil body accepted")
	}
}

func TestNullProtocolRequiresOneProc(t *testing.T) {
	cfg := seqConfig()
	cfg.ProcsPerNode = 2
	_, err := Run(cfg, &Program{Body: func(p *Proc) {}})
	if err == nil {
		t.Error("NullProtocol with 2 procs accepted")
	}
}

func TestStatsCommWaitAndAdd(t *testing.T) {
	var s Stats
	s.FinishedAt = 1000
	s.Cat[CatUser] = 300
	s.Cat[CatProtocol] = 200
	if s.CommWait() != 500 {
		t.Errorf("CommWait = %d, want 500", s.CommWait())
	}
	var tot Stats
	tot.Add(&s)
	tot.Add(&s)
	if tot.Cat[CatUser] != 600 || tot.FinishedAt != 1000 {
		t.Errorf("Add wrong: %+v", tot)
	}
	s2 := s
	s2.FinishedAt = 100 // over-charged: clamp to zero
	if s2.CommWait() != 0 {
		t.Errorf("CommWait clamp failed: %d", s2.CommWait())
	}
}

func TestImageWriterOutOfRangePanics(t *testing.T) {
	l := NewLayout()
	l.Alloc(8, 8)
	prog := &Program{
		Name:        "oob",
		SharedBytes: l.Size(),
		Init: func(w *ImageWriter) {
			w.WriteF64(1<<30, 1) // far outside
		},
		Body: func(p *Proc) {},
	}
	if _, err := Run(seqConfig(), prog); err == nil {
		t.Error("out-of-segment init write did not fail the run")
	}
}

func TestSpinWaitServicesAndBounds(t *testing.T) {
	// SpinWait must advance virtual time while waiting and panic (failing
	// the run) when the condition never becomes true.
	cfg := seqConfig()
	prog := &Program{
		Name:        "spin",
		SharedBytes: vmPageSize,
		Body: func(p *Proc) {
			deadline := p.Sim().Now() + 100*sim.Microsecond
			p.SpinWait("until deadline", func() bool { return p.Sim().Now() >= deadline })
			if p.Sim().Now() < deadline {
				t.Error("SpinWait returned early")
			}
		},
	}
	if _, err := Run(cfg, prog); err != nil {
		t.Fatal(err)
	}
	hang := &Program{
		Name:        "spinhang",
		SharedBytes: vmPageSize,
		Body: func(p *Proc) {
			p.SpinWait("never", func() bool { return false })
		},
	}
	if _, err := Run(cfg, hang); err == nil {
		t.Error("livelocked SpinWait did not fail the run")
	}
}

// TestSpinWaitAllocatesNothing pins the spin state living in the Proc: once
// the poll is bound (the first spin), a SpinWait with a non-capturing
// condition must not touch the heap, however many probes it takes.
func TestSpinWaitAllocatesNothing(t *testing.T) {
	prog := &Program{
		Name:        "spinalloc",
		SharedBytes: vmPageSize,
		Body: func(p *Proc) {
			probes := 0
			cond := func() bool { probes++; return probes%8 == 0 }
			p.SpinWait("warm-up", cond)
			if n := testing.AllocsPerRun(50, func() { p.SpinWait("steady", cond) }); n != 0 {
				t.Errorf("SpinWait allocated %v objects per call, want 0", n)
			}
		},
	}
	if _, err := Run(seqConfig(), prog); err != nil {
		t.Fatal(err)
	}
}

func TestChargeCategories(t *testing.T) {
	cfg := seqConfig()
	prog := &Program{
		Name:        "cats",
		SharedBytes: vmPageSize,
		Body: func(p *Proc) {
			p.Charge(CatProtocol, 100)
			p.ChargeProtocol(50)
			p.Charge(CatDoubling, 25)
			p.Finish()
			st := p.Snapshot()
			if st.Cat[CatProtocol] != 150 || st.Cat[CatDoubling] != 25 {
				t.Errorf("categories: %+v", st.Cat)
			}
		},
	}
	if _, err := Run(cfg, prog); err != nil {
		t.Fatal(err)
	}
}

func TestMaterializedFrame(t *testing.T) {
	cfg := seqConfig()
	l := NewLayout()
	arr := l.F64Pages(4)
	prog := &Program{
		Name:        "mat",
		SharedBytes: l.Size(),
		Init:        func(w *ImageWriter) { arr.Init(w, 2, 9.5) },
		Body: func(p *Proc) {
			fr := p.MaterializedFrame(0)
			if fr == nil {
				t.Fatal("nil frame")
			}
			if got := arr.At(p, 2); got != 9.5 {
				t.Errorf("image value = %v", got)
			}
			if &p.MaterializedFrame(0)[0] != &fr[0] {
				t.Error("MaterializedFrame reallocated")
			}
		},
	}
	if _, err := Run(cfg, prog); err != nil {
		t.Fatal(err)
	}
}

// revokeProtocol is the baseline with one request kind: its handler makes the
// requested page inaccessible on the serving processor, as a TreadMarks
// invalidation would. The re-fault copies the initial image over the frame.
type revokeProtocol struct {
	NullProtocol
	revokedAt sim.Time
	faultsAt  []sim.Time // rank 0's faults on the revoked page
}

func (r *revokeProtocol) Setup(rt *Runtime) {}

func (r *revokeProtocol) fault(p *Proc, page int) {
	if p.Rank() == 0 && page == 0 {
		r.faultsAt = append(r.faultsAt, p.Sim().Now())
	}
	r.mapPage(p, page)
}

func (r *revokeProtocol) OnReadFault(p *Proc, page int)  { r.fault(p, page) }
func (r *revokeProtocol) OnWriteFault(p *Proc, page int) { r.fault(p, page) }

func (r *revokeProtocol) Service(p *Proc, m sim.Msg, req msg.Request) {
	page := req.Data.(int)
	p.Space().SetProt(page, vm.ProtNone)
	r.revokedAt = p.Sim().Now()
}

// TestRangeAccessorsRefaultAfterHandlerRevokes: a request handler, run from
// the checkpoint of one element of a ReadF64Range/WriteF64Range, takes the
// page away; the very next element must fault rather than use a frame looked
// up earlier in the run.
func TestRangeAccessorsRefaultAfterHandlerRevokes(t *testing.T) {
	const elems = vm.PageSize / 8
	for _, write := range []bool{false, true} {
		var proto *revokeProtocol
		cfg := seqConfig()
		cfg.ProcsPerNode = 2
		cfg.NewProtocol = func(rt *Runtime) Protocol {
			proto = &revokeProtocol{NullProtocol: NullProtocol{rt: rt}}
			return proto
		}
		l := NewLayout()
		arr := l.F64Pages(elems)
		prog := &Program{
			Name:        "revoke",
			SharedBytes: l.Size(),
			Init: func(w *ImageWriter) {
				for i := 0; i < elems; i++ {
					w.WriteF64(arr.Addr(i), -1)
				}
			},
			Body: func(p *Proc) {
				if p.Rank() == 1 {
					// Lands while rank 0 is part-way through the page, which
					// takes it 10 us.
					p.EP().Send(p.Runtime().ComputeProcs()[0].EP(), 0, 0, 8)
					return
				}
				buf := make([]float64, elems)
				if !write {
					p.ReadF64Range(arr.Addr(0), buf)
					return
				}
				for i := range buf {
					buf[i] = float64(i)
				}
				p.WriteF64Range(arr.Addr(0), buf)
				// Stores before the revocation were overwritten by the
				// re-fault's image copy; every later one must have landed
				// after it.
				revoked := false
				for i := range buf {
					switch got := arr.At(p, i); {
					case got == float64(i):
						revoked = true
					case got != -1 || revoked:
						t.Errorf("write: element %d = %v after the run", i, got)
					}
				}
				if !revoked {
					t.Error("write: no store reached the remapped frame")
				}
			},
		}
		if _, err := Run(cfg, prog); err != nil {
			t.Fatal(err)
		}
		// First touch, then the re-fault: taken at the clock the handler
		// returned at, i.e. before another element was charged.
		if len(proto.faultsAt) != 2 || proto.faultsAt[1] != proto.revokedAt || proto.revokedAt == 0 {
			t.Errorf("write=%v: faults on the page at %v, revoked at %d", write, proto.faultsAt, proto.revokedAt)
		}
	}
}

const vmPageSize = 8192

// BenchmarkSharedAccess measures the simulator's shared-memory fast path
// (page-table check, cache model, cost accounting).
func BenchmarkSharedAccess(b *testing.B) {
	cfg := seqConfig()
	c := cache.Alpha21064A
	cfg.Cache = &c
	l := NewLayout()
	arr := l.F64Pages(8192)
	n := b.N
	prog := &Program{
		Name:        "hotpath",
		SharedBytes: l.Size(),
		Body: func(p *Proc) {
			for i := 0; i < n; i++ {
				arr.Set(p, i%arr.N, float64(i))
			}
		},
	}
	b.ResetTimer()
	if _, err := Run(cfg, prog); err != nil {
		b.Fatal(err)
	}
}

// readSink keeps BenchmarkSharedRead's loads live.
var readSink float64

// BenchmarkSharedRead is BenchmarkSharedAccess for loads: sequential scalar
// At reads.
func BenchmarkSharedRead(b *testing.B) {
	cfg := seqConfig()
	c := cache.Alpha21064A
	cfg.Cache = &c
	l := NewLayout()
	arr := l.F64Pages(8192)
	n := b.N
	prog := &Program{
		Name:        "hotpath-read",
		SharedBytes: l.Size(),
		Body: func(p *Proc) {
			s := 0.0
			for i := 0; i < n; i++ {
				s += arr.At(p, i%arr.N)
			}
			readSink = s
		},
	}
	b.ResetTimer()
	if _, err := Run(cfg, prog); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSharedAccessScattered is BenchmarkSharedAccess with consecutive
// accesses 16 pages apart, wrapping over 64 pages: the pattern of the
// applications' column and neighbour-list walks, where no protection lookup
// can be shared between consecutive accesses.
func BenchmarkSharedAccessScattered(b *testing.B) {
	cfg := seqConfig()
	c := cache.Alpha21064A
	cfg.Cache = &c
	l := NewLayout()
	const pages, stride = 64, 16 * vmPageSize / 8
	arr := l.F64Pages(pages * vmPageSize / 8)
	n := b.N
	prog := &Program{
		Name:        "hotpath-scattered",
		SharedBytes: l.Size(),
		Body: func(p *Proc) {
			for i, at := 0, 0; i < n; i++ {
				arr.Set(p, at, float64(i))
				// Stepping 16 pages plus one element visits every element.
				if at += stride + 1; at >= arr.N {
					at -= arr.N
				}
			}
		},
	}
	b.ResetTimer()
	if _, err := Run(cfg, prog); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSharedReadRange measures the bulk read accessor; one op covers a
// 1024-element (one-page) run, so compare per-element cost against
// BenchmarkSharedAccess after dividing by 1024.
func BenchmarkSharedReadRange(b *testing.B) {
	cfg := seqConfig()
	c := cache.Alpha21064A
	cfg.Cache = &c
	l := NewLayout()
	arr := l.F64Pages(8192)
	n := b.N
	prog := &Program{
		Name:        "hotpath-range",
		SharedBytes: l.Size(),
		Body: func(p *Proc) {
			buf := make([]float64, 1024)
			for i := 0; i < n; i++ {
				p.ReadF64Range(arr.Addr((i%8)*1024), buf)
			}
		},
	}
	b.ResetTimer()
	if _, err := Run(cfg, prog); err != nil {
		b.Fatal(err)
	}
}
