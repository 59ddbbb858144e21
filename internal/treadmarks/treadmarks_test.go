package treadmarks

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/interconnect"
	"repro/internal/msg"
	"repro/internal/sim"
)

func testConfig(nodes, ppn int, variant string) core.Config {
	cfg := core.Config{
		Nodes:        nodes,
		ProcsPerNode: ppn,
		MC:           interconnect.MCFirstGeneration(),
		Costs:        core.DefaultCosts(),
		NewProtocol:  New(Config{}),
		Variant:      variant,
	}
	switch variant {
	case "tmk_udp_int":
		cfg.Msg = msg.DefaultParams(msg.ModeUDP)
	case "tmk_mc_int":
		cfg.Msg = msg.DefaultParams(msg.ModeInterrupt)
	default: // tmk_mc_poll
		cfg.Msg = msg.DefaultParams(msg.ModePoll)
		cfg.PollingInstrumented = true
	}
	return cfg
}

// --- unit: vector timestamps -------------------------------------------------

func TestVTBasics(t *testing.T) {
	v := NewVT(4)
	o := VT{1, 0, 3, 0}
	v.MaxInto(o)
	if v[0] != 1 || v[2] != 3 {
		t.Errorf("MaxInto: %v", v)
	}
	if !v.Covers(o) {
		t.Error("v should cover o")
	}
	if o.Covers(VT{2, 0, 0, 0}) {
		t.Error("o should not cover")
	}
	c := v.Clone()
	c[0] = 99
	if v[0] == 99 {
		t.Error("Clone aliases")
	}
	if v.Sum() != 4 {
		t.Errorf("Sum = %d", v.Sum())
	}
}

// Property: MaxInto is a lattice join — commutative, idempotent, monotone.
func TestVTJoinProperties(t *testing.T) {
	f := func(a, b [4]uint8) bool {
		mk := func(x [4]uint8) VT {
			v := NewVT(4)
			for i := range v {
				v[i] = int32(x[i])
			}
			return v
		}
		va, vb := mk(a), mk(b)
		ab := va.Clone()
		ab.MaxInto(vb)
		ba := vb.Clone()
		ba.MaxInto(va)
		// commutative
		for i := range ab {
			if ab[i] != ba[i] {
				return false
			}
		}
		// idempotent
		aa := va.Clone()
		aa.MaxInto(va)
		for i := range aa {
			if aa[i] != va[i] {
				return false
			}
		}
		// monotone: join covers both
		return ab.Covers(va) && ab.Covers(vb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: intervalsSince ships a linear extension of happens-before, with
// each writer's ids ascending and contiguous from the requester's horizon —
// on a hand-built log and on random histories.
func TestSortIntervalsCausal(t *testing.T) {
	st := &pstate{
		vt: VT{1, 2, 1},
		log: [][]Interval{
			{{Proc: 0, ID: 1, VT: VT{1, 0, 0}}},
			{{Proc: 1, ID: 1, VT: VT{0, 1, 0}}, {Proc: 1, ID: 2, VT: VT{0, 2, 1}}},
			{{Proc: 2, ID: 1, VT: VT{0, 1, 1}}},
		},
	}
	check := func(st *pstate, have VT) {
		t.Helper()
		recs := st.intervalsSince(have)
		for i := 0; i < len(recs); i++ {
			for j := i + 1; j < len(recs); j++ {
				// recs[j] must not happen-before recs[i].
				if recs[i].VT.Covers(recs[j].VT) && recs[i].VT.Sum() != recs[j].VT.Sum() {
					t.Errorf("order violates causality: %v before %v", recs[j], recs[i])
				}
			}
		}
		// Per-proc ids must ascend by one from the requester's horizon.
		last := append(VT(nil), have...)
		for _, r := range recs {
			if r.ID != last[r.Proc]+1 {
				t.Errorf("proc %d: id %d follows %d", r.Proc, r.ID, last[r.Proc])
			}
			last[r.Proc] = r.ID
		}
	}
	check(st, NewVT(3))
	if recs := st.intervalsSince(NewVT(3)); len(recs) != 4 {
		t.Errorf("shipped %d of 4 records", len(recs))
	}
	for seed := uint64(1); seed <= 20; seed++ {
		r := testRand(seed)
		st, _ := randomLog(&r, 1+int(r.next()%12), 60)
		check(st, NewVT(len(st.vt)))
	}
}

// --- unit: diffs -------------------------------------------------------------

func TestMakeApplyDiffRoundTrip(t *testing.T) {
	f := func(twin []byte, edits []uint16) bool {
		if len(twin) == 0 {
			twin = []byte{0}
		}
		frame := append([]byte(nil), twin...)
		for _, e := range edits {
			frame[int(e)%len(frame)] ^= byte(e >> 8)
		}
		runs := MakeDiff(frame, twin)
		rebuilt := append([]byte(nil), twin...)
		ApplyDiff(rebuilt, runs)
		return bytes.Equal(rebuilt, frame)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDiffEmptyWhenIdentical(t *testing.T) {
	twin := make([]byte, 256)
	frame := make([]byte, 256)
	if runs := MakeDiff(frame, twin); len(runs) != 0 {
		t.Errorf("identical pages produced %d runs", len(runs))
	}
}

func TestDiffSizes(t *testing.T) {
	twin := make([]byte, 128)
	frame := append([]byte(nil), twin...)
	frame[10], frame[11], frame[50] = 1, 2, 3
	runs := MakeDiff(frame, twin)
	// Word granularity: bytes 10-11 dirty word 8..16, byte 50 dirty word
	// 48..56 — two 8-byte runs.
	d := Diff{Tag: 1, Runs: runs}
	if len(runs) != 2 {
		t.Fatalf("runs = %d, want 2", len(runs))
	}
	if runs[0].Off != 8 || runs[1].Off != 48 {
		t.Errorf("run offsets = %d,%d, want 8,48", runs[0].Off, runs[1].Off)
	}
	if d.Bytes() != 16 {
		t.Errorf("Bytes = %d, want 16", d.Bytes())
	}
	if d.WireBytes() != int64(8*len(runs)+16) {
		t.Errorf("WireBytes = %d", d.WireBytes())
	}
}

// --- integration -------------------------------------------------------------

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

func TestProducerConsumer(t *testing.T) {
	res := producerConsumer(t, testConfig(2, 1, "tmk_mc_poll"), 3000)
	if res.Total.Twins == 0 {
		t.Error("no twins created")
	}
	if res.Total.DiffsCreated == 0 || res.Total.DiffsApplied == 0 {
		t.Errorf("diffs: %d created, %d applied", res.Total.DiffsCreated, res.Total.DiffsApplied)
	}
	if res.Total.Messages == 0 {
		t.Error("no messages counted")
	}
}

func TestAllVariants(t *testing.T) {
	for _, v := range []string{"tmk_udp_int", "tmk_mc_int", "tmk_mc_poll"} {
		producerConsumer(t, testConfig(2, 2, v), 1200)
	}
}

func TestVariantTimingOrder(t *testing.T) {
	times := make(map[string]sim.Time)
	for _, v := range []string{"tmk_udp_int", "tmk_mc_int", "tmk_mc_poll"} {
		times[v] = producerConsumer(t, testConfig(2, 1, v), 2000).Time
	}
	if !(times["tmk_mc_poll"] < times["tmk_mc_int"]) {
		t.Errorf("poll %d not faster than int %d", times["tmk_mc_poll"], times["tmk_mc_int"])
	}
	if !(times["tmk_mc_int"] <= times["tmk_udp_int"]) {
		t.Errorf("mc_int %d not faster than udp_int %d", times["tmk_mc_int"], times["tmk_udp_int"])
	}
}

func TestLockMutualExclusion(t *testing.T) {
	l := core.NewLayout()
	counter := l.I64Pages(1)
	const perProc = 25
	prog := &core.Program{
		Name:        "lockcount",
		SharedBytes: l.Size(),
		Locks:       3,
		Barriers:    1,
		Body: func(p *core.Proc) {
			for i := 0; i < perProc; i++ {
				p.Lock(1)
				counter.Set(p, 0, counter.At(p, 0)+1)
				p.Unlock(1)
				p.Compute(15 * sim.Microsecond)
			}
			p.Barrier(0)
			if got := counter.At(p, 0); got != int64(perProc*p.NumProcs()) {
				t.Errorf("rank %d: counter = %d, want %d", p.Rank(), got, perProc*p.NumProcs())
			}
			p.Finish()
		},
	}
	if _, err := core.Run(testConfig(2, 2, "tmk_mc_poll"), prog); err != nil {
		t.Fatal(err)
	}
}

// TestMultiWriterFalseSharing: two processors write disjoint halves of the
// same page concurrently; after the barrier both halves must be merged.
func TestMultiWriterFalseSharing(t *testing.T) {
	l := core.NewLayout()
	arr := l.F64Pages(1024) // one page per 1024 f64s exactly
	prog := &core.Program{
		Name:        "multiwriter",
		SharedBytes: l.Size(),
		Barriers:    2,
		Body: func(p *core.Proc) {
			n := arr.N
			half := n / 2
			lo, hi := 0, half
			if p.Rank() == 1 {
				lo, hi = half, n
			}
			if p.Rank() < 2 {
				for i := lo; i < hi; i++ {
					arr.Set(p, i, float64(p.Rank()+1))
				}
			}
			p.Barrier(0)
			for i := 0; i < n; i++ {
				want := 1.0
				if i >= half {
					want = 2.0
				}
				if got := arr.At(p, i); got != want {
					t.Fatalf("rank %d: arr[%d] = %v, want %v", p.Rank(), i, got, want)
				}
			}
			p.Barrier(1)
			p.Finish()
		},
	}
	res, err := core.Run(testConfig(2, 1, "tmk_mc_poll"), prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.DiffsApplied == 0 {
		t.Error("multi-writer page merged without diffs?")
	}
}

// TestMigratoryLockChain: data protected by a lock migrating across all
// processors must accumulate correctly (lazy interval propagation through
// the lock's sync chain).
func TestMigratoryLockChain(t *testing.T) {
	l := core.NewLayout()
	obj := l.F64Pages(32)
	prog := &core.Program{
		Name:        "migratory",
		SharedBytes: l.Size(),
		Locks:       1,
		Barriers:    1,
		Body: func(p *core.Proc) {
			for round := 0; round < 8; round++ {
				p.Lock(0)
				for j := 0; j < obj.N; j++ {
					obj.Set(p, j, obj.At(p, j)+1)
				}
				p.Unlock(0)
				p.Compute(30 * sim.Microsecond)
			}
			p.Barrier(0)
			if got := obj.At(p, 0); got != float64(8*p.NumProcs()) {
				t.Errorf("rank %d: obj = %v, want %v", p.Rank(), got, 8*p.NumProcs())
			}
			p.Finish()
		},
	}
	if _, err := core.Run(testConfig(2, 2, "tmk_mc_poll"), prog); err != nil {
		t.Fatal(err)
	}
}

// TestCausalChain: writes propagate transitively through different locks
// (A writes x under L0; B reads x, writes y under L1; C reads both).
func TestCausalChain(t *testing.T) {
	l := core.NewLayout()
	x := l.F64Pages(1)
	y := l.F64Pages(1)
	seq := l.I64Pages(1)
	prog := &core.Program{
		Name:        "causal",
		SharedBytes: l.Size(),
		Locks:       2,
		Barriers:    1,
		Body: func(p *core.Proc) {
			switch p.Rank() {
			case 0:
				p.Lock(0)
				x.Set(p, 0, 41)
				seq.Set(p, 0, 1)
				p.Unlock(0)
			case 1:
				for {
					p.Lock(0)
					s := seq.At(p, 0)
					if s >= 1 {
						v := x.At(p, 0)
						p.Unlock(0)
						p.Lock(1)
						y.Set(p, 0, v+1)
						seq.Set(p, 0, 2)
						p.Unlock(1)
						break
					}
					p.Unlock(0)
					p.Compute(50 * sim.Microsecond)
				}
			case 2:
				for {
					p.Lock(1)
					s := seq.At(p, 0)
					if s >= 2 {
						// x's write must be visible transitively through the
						// L0 -> rank1 -> L1 chain.
						if got := x.At(p, 0); got != 41 {
							t.Errorf("causal x = %v, want 41", got)
						}
						if got := y.At(p, 0); got != 42 {
							t.Errorf("causal y = %v, want 42", got)
						}
						p.Unlock(1)
						break
					}
					p.Unlock(1)
					p.Compute(50 * sim.Microsecond)
				}
			}
			p.Barrier(0)
			p.Finish()
		},
	}
	if _, err := core.Run(testConfig(3, 1, "tmk_mc_poll"), prog); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminism(t *testing.T) {
	r1 := producerConsumer(t, testConfig(2, 2, "tmk_mc_poll"), 1500)
	r2 := producerConsumer(t, testConfig(2, 2, "tmk_mc_poll"), 1500)
	if r1.Time != r2.Time {
		t.Errorf("nondeterministic: %d vs %d", r1.Time, r2.Time)
	}
	if r1.Total.Messages != r2.Total.Messages {
		t.Error("nondeterministic message count")
	}
}

func TestDedicatedServerRejected(t *testing.T) {
	cfg := testConfig(2, 1, "tmk_mc_poll")
	cfg.DedicatedServer = true
	_, err := core.Run(cfg, &core.Program{Name: "x", SharedBytes: 8192, Body: func(p *core.Proc) {}})
	if err == nil {
		t.Error("dedicated-server TreadMarks accepted")
	}
}

// TestRepeatedBarriers stresses interval logs and barrier manager state
// reuse across many phases.
func TestRepeatedBarriers(t *testing.T) {
	l := core.NewLayout()
	arr := l.F64Pages(256)
	prog := &core.Program{
		Name:        "phases",
		SharedBytes: l.Size(),
		Barriers:    1,
		Body: func(p *core.Proc) {
			n := p.NumProcs()
			for phase := 0; phase < 6; phase++ {
				// Round-robin band ownership each phase.
				owner := phase % n
				if p.Rank() == owner {
					for i := 0; i < arr.N; i++ {
						arr.Set(p, i, float64(phase*100+i))
					}
				}
				p.Barrier(0)
				if got := arr.At(p, 7); got != float64(phase*100+7) {
					t.Fatalf("phase %d rank %d: got %v", phase, p.Rank(), got)
				}
				p.Barrier(0)
			}
			p.Finish()
		},
	}
	if _, err := core.Run(testConfig(2, 2, "tmk_mc_poll"), prog); err != nil {
		t.Fatal(err)
	}
}

// TestDiffBirthStamps: a diff created after several re-noticed intervals
// must be ordered by its twin's birth notice, not its latest coverage tag.
func TestDiffBirthStamps(t *testing.T) {
	var proto *Protocol
	cfg := testConfig(2, 1, "tmk_mc_poll")
	inner := cfg.NewProtocol
	cfg.NewProtocol = func(rt *core.Runtime) core.Protocol {
		p := inner(rt).(*Protocol)
		proto = p
		return p
	}
	l := core.NewLayout()
	arr := l.F64Pages(64)
	sync := l.F64Pages(1)
	prog := &core.Program{
		Name:        "birth",
		SharedBytes: l.Size(),
		Locks:       1,
		Barriers:    2,
		Body: func(p *core.Proc) {
			if p.Rank() == 0 {
				arr.Set(p, 0, 1) // twin born here
				// Several unrelated sync ops re-notice the dirty page.
				for i := 0; i < 3; i++ {
					p.Lock(0)
					sync.Set(p, 0, float64(i))
					p.Unlock(0)
				}
			}
			p.Barrier(0)
			if p.Rank() == 1 {
				if got := arr.At(p, 0); got != 1 {
					t.Errorf("reader got %v", got)
				}
			}
			p.Barrier(1)
			p.Finish()
		},
	}
	if _, err := core.Run(cfg, prog); err != nil {
		t.Fatal(err)
	}
	// Rank 0's stored diff for arr's page: coverage tag is the latest
	// covering interval, birth stamp is the first (VT[0] of the stamp is
	// the birth id, below the tag).
	st := proto.ps[0]
	page := 0
	ds := st.diffs[page]
	if len(ds) == 0 {
		t.Fatal("no stored diff")
	}
	d := ds[0]
	if d.VT[0] > d.Tag {
		t.Errorf("birth stamp %v exceeds coverage tag %d", d.VT, d.Tag)
	}
	if d.VT[0] < 1 {
		t.Errorf("birth stamp %v missing", d.VT)
	}
}
