package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/variants"
)

// The traced pass measures every layer from outside: a decorator around
// core.Config.NewProtocol records a span for each call that crosses the
// core.Protocol boundary and captures the run's *core.Runtime in Setup, from
// which the engine's and the interconnect's exact counters are read when the
// run ends. Spans stay in memory and are written when the benchmark ends.

type opKind uint8

const (
	opReadFault opKind = iota
	opWriteFault
	opLock
	opUnlock
	opBarrier
	opService
	opSharedWrite
	numOps
	// opSpec and opPass are the two outer span levels.
	opSpec
	opPass
)

var opNames = [...]string{
	opReadFault: "read_fault", opWriteFault: "write_fault", opLock: "lock", opUnlock: "unlock",
	opBarrier: "barrier", opService: "service", opSharedWrite: "shared_write",
	opSpec: "spec", opPass: "pass",
}

// sharedWriteSample: OnSharedWrite runs once per store (tens of millions per
// pass) and takes about as long as reading the clock, so every call is
// counted but only one in sharedWriteSample is timed, and it gets no span.
const sharedWriteSample = 64

// maxSpans bounds the span file; counts and times are always complete.
const maxSpans = 100_000

type span struct {
	Op     string `json:"op"`
	Spec   string `json:"spec,omitempty"`
	Proc   int    `json:"proc,omitempty"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Dropped, on the pass span, counts the spans beyond maxSpans.
	Dropped int64 `json:"spans_dropped,omitempty"`
}

type opAgg struct {
	count int64
	ns    int64
}

// families the protocol ops are reported under.
const (
	famCashmere = iota
	famTreadmarks
	numFamilies
)

var familyNames = [numFamilies]string{"cashmere", "treadmarks"}

// familyOf is the family a variant's protocol ops are reported under, or -1
// for the sequential baseline, whose ops are not reported.
func familyOf(variant string) int {
	switch {
	case variant == variants.Sequential:
		return -1
	case variants.IsCashmere(variant):
		return famCashmere
	default:
		return famTreadmarks
	}
}

// tracer accumulates one traced pass. Runs of sweep_parallel finish
// concurrently, so merging is locked; inside one run the simulator's baton
// already serialises everything.
type tracer struct {
	epoch time.Time
	keep  bool // record spans (first traced pass only)

	mu           sync.Mutex
	ops          [numFamilies][numOps]opAgg
	handoffs     uint64
	elided       uint64
	inlinePolls  uint64
	transfers    int64
	trafficBytes int64
	spans        []span
	spansDropped int64
	nextID       int32
}

func newTracer(keep bool) *tracer {
	t := &tracer{epoch: time.Now(), keep: keep}
	if keep {
		t.spans = append(t.spans, span{Op: opNames[opPass], ID: 0, Parent: -1})
		t.nextID = 1
	}
	return t
}

func (t *tracer) since() int64 { return int64(time.Since(t.epoch)) }

// runTrace is the decorator's state for one core.Run.
type runTrace struct {
	t      *tracer
	key    string
	family int // familyOf the run's variant
	rt     *core.Runtime
	start  int64
	ops    [numOps]opAgg
	writes uint64
	spans  []span
	open   [][]int32 // per simulated processor: ids of its open spans
}

// wrap returns a NewProtocol that decorates the protocol mk builds.
func (t *tracer) wrap(mk func(*core.Runtime) core.Protocol, key, variant string) (func(*core.Runtime) core.Protocol, *runTrace) {
	r := &runTrace{t: t, key: key, family: familyOf(variant), start: t.since()}
	return func(rt *core.Runtime) core.Protocol {
		return &tracedProtocol{inner: mk(rt), r: r}
	}, r
}

// finish folds the run into the tracer; called after core.Run returned.
func (r *runTrace) finish() {
	end := r.t.since()
	t := r.t
	t.mu.Lock()
	defer t.mu.Unlock()
	if r.rt != nil {
		eng, net := r.rt.Engine(), r.rt.Net()
		t.handoffs += eng.DirectHandoffs()
		t.elided += eng.ElidedYields()
		t.inlinePolls += eng.InlinePolls()
		t.transfers += net.Transfers()
		t.trafficBytes += net.TotalTraffic()
	}
	if r.family >= 0 {
		for op := range r.ops {
			t.ops[r.family][op].count += r.ops[op].count
			t.ops[r.family][op].ns += r.ops[op].ns
		}
	}
	if !t.keep {
		return
	}
	// Span ids were local to the run; shift them into the pass's id space
	// under one spec span.
	specID := t.nextID
	base := specID + 1
	t.nextID += 1 + int32(len(r.spans))
	if len(t.spans)+1+len(r.spans) > maxSpans {
		t.spansDropped += 1 + int64(len(r.spans))
		return
	}
	t.spans = append(t.spans, span{Op: opNames[opSpec], Spec: r.key, ID: specID, Parent: 0, Start: r.start, End: end})
	for _, s := range r.spans {
		s.ID += base
		if s.Parent < 0 {
			s.Parent = specID
		} else {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
}

// begin opens a span on p's stack; end closes it.
func (r *runTrace) begin(p *core.Proc, op opKind) (id int32, start int64) {
	start = r.t.since()
	if !r.t.keep || len(r.spans) >= maxSpans {
		return -1, start
	}
	proc := p.Sim().ID
	parent := int32(-1)
	if st := r.open[proc]; len(st) > 0 {
		parent = st[len(st)-1]
	}
	id = int32(len(r.spans))
	r.spans = append(r.spans, span{Op: opNames[op], Proc: proc, ID: id, Parent: parent, Start: start})
	r.open[proc] = append(r.open[proc], id)
	return id, start
}

func (r *runTrace) end(p *core.Proc, op opKind, id int32, start int64) {
	now := r.t.since()
	r.ops[op].count++
	r.ops[op].ns += now - start
	if id >= 0 {
		r.spans[id].End = now
		proc := p.Sim().ID
		r.open[proc] = r.open[proc][:len(r.open[proc])-1]
	}
}

// tracedProtocol forwards every core.Protocol call to inner, timing it. It
// also forwards the two optional interfaces core.Run looks for, so the run
// commits to the same engine mode as an undecorated one.
type tracedProtocol struct {
	inner core.Protocol
	r     *runTrace
}

func (tp *tracedProtocol) Name() string { return tp.inner.Name() }

func (tp *tracedProtocol) Setup(rt *core.Runtime) {
	tp.r.rt = rt
	tp.r.open = make([][]int32, rt.Engine().NumProcs())
	tp.inner.Setup(rt)
}

func (tp *tracedProtocol) OnReadFault(p *core.Proc, page int) {
	id, t0 := tp.r.begin(p, opReadFault)
	tp.inner.OnReadFault(p, page)
	tp.r.end(p, opReadFault, id, t0)
}

func (tp *tracedProtocol) OnWriteFault(p *core.Proc, page int) {
	id, t0 := tp.r.begin(p, opWriteFault)
	tp.inner.OnWriteFault(p, page)
	tp.r.end(p, opWriteFault, id, t0)
}

func (tp *tracedProtocol) OnSharedWrite(p *core.Proc, addr core.Addr, size int) {
	r := tp.r
	r.writes++
	r.ops[opSharedWrite].count++
	if r.writes%sharedWriteSample != 0 {
		tp.inner.OnSharedWrite(p, addr, size)
		return
	}
	t0 := time.Now()
	tp.inner.OnSharedWrite(p, addr, size)
	r.ops[opSharedWrite].ns += int64(time.Since(t0)) * sharedWriteSample
}

func (tp *tracedProtocol) WantsWriteHook() bool { return tp.inner.WantsWriteHook() }

func (tp *tracedProtocol) Lock(p *core.Proc, id int) {
	sid, t0 := tp.r.begin(p, opLock)
	tp.inner.Lock(p, id)
	tp.r.end(p, opLock, sid, t0)
}

func (tp *tracedProtocol) Unlock(p *core.Proc, id int) {
	sid, t0 := tp.r.begin(p, opUnlock)
	tp.inner.Unlock(p, id)
	tp.r.end(p, opUnlock, sid, t0)
}

func (tp *tracedProtocol) Barrier(p *core.Proc, id int) {
	sid, t0 := tp.r.begin(p, opBarrier)
	tp.inner.Barrier(p, id)
	tp.r.end(p, opBarrier, sid, t0)
}

func (tp *tracedProtocol) Service(p *core.Proc, m sim.Msg, req msg.Request) {
	id, t0 := tp.r.begin(p, opService)
	tp.inner.Service(p, m, req)
	tp.r.end(p, opService, id, t0)
}

func (tp *tracedProtocol) Finalize(p *core.Proc) { tp.inner.Finalize(p) }

func (tp *tracedProtocol) Counters() map[string]int64 { return tp.inner.Counters() }

func (tp *tracedProtocol) DomainSafe() bool {
	ds, ok := tp.inner.(core.DomainSafety)
	return ok && ds.DomainSafe()
}

func (tp *tracedProtocol) MaxCostJitter() float64 {
	if sp, ok := tp.inner.(core.SchedulePerturbable); ok {
		return sp.MaxCostJitter()
	}
	return 0
}

// writeSpans writes the kept pass as JSON lines.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.spans[0].Dropped = t.spansDropped
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// opMetric names a protocol op metric, e.g. cashmere.read_fault.count.
func opMetric(family int, op opKind, suffix string) string {
	return strings.Join([]string{familyNames[family], opNames[op], suffix}, ".")
}
