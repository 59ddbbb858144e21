package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/cache"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/vm"
)

// Quantum bounds how far a processor's clock may run ahead between
// scheduling points; it also slices Compute so interrupt-mode requests are
// noticed with bounded delay (the real interrupt latency dominates it).
const Quantum = 5 * sim.Microsecond

// Proc is one simulated processor's DSM context: the simulation processor,
// its page table and frames, its L1 model, its messaging endpoint, and its
// statistics. Application bodies receive a *Proc and perform all shared
// accesses, synchronization, and computation through it.
type Proc struct {
	sp    *sim.Proc
	ep    *msg.Endpoint
	space *vm.Space
	l1    *cache.L1
	rt    *Runtime

	rank  int // compute rank, or -1 for a dedicated protocol processor
	costs CostModel

	proto     Protocol
	writeHook bool

	// noFastPath (SIM_NO_FASTPATH) disables the CheckpointQuiet guard so
	// every checkpoint polls and tests the quantum, letting tests assert that
	// skipping quiet checkpoints leaves results byte-identical.
	noFastPath bool

	stats    Stats
	snap     Stats // frozen copy taken at Finish
	finished bool

	checks map[string]float64

	// spin is the SpinWait in flight and spinPoll the poll that steps it,
	// bound once per processor, so a spin allocates nothing.
	spin     spinState
	spinPoll func() (bool, sim.Time)
}

// spinState is one SpinWait: its condition and the spin it steps.
type spinState struct {
	Spin
	cond func() bool
}

// Spin is the resumable part of a spin loop — what happens after a probe has
// failed: the livelock deadline and the exponential backoff step. SpinWait is
// a condition plus one Spin; a wait that spans several spins (Cashmere's lock
// acquire) owns a Spin and drives it from its own PollWait step function with
// SpinBegin and SpinBackoff, so there is one copy of the sequence and of its
// constants.
type Spin struct {
	what     string
	deadline sim.Time
	step     sim.Time
}

// Rank returns the processor's compute rank (0-based), or -1 for a dedicated
// protocol processor.
func (p *Proc) Rank() int { return p.rank }

// NumProcs returns the number of compute processors in the run.
func (p *Proc) NumProcs() int { return len(p.rt.computeProcs) }

// Node returns the processor's SMP node.
func (p *Proc) Node() int { return p.sp.Node }

// Sim returns the underlying simulation processor.
func (p *Proc) Sim() *sim.Proc { return p.sp }

// EP returns the processor's messaging endpoint (for protocol use).
func (p *Proc) EP() *msg.Endpoint { return p.ep }

// Space returns the processor's page table (for protocol use).
func (p *Proc) Space() *vm.Space { return p.space }

// Runtime returns the owning runtime.
func (p *Proc) Runtime() *Runtime { return p.rt }

// Costs returns the cost model.
func (p *Proc) Costs() CostModel { return p.costs }

// Stats returns the processor's statistics (live; snapshot at Finish).
func (p *Proc) Stats() *Stats { return &p.stats }

// Charge adds virtual time in the given category.
func (p *Proc) Charge(cat Category, d sim.Time) {
	p.sp.Advance(d)
	p.stats.Cat[cat] += d
}

// ChargeProtocol is shorthand for Charge(CatProtocol, d), the common case in
// protocol code.
func (p *Proc) ChargeProtocol(d sim.Time) { p.Charge(CatProtocol, d) }

// pollAndYield is a checkpoint: it services eligible incoming requests and
// yields if the clock has run a quantum ahead. Compute slices, poll points and
// every shared access call it only when the quiet guard `p.noFastPath ||
// !p.sp.CheckpointQuiet(Quantum)` holds, written out at each site because no
// helper holding it fits the inliner's budget. The guard is exact —
// PollVisible is a no-op when no message is visible and YieldIfQuantum is a
// no-op under quantum — so skipping cannot change any virtual-time result.
func (p *Proc) pollAndYield() {
	p.ep.PollVisible()
	p.sp.YieldIfQuantum(Quantum)
}

// Compute charges d nanoseconds of application computation, sliced into
// quanta with checkpoints so that the processor stays responsive to
// protocol requests.
func (p *Proc) Compute(d sim.Time) {
	if d < 0 {
		panic(fmt.Sprintf("core: proc %d Compute(%d): negative duration", p.sp.ID, d))
	}
	for d > 0 {
		step := d
		if step > Quantum {
			step = Quantum
		}
		p.sp.Advance(step)
		p.stats.Cat[CatUser] += step
		if p.noFastPath || !p.sp.CheckpointQuiet(Quantum) {
			p.pollAndYield()
		}
		d -= step
	}
}

// PollPoint marks an instrumented polling site (top of an application loop,
// §3.2). In polling variants it charges the check cost; in all variants it
// is a checkpoint.
func (p *Proc) PollPoint() {
	if p.rt.cfg.PollingInstrumented {
		p.sp.Advance(p.costs.PollCheck)
		p.stats.Cat[CatPolling] += p.costs.PollCheck
	}
	if p.noFastPath || !p.sp.CheckpointQuiet(Quantum) {
		p.pollAndYield()
	}
}

// load is every shared read: element i of the n-word array at base, checked
// against n, looked up in the frame table (faulting on nil), charged with the
// L1 model, then checkpointed. It returns the word from the frame looked up
// before the checkpoint. The typed accessors are one-line wrappers the
// compiler inlines, so a quiet read is this one call (scripts/lint.sh).
func (p *Proc) load(base Addr, i, n int) uint64 {
	if uint(i) >= uint(n) {
		panic(fmt.Sprintf("core: index %d out of range [0,%d)", i, n))
	}
	a := base + Addr(i)*8
	fr := p.space.ReadFrame(vm.PageOf(a))
	if fr == nil {
		fr = p.readSlow(a)
	}
	c := p.costs.MemAccess
	if p.l1 != nil && !p.l1.Access(a) {
		c += p.costs.CacheMiss
	}
	p.sp.Advance(c)
	p.stats.Cat[CatUser] += c
	if p.noFastPath || !p.sp.CheckpointQuiet(Quantum) {
		p.pollAndYield()
	}
	return binary.LittleEndian.Uint64(fr[vm.Offset(a):])
}

// store is load for a write: the word goes into the frame before the charge
// and the checkpoint, and the protocol's write hook, if it asked for one,
// runs after them.
func (p *Proc) store(base Addr, i, n int, v uint64) {
	if uint(i) >= uint(n) {
		panic(fmt.Sprintf("core: index %d out of range [0,%d)", i, n))
	}
	a := base + Addr(i)*8
	fr := p.space.WriteFrame(vm.PageOf(a))
	if fr == nil {
		fr = p.writeSlow(a)
	}
	binary.LittleEndian.PutUint64(fr[vm.Offset(a):], v)
	c := p.costs.MemAccess
	if p.l1 != nil && !p.l1.Access(a) {
		c += p.costs.CacheMiss
	}
	p.sp.Advance(c)
	p.stats.Cat[CatUser] += c
	if p.noFastPath || !p.sp.CheckpointQuiet(Quantum) {
		p.pollAndYield()
	}
	if p.writeHook {
		p.proto.OnSharedWrite(p, a, 8)
	}
}

// readSlow returns the frame for a read of a whose page the frame table has
// no entry for: the page is unreadable, so the protocol's read-fault handler
// runs first, or readable but never copied in (materialize). load opens with
// ReadFrame and comes here on nil.
func (p *Proc) readSlow(a Addr) *[vm.PageSize]byte {
	page := vm.PageOf(a)
	if !p.space.Prot(page).CanRead() {
		p.stats.ReadFaults++
		p.sp.Yield() // faults are globally visible protocol actions
		p.proto.OnReadFault(p, page)
		if !p.space.Prot(page).CanRead() {
			panic(fmt.Sprintf("core: proc %d page %d still unreadable after fault", p.sp.ID, page))
		}
	}
	p.MaterializedFrame(page) // first touch: copy in the initial image
	return p.space.ReadFrame(page)
}

// writeSlow is readSlow for a write (WriteFrame, write-fault handler).
func (p *Proc) writeSlow(a Addr) *[vm.PageSize]byte {
	page := vm.PageOf(a)
	if !p.space.Prot(page).CanWrite() {
		p.stats.WriteFaults++
		p.sp.Yield()
		p.proto.OnWriteFault(p, page)
		if !p.space.Prot(page).CanWrite() {
			panic(fmt.Sprintf("core: proc %d page %d still unwritable after fault", p.sp.ID, page))
		}
	}
	p.MaterializedFrame(page)
	return p.space.WriteFrame(page)
}

// materialize lazily creates a frame for a page whose protection allows
// access but whose data was never copied in: the page still holds the
// initial image distributed (untimed) at startup, as in real TreadMarks,
// where every processor starts with an identical valid copy. No cost is
// charged — the copy logically happened during setup.
func (p *Proc) materialize(page int) []byte {
	fr := p.space.EnsureFrame(page)
	if img := p.rt.InitialPage(page); img != nil {
		copy(fr, img)
	}
	return fr
}

// MaterializedFrame returns the page's local frame, creating it from the
// initial image if it was never touched. Protocol fault handlers use this
// when they need the page contents (e.g. to twin a page whose first local
// access is the faulting write).
func (p *Proc) MaterializedFrame(page int) []byte {
	if fr := p.space.Frame(page); fr != nil {
		return fr
	}
	return p.materialize(page)
}

// ReadF64 reads a float64 from shared memory.
func (p *Proc) ReadF64(a Addr) float64 { return math.Float64frombits(p.load(a, 0, 1)) }

// WriteF64 writes a float64 to shared memory.
func (p *Proc) WriteF64(a Addr, v float64) { p.store(a, 0, 1, math.Float64bits(v)) }

// ReadI64 reads an int64 from shared memory.
func (p *Proc) ReadI64(a Addr) int64 { return int64(p.load(a, 0, 1)) }

// WriteI64 writes an int64 to shared memory.
func (p *Proc) WriteI64(a Addr, v int64) { p.store(a, 0, 1, uint64(v)) }

// ReadF64Range reads len(dst) consecutive float64 elements starting at a
// into dst. It is len(dst) ReadF64 calls at a, a+8, ...: every element
// checks protection, charges its access and L1 cost and checkpoints, so a
// handler run from a checkpoint that downgrades the current page makes the
// very next element fault.
func (p *Proc) ReadF64Range(a Addr, dst []float64) {
	for i := range dst {
		dst[i] = math.Float64frombits(p.load(a, i, len(dst)))
	}
}

// WriteF64Range writes len(src) consecutive float64 elements starting at a.
// Like ReadF64Range, it is the equivalent sequence of WriteF64 calls,
// including per-element write hooks for protocols that request them.
func (p *Proc) WriteF64Range(a Addr, src []float64) {
	for i, v := range src {
		p.store(a, i, len(src), math.Float64bits(v))
	}
}

// CacheTouch runs an extra address through the L1 model without reading data
// (the doubled write's second store, charged by Cashmere).
func (p *Proc) CacheTouch(a uint64) bool {
	if p.l1 == nil {
		return true
	}
	return p.l1.Access(a)
}

// SpinWait polls cond until it returns true, servicing eligible protocol
// requests between polls (the paper hand-instruments the protocol libraries,
// so spin loops poll too) and advancing the clock with exponential backoff.
// The wait time lands in Comm&Wait (uncharged). SpinWait panics if no
// progress is made for a long virtual-time bound (protocol livelock).
//
// It is the one-spin case of sim.Proc.PollWait's continuation rule: once the
// processor has parked, whichever goroutine dispatches its queue entry probes
// cond inline, so a contended spin costs no host switches — and therefore
// cond, like everything a PollWait poll calls, must not yield or block. It
// reads memory (charging access costs) and SpinBackoff's PollVisible only
// services handlers that charge and reply, which holds for every protocol
// that spins (Cashmere's locks and barriers; TreadMarks waits in Recv
// instead). A wait made of several spins and sleeps does not call SpinWait
// repeatedly; it drives one Spin from its own step function (see Spin).
func (p *Proc) SpinWait(what string, cond func() bool) {
	outer := p.spin // a handler run from a probe may itself spin
	p.spin.cond = cond
	p.SpinBegin(&p.spin.Spin, what)
	p.sp.PollWait(p.spinPoll)
	p.spin = outer
}

// stepSpin is one probe of the SpinWait in flight: cond, or the shared
// backoff.
func (p *Proc) stepSpin() (bool, sim.Time) {
	if p.spin.cond() {
		return true, 0
	}
	return false, p.SpinBackoff(&p.spin.Spin)
}

const (
	spinStepMin = 500 * sim.Nanosecond
	spinStepMax = 20 * sim.Microsecond
	// Long enough that heavy lock congestion (32 processors queueing on
	// millisecond critical sections under interrupt-based variants) is not
	// mistaken for a livelock.
	spinLimit = 120 * sim.Second
)

// SpinBegin starts a spin at p's current clock: the livelock deadline is set
// from now and the backoff step returns to its minimum. what names the wait
// in the livelock panic.
func (p *Proc) SpinBegin(s *Spin, what string) {
	*s = Spin{what: what, deadline: p.sp.Now() + spinLimit, step: spinStepMin}
}

// SpinBackoff follows a failed probe of s: it panics past the livelock
// deadline, services the requests that have become eligible, advances p's
// clock by the backoff step and doubles the step up to its bound. It returns
// the clock, which is when the next probe is due — a PollWait step function
// returns (false, p.SpinBackoff(s)). It neither yields nor blocks.
func (p *Proc) SpinBackoff(s *Spin) sim.Time {
	if p.sp.Now() > s.deadline {
		panic(fmt.Sprintf("core: proc %d spun %dns on %q without progress", p.sp.ID, spinLimit, s.what))
	}
	p.ep.PollVisible()
	p.sp.Advance(s.step)
	if s.step < spinStepMax {
		s.step *= 2
	}
	return p.sp.Now()
}

// Lock acquires application lock id.
func (p *Proc) Lock(id int) {
	p.stats.LockAcquires++
	p.sp.Yield()
	p.proto.Lock(p, id)
}

// Unlock releases application lock id.
func (p *Proc) Unlock(id int) {
	p.sp.Yield()
	p.proto.Unlock(p, id)
}

// Barrier blocks until all compute processors reach barrier id.
func (p *Proc) Barrier(id int) {
	p.stats.Barriers++
	p.sp.Yield()
	p.proto.Barrier(p, id)
}

// Finish snapshots the measurement point: the paper's execution times end at
// the final barrier; verification reads afterwards are neither timed nor
// counted. If the body never calls Finish, it is taken at body return.
func (p *Proc) Finish() {
	if p.finished {
		return
	}
	p.finished = true
	p.stats.FinishedAt = p.sp.Now()
	p.stats.Messages = p.ep.MessagesSent()
	p.stats.DataBytes = p.ep.BytesSent()
	if p.l1 != nil {
		p.stats.CacheHits = p.l1.Hits()
		p.stats.CacheMisses = p.l1.Misses()
	}
	p.snap = p.stats
}

// Snapshot returns the statistics frozen at Finish (the live statistics if
// Finish has not run yet).
func (p *Proc) Snapshot() Stats {
	if p.finished {
		return p.snap
	}
	return p.stats
}

// ReportCheck records a named validation value (e.g. a residual or checksum)
// surfaced in the run's Result. Typically called by rank 0 after Finish.
func (p *Proc) ReportCheck(name string, v float64) {
	if p.checks == nil {
		p.checks = make(map[string]float64)
	}
	p.checks[name] = v
}
