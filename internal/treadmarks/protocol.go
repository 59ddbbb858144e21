package treadmarks

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/interconnect"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/vm"
)

// Request kinds.
const (
	// kindLockAcquire is sent to a lock's manager with the requester's VT.
	kindLockAcquire = iota
	// kindLockHandoff is the manager's forward of an acquire to the lock's
	// current owner (one-way; the owner replies to the requester directly).
	kindLockHandoff
	// kindDiffRequest asks a writer for the diffs of one page beyond the
	// requester's applied horizon.
	kindDiffRequest
	// kindPageRequest asks a page's static manager for a full copy plus the
	// vector describing which writers' intervals the copy reflects.
	kindPageRequest
	// kindBarrierArrive carries a processor's VT and fresh intervals to the
	// barrier manager, which replies with everything the arriver lacks.
	kindBarrierArrive
)

// Config holds TreadMarks-specific knobs.
type Config struct {
	// TestDropDiffRuns, when N > 0, deliberately corrupts every Nth diff
	// served by serveDiff: the reply's copy of that diff loses its last run.
	// This is the dsmcheck harness's injected diff-loss bug — a fault the
	// schedule-exploration checker must detect and shrink to a minimal
	// repro — and exists only for that self-test. Variants never set it.
	TestDropDiffRuns int
}

// New returns a core.Config protocol factory for TreadMarks.
func New(cfg Config) func(rt *core.Runtime) core.Protocol {
	return func(rt *core.Runtime) core.Protocol {
		return &Protocol{rt: rt, cfg: cfg}
	}
}

// lockState is a processor's local view of one lock.
type lockState int

const (
	lockFree lockState = iota
	lockAcquiring
	lockHeld
)

// pstate is one processor's protocol state.
type pstate struct {
	vt  VT
	cur int32 // number of closed intervals

	// pending holds pages with a write notice in the open interval.
	pending []int32
	// twins maps page -> pristine copy made at the first write fault.
	twins map[int][]byte
	// log[q] holds every interval record of processor q this processor has
	// incorporated: log[q][i] is interval i+1.
	log [][]Interval
	// heads is intervalsSince's merge scratch, kept for its capacity.
	heads []runHead
	// known[page][w], allocated lazily, is the highest interval of writer w
	// with a write notice for page that this processor has incorporated.
	known [][]int32
	// applied[page][w], allocated lazily, is the highest interval of writer
	// w whose writes are reflected in this processor's copy of page.
	applied [][]int32
	// lastClosedDirty[page] is the highest closed local interval that
	// published a write notice for page.
	lastClosedDirty []int32
	// twinBirth[page] is the first interval whose notice covers the live
	// twin: the ordering stamp for the eventual diff. Because twins are
	// flushed as soon as conflicting knowledge arrives, all of a twin's
	// writes causally belong to its birth era.
	twinBirth map[int]int32
	// diffs[page] holds this processor's stored diffs for page, ascending
	// by tag.
	diffs map[int][]Diff

	// lock client state
	lockSt []lockState
	// hasBaton[lock] is true while this processor holds the lock's
	// ownership baton: received with a grant, passed on with a handoff.
	hasBaton []bool
	// pendingHandoff queues handoff requests received while the lock is
	// held or being acquired (FIFO ownership chain).
	pendingHandoff [][]handoffReq

	// barrier client state
	managerVTGuess VT // conservative guess of the barrier manager's VT

	// serviceDepth counts the request handlers active on this processor
	// (Service sets it; handlers nest when a reply waits for buffer space).
	// incorporate refuses to run under it: see Protocol.
	serviceDepth int
}

type handoffReq struct {
	req msg.Request
	vt  VT
}

// lock manager state (lives on the manager's rank slot).
type lockMgr struct {
	owner int32 // compute rank of current owner, -1 if never acquired
}

// Wire payloads.
type lockAcqMsg struct {
	Lock int
	VT   VT
}
type lockHandoffMsg struct {
	Lock int
	Orig msg.Request
	VT   VT
}
type lockGrant struct {
	VT        VT
	Intervals []Interval
}
type diffReqMsg struct {
	Page    int
	Applied int32 // requester's applied horizon for this writer
}
type diffReply struct {
	Covered int32
	Diffs   []Diff
}
type pageReqMsg struct {
	Page int
}
type pageReply struct {
	Data    []byte
	Applied []int32 // per-writer applied horizon of the copy (nil = zeros)
}
type barrierArriveMsg struct {
	Barrier   int
	VT        VT
	Intervals []Interval
}
type barrierRelease struct {
	VT        VT
	Intervals []Interval
}

// Protocol is the TreadMarks protocol state for all processors. All fields
// are only touched by the processor that owns them or by its request
// handlers, which run on the owning processor, so the single-baton scheduler
// makes every stretch of code between two waits atomic — and nothing more. A
// fault or synchronization operation that blocks (Call, WaitReply, the
// barrier manager's Recv, a reply waiting for buffer space) runs the
// processor's handlers inside that wait, so at every wait the state a
// handler reads must describe the frames as they are: validate raises
// applied[w] only once w's diffs are merged, because servePage ships the
// frame and applied together. And a handler may create and hand out diffs and
// intervals but never incorporates any: that would raise known[w] for a page
// the interrupted operation is about to map readable. incorporate runs only
// at the processor's own acquires and barriers, and panics under Service.
type Protocol struct {
	rt     *core.Runtime
	cfg    Config
	nprocs int

	ps   []*pstate
	mgrs []map[int]*lockMgr // lock managers: [rank][lock]
	// arrived queues, on rank 0, the barrierArriveMsg requests of the one
	// barrier episode in flight (arrivers block until released, so there is
	// never a second), in arrival order.
	arrived []msg.Request

	// counters
	intervalsClosed int64
	lockForwards    int64
	diffRequests    int64
	pageRequests    int64
	invalidations   int64

	// diffsServed counts diffs copied into serveDiff replies; testRunsLost
	// counts the runs the injected TestDropDiffRuns bug discarded. Both only
	// drive the injection and its counter (absent unless the bug is armed).
	diffsServed  int64
	testRunsLost int64
}

// Name implements core.Protocol.
func (t *Protocol) Name() string { return "treadmarks" }

// WantsWriteHook implements core.Protocol: TreadMarks needs no per-store
// action (twins capture writes).
func (t *Protocol) WantsWriteHook() bool { return false }

// Setup implements core.Protocol.
func (t *Protocol) Setup(rt *core.Runtime) {
	if rt.Config().DedicatedServer {
		panic("treadmarks: no dedicated-server variant in the paper")
	}
	t.nprocs = len(rt.ComputeProcs())
	numPages := rt.NumPages()
	locks := rt.Program().Locks
	for r := 0; r < t.nprocs; r++ {
		st := &pstate{
			vt:              NewVT(t.nprocs),
			twins:           make(map[int][]byte),
			log:             make([][]Interval, t.nprocs),
			known:           make([][]int32, numPages),
			applied:         make([][]int32, numPages),
			lastClosedDirty: make([]int32, numPages),
			twinBirth:       make(map[int]int32),
			diffs:           make(map[int][]Diff),
			lockSt:          make([]lockState, locks),
			hasBaton:        make([]bool, locks),
			pendingHandoff:  make([][]handoffReq, locks),
			managerVTGuess:  NewVT(t.nprocs),
		}
		t.ps = append(t.ps, st)
		t.mgrs = append(t.mgrs, make(map[int]*lockMgr))
	}
	// Shared memory starts valid everywhere: the initial data distribution
	// happens at (untimed) startup, so cold accesses do not fault. Faults
	// come only from invalidations and first writes (twins).
	for _, p := range rt.ComputeProcs() {
		for pg := 0; pg < numPages; pg++ {
			p.Space().SetProt(pg, vm.ProtRead)
		}
	}
}

func (t *Protocol) state(p *core.Proc) *pstate { return t.ps[p.Rank()] }

// lockManagerRank returns the rank managing lock id (static distribution).
func (t *Protocol) lockManagerRank(id int) int { return id % t.nprocs }

// pageManagerRank returns the rank serving initial copies of page (static
// distribution, as in TreadMarks).
func (t *Protocol) pageManagerRank(page int) int { return page % t.nprocs }

// rec returns processor q's interval record with the given id from p's log.
func (st *pstate) rec(q, id int32) Interval {
	return st.log[q][id-1]
}

// logTop returns the highest interval id of q present in the log.
func (st *pstate) logTop(q int32) int32 {
	return int32(len(st.log[q]))
}

func (t *Protocol) slot(arr [][]int32, page int) []int32 {
	if arr[page] == nil {
		arr[page] = make([]int32, t.nprocs)
	}
	return arr[page]
}

// ---------------------------------------------------------------------------
// Intervals and incorporation

// closeInterval publishes the open interval if any pages are dirty: a write
// notice per dirty page, stamped with the new interval id. Every page with a
// live twin is conservatively treated as modified during the interval — the
// protocol cannot know whether a still-writable page was written, so notices
// for "all logically previous writes" are re-published (§2.2's TreadMarks
// conservatism). This also keeps diff stamps fresh: a diff's covering notice
// always dominates the knowledge its writer held at its last close.
func (t *Protocol) closeInterval(p *core.Proc) {
	st := t.state(p)
	if len(st.twins) > 0 {
		pages := make([]int, 0, len(st.twins))
		for pg := range st.twins {
			pages = append(pages, pg)
		}
		sort.Ints(pages)
		for _, pg := range pages {
			if !pagePending(st, pg) {
				st.pending = append(st.pending, int32(pg))
			}
		}
	}
	if len(st.pending) == 0 {
		return
	}
	rank := int32(p.Rank())
	id := st.cur + 1
	st.cur = id
	st.vt[rank] = id
	rec := Interval{Proc: rank, ID: id, VT: st.vt.Clone(), Pages: st.pending}
	st.log[rank] = append(st.log[rank], rec)
	for _, pg := range st.pending {
		st.lastClosedDirty[pg] = id
		if st.twins[int(pg)] != nil && st.twinBirth[int(pg)] == 0 {
			st.twinBirth[int(pg)] = id
		}
		t.slot(st.known, int(pg))[rank] = id
		t.slot(st.applied, int(pg))[rank] = id
	}
	p.ChargeProtocol(sim.Time(len(st.pending)) * p.Costs().MemAccess * 4)
	st.pending = nil
	t.intervalsClosed++
}

// intervalsSince collects every interval record in rank's log (st) that the
// given vector has not seen, in causal order: ascending (VT.Sum, Proc, ID).
// Each writer's unseen records are a contiguous slice of its log whose sums
// ascend strictly (see Interval), so the order is a k-way merge of those runs,
// written straight into the slice that is shipped: a min-heap of run heads
// keyed (sum, writer) picks the next record, and the last run left is copied
// whole.
func (st *pstate) intervalsSince(have VT) []Interval {
	heads := st.heads[:0]
	n := 0
	for q := range st.vt {
		if st.vt[q] > have[q] {
			i, end := have[q], st.vt[q]
			heads = append(heads, runHead{sum: st.log[q][i].VT.Sum(), q: int32(q), i: i, end: end})
			n += int(end - i)
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]Interval, 0, n)
	for k := len(heads)/2 - 1; k >= 0; k-- {
		siftHead(heads, k)
	}
	for len(heads) > 1 {
		h := &heads[0]
		run := st.log[h.q]
		out = append(out, run[h.i])
		if h.i++; h.i < h.end {
			h.sum = run[h.i].VT.Sum()
		} else {
			last := len(heads) - 1
			heads[0] = heads[last]
			heads = heads[:last]
		}
		siftHead(heads, 0)
	}
	h := heads[0]
	out = append(out, st.log[h.q][h.i:h.end]...)
	st.heads = heads[:0]
	return out
}

// runHead is one writer's run in intervalsSince's merge: log[q][i:end] is
// still to be shipped, and sum is the VT sum of log[q][i].
type runHead struct {
	sum    int64
	q      int32
	i, end int32
}

// siftHead restores heap order on h below index i, ordering heads by (sum,
// q). Writers are distinct, so no two heads compare equal.
func siftHead(h []runHead, i int) {
	e := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1].before(&h[c]) {
			c++
		}
		if !h[c].before(&e) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = e
}

func (a *runHead) before(b *runHead) bool {
	if a.sum != b.sum {
		return a.sum < b.sum
	}
	return a.q < b.q
}

// wireBytes estimates the message size of an interval set: a compact header
// per interval plus its write notices. (Vector timestamps are delta-encoded
// against the carrying message's VT rather than shipped per interval.)
func wireBytes(recs []Interval) int64 {
	var b int64
	for _, r := range recs {
		b += 12 + int64(4*len(r.Pages))
	}
	return b
}

// incorporate merges received interval records: logs them, updates the
// write-notice horizon, and invalidates pages with unseen writes (§2.2).
func (t *Protocol) incorporate(p *core.Proc, recs []Interval, senderVT VT) {
	st := t.state(p)
	if st.serviceDepth > 0 {
		panic(fmt.Sprintf("treadmarks: rank %d incorporating intervals inside a request handler", p.Rank()))
	}
	rank := int32(p.Rank())
	// A write notice for a page we have dirty supersedes our twin's span:
	// flush the diff now, stamped with our pre-incorporation knowledge, so
	// that chain-ordered writes keep chain-ordered stamps. (Processing the
	// records first would inflate the stamp past the very writes that came
	// after ours.)
	if len(st.twins) > 0 {
		for _, rec := range recs {
			if rec.Proc == rank || st.logTop(rec.Proc) >= rec.ID {
				continue
			}
			for _, pg := range rec.Pages {
				if st.twins[int(pg)] != nil {
					t.flushDiff(p, int(pg))
				}
			}
		}
	}
	for _, rec := range recs {
		q := rec.Proc
		if st.logTop(q) >= rec.ID {
			continue // already known
		}
		if st.logTop(q)+1 != rec.ID {
			panic(fmt.Sprintf("treadmarks: proc %d got interval (%d,%d) with log at %d (gap)",
				p.Rank(), q, rec.ID, st.logTop(q)))
		}
		st.log[q] = append(st.log[q], rec)
		if st.vt[q] < rec.ID {
			st.vt[q] = rec.ID
		}
		p.ChargeProtocol(p.Costs().HandlerWork / 2)
		if q == rank {
			continue
		}
		for _, pg := range rec.Pages {
			known := t.slot(st.known, int(pg))
			if known[q] < rec.ID {
				known[q] = rec.ID
			}
			applied := t.slot(st.applied, int(pg))
			if applied[q] < rec.ID && p.Space().Prot(int(pg)) != vm.ProtNone {
				p.Space().SetProt(int(pg), vm.ProtNone)
				if p.Space().Frame(int(pg)) != nil {
					// Unmapping a page the processor actually has mapped
					// costs an mprotect; a never-touched page is only
					// bookkeeping.
					p.ChargeProtocol(p.Costs().ProtChange)
				}
				t.invalidations++
			}
		}
	}
	if senderVT != nil {
		st.vt.MaxInto(senderVT)
	}
}

// ---------------------------------------------------------------------------
// Page validation: fetch, diff collection, merge

// flushDiff turns the current twin into a stored diff (write-protecting the
// page) so that subsequently applied remote diffs do not pollute our own.
// The diff is tagged with its covering write-notice interval: the open
// interval (lower-bound timestamp) if the page has unpublished writes, else
// the latest closed interval that published a notice for the page.
func (t *Protocol) flushDiff(p *core.Proc, page int) {
	st := t.state(p)
	twin := st.twins[page]
	if twin == nil {
		return
	}
	// If the twin covers writes of the still-open interval, close the
	// interval first so the diff is tagged with a real, published write
	// notice. (Interval boundaries may legally fall anywhere; the notice
	// only propagates through future synchronization.)
	if pagePending(st, page) {
		t.closeInterval(p)
	}
	rank := int32(p.Rank())
	tag := st.lastClosedDirty[page]
	birth := st.twinBirth[page]
	delete(st.twinBirth, page)
	if tag < 1 || birth < 1 {
		panic(fmt.Sprintf("treadmarks: rank %d flushing twin for page %d with no covering notice (tag %d birth %d)", p.Rank(), page, tag, birth))
	}
	// Coverage is the newest covering notice (tag); the ordering timestamp
	// is the twin's BIRTH notice. The twin was flushed before any
	// conflicting notice was incorporated, so all of its writes causally
	// belong to the birth era; later re-notices merely re-advertise them
	// and must not re-stamp them past a chain successor's newer diff.
	dvt := st.rec(rank, birth).VT
	frame := p.Space().Frame(page)
	runs := MakeDiff(frame, twin)
	d := Diff{Tag: tag, VT: dvt, Runs: runs}
	st.diffs[page] = append(st.diffs[page], d)
	delete(st.twins, page)
	if p.Space().Prot(page).CanWrite() {
		p.Space().SetProt(page, vm.ProtRead)
		p.ChargeProtocol(p.Costs().ProtChange)
	}
	p.ChargeProtocol(p.Costs().DiffCreate(d.Bytes(), vm.PageSize))
	p.Stats().DiffsCreated++
}

// validate makes page logically current on p: flush our own twin, fetch a
// base copy if we have none, then request and merge every missing diff in
// causal order. On return the page is mapped read-only.
func (t *Protocol) validate(p *core.Proc, page int) {
	st := t.state(p)
	rank := p.Rank()
	if st.twins[page] != nil {
		t.flushDiff(p, page)
	}
	if p.Space().Frame(page) == nil {
		t.fetchPage(p, page)
	}
	frame := p.Space().Frame(page)
	applied := t.slot(st.applied, page)
	known := st.known[page]
	// Request the missing diffs from every writer in parallel (as
	// TreadMarks does), then collect all replies before merging.
	type gathered struct {
		writer int
		diff   Diff
	}
	type inflight struct {
		writer  int
		token   uint64
		covered int32 // the reply's Covered horizon
	}
	var all []gathered
	var calls []inflight
	if known != nil {
		for w := 0; w < t.nprocs; w++ {
			if w == rank || known[w] <= applied[w] {
				continue
			}
			t.diffRequests++
			tok := p.EP().CallStart(t.rt.ProcByRank(w).EP(), kindDiffRequest,
				diffReqMsg{Page: page, Applied: applied[w]}, 24)
			calls = append(calls, inflight{writer: w, token: tok})
		}
		for i := range calls {
			dr := p.EP().WaitReply(calls[i].token).(diffReply)
			for _, d := range dr.Diffs {
				all = append(all, gathered{writer: calls[i].writer, diff: d})
			}
			calls[i].covered = dr.Covered
		}
	}
	// Merge in the causal order defined by the diffs' interval timestamps
	// (§2.2): timestamp sums give a linear extension of happens-before;
	// ties (concurrent diffs) are ordered by writer then tag, which is safe
	// because concurrent diffs of data-race-free programs touch disjoint
	// bytes.
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		sa, sb := a.diff.VT.Sum(), b.diff.VT.Sum()
		if sa != sb {
			return sa < sb
		}
		if a.writer != b.writer {
			return a.writer < b.writer
		}
		return a.diff.Tag < b.diff.Tag
	})
	for _, g := range all {
		ApplyDiff(frame, g.diff.Runs)
		if g.writer != rank {
			p.ChargeProtocol(p.Costs().DiffApplyBase + p.Costs().Copy(g.diff.Bytes()))
			p.Stats().DiffsApplied++
		}
	}
	// Only now does the frame hold what the replies covered. A servePage
	// nested in the waits above ships frame and applied together, so raising
	// applied as each reply arrived would have it claim diffs the shipped
	// frame lacks — and the requester would never ask their writer.
	for _, c := range calls {
		if c.covered > applied[c.writer] {
			applied[c.writer] = c.covered
		}
	}
	p.Space().SetProt(page, vm.ProtRead)
	p.ChargeProtocol(p.Costs().ProtChange)
}

// pagePending reports whether the page has a write notice in the open
// interval.
func pagePending(st *pstate, page int) bool {
	for _, pg := range st.pending {
		if int(pg) == page {
			return true
		}
	}
	return false
}

// fetchPage obtains a base copy of the page from its static manager, along
// with the vector describing which intervals the copy reflects.
func (t *Protocol) fetchPage(p *core.Proc, page int) {
	st := t.state(p)
	frame := p.Space().EnsureFrame(page)
	mgr := t.pageManagerRank(page)
	if mgr == p.Rank() {
		// Our own managed page: base copy is the initial image.
		if img := t.rt.InitialPage(page); img != nil {
			copy(frame, img)
			p.ChargeProtocol(p.Costs().Copy(vm.PageSize))
		}
		return
	}
	t.pageRequests++
	reply := p.EP().Call(t.rt.ProcByRank(mgr).EP(), kindPageRequest, pageReqMsg{Page: page}, 16)
	pr := reply.(pageReply)
	copy(frame, pr.Data)
	p.ChargeProtocol(p.Costs().Copy(vm.PageSize))
	p.Stats().PageFetches++
	if pr.Applied != nil {
		applied := t.slot(st.applied, page)
		for w, v := range pr.Applied {
			if v > applied[w] {
				applied[w] = v
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Fault handlers

// OnReadFault implements core.Protocol.
func (t *Protocol) OnReadFault(p *core.Proc, page int) {
	p.ChargeProtocol(p.Costs().PageFault)
	t.validate(p, page)
}

// OnWriteFault implements core.Protocol: validate if needed, then twin the
// page and record the write notice for the open interval.
func (t *Protocol) OnWriteFault(p *core.Proc, page int) {
	st := t.state(p)
	p.ChargeProtocol(p.Costs().PageFault)
	if !p.Space().Prot(page).CanRead() {
		t.validate(p, page)
	}
	if st.twins[page] == nil {
		frame := p.MaterializedFrame(page)
		st.twins[page] = append([]byte(nil), frame...)
		p.ChargeProtocol(p.Costs().TwinCopy)
		p.Stats().Twins++
		if !pagePending(st, page) { // a flush within this interval may have left it pending
			st.pending = append(st.pending, int32(page))
		}
	}
	p.Space().SetProt(page, vm.ProtReadWrite)
	p.ChargeProtocol(p.Costs().ProtChange)
}

// OnSharedWrite implements core.Protocol (unused).
func (t *Protocol) OnSharedWrite(p *core.Proc, addr core.Addr, size int) {}

// ---------------------------------------------------------------------------
// Locks

// Lock implements core.Protocol (§2.2 lock acquire).
func (t *Protocol) Lock(p *core.Proc, id int) {
	st := t.state(p)
	if st.lockSt[id] != lockFree {
		panic(fmt.Sprintf("treadmarks: rank %d re-acquiring lock %d", p.Rank(), id))
	}
	mgrRank := t.lockManagerRank(id)
	if mgrRank == p.Rank() {
		mgr := t.mgr(p.Rank(), id)
		if mgr.owner < 0 || mgr.owner == int32(p.Rank()) {
			// Free, or we were the last owner: local acquire, no messages.
			mgr.owner = int32(p.Rank())
			st.lockSt[id] = lockHeld
			st.hasBaton[id] = true
			p.ChargeProtocol(p.Costs().HandlerWork)
			return
		}
		// Forward to the current owner and wait for its grant.
		st.lockSt[id] = lockAcquiring
		owner := t.rt.ProcByRank(int(mgr.owner))
		mgr.owner = int32(p.Rank())
		t.lockForwards++
		reply := p.EP().Call(owner.EP(), kindLockHandoff,
			lockHandoffMsg{Lock: id, VT: st.vt.Clone()}, 16+int64(4*t.nprocs))
		t.applyGrant(p, id, reply.(lockGrant))
		return
	}
	st.lockSt[id] = lockAcquiring
	reply := p.EP().Call(t.rt.ProcByRank(mgrRank).EP(), kindLockAcquire,
		lockAcqMsg{Lock: id, VT: st.vt.Clone()}, 16+int64(4*t.nprocs))
	t.applyGrant(p, id, reply.(lockGrant))
}

func (t *Protocol) applyGrant(p *core.Proc, id int, g lockGrant) {
	st := t.state(p)
	t.incorporate(p, g.Intervals, g.VT)
	st.lockSt[id] = lockHeld
	st.hasBaton[id] = true
	// A handoff may have queued while the grant was in flight: it waits for
	// our unlock (we are now in the critical section).
}

func (t *Protocol) mgr(rank, id int) *lockMgr {
	m := t.mgrs[rank][id]
	if m == nil {
		m = &lockMgr{owner: -1}
		t.mgrs[rank][id] = m
	}
	return m
}

// Unlock implements core.Protocol: close the interval; if another processor
// is waiting for this lock, hand ownership (and unseen intervals) over.
func (t *Protocol) Unlock(p *core.Proc, id int) {
	st := t.state(p)
	if st.lockSt[id] != lockHeld {
		panic(fmt.Sprintf("treadmarks: rank %d unlocking lock %d it does not hold", p.Rank(), id))
	}
	t.closeInterval(p)
	st.lockSt[id] = lockFree
	if q := st.pendingHandoff[id]; len(q) > 0 {
		h := q[0]
		st.pendingHandoff[id] = q[1:]
		t.grantLock(p, id, h)
	}
}

// grantLock sends the requester everything it has not seen, completing the
// ownership transfer (the baton leaves this processor).
func (t *Protocol) grantLock(p *core.Proc, lock int, h handoffReq) {
	t.state(p).hasBaton[lock] = false
	st := t.state(p)
	recs := st.intervalsSince(h.vt)
	p.ChargeProtocol(p.Costs().HandlerWork)
	p.EP().Reply(h.req.From, h.req, lockGrant{VT: st.vt.Clone(), Intervals: recs},
		16+wireBytes(recs))
}

// ---------------------------------------------------------------------------
// Barriers

// Barrier implements core.Protocol (§2.2 barrier synchronization with a
// centralized manager at rank 0).
func (t *Protocol) Barrier(p *core.Proc, id int) {
	st := t.state(p)
	t.closeInterval(p)
	if t.nprocs == 1 {
		return
	}
	if p.Rank() == 0 {
		t.barrierManager(p, id)
		return
	}
	// Send our VT plus the intervals the manager may lack, per our
	// conservative guess of its vector timestamp.
	recs := st.intervalsSince(st.managerVTGuess)
	reply := p.EP().Call(t.rt.ProcByRank(0).EP(), kindBarrierArrive,
		barrierArriveMsg{Barrier: id, VT: st.vt.Clone(), Intervals: recs},
		16+int64(4*t.nprocs)+wireBytes(recs))
	rel := reply.(barrierRelease)
	t.incorporate(p, rel.Intervals, rel.VT)
	st.managerVTGuess = rel.VT.Clone()
}

// barrierManager gathers all arrivals for barrier id (servicing other
// requests meanwhile), incorporates their intervals — here, at the manager's
// own barrier, never in the handler that queued them (see Protocol), which is
// also when TreadMarks' manager merges; the per-record work is therefore
// charged at barrier time — and releases everyone with the intervals they
// lack.
func (t *Protocol) barrierManager(p *core.Proc, id int) {
	st := t.state(p)
	for len(t.arrived) < t.nprocs-1 {
		m := p.Sim().Recv("barrier manager awaiting arrivals")
		t.dispatchAt(p, m)
	}
	arrived := t.arrived
	t.arrived = nil
	for _, req := range arrived {
		ba := req.Data.(barrierArriveMsg)
		if ba.Barrier != id {
			panic(fmt.Sprintf("treadmarks: arrival for barrier %d during barrier %d", ba.Barrier, id))
		}
		t.incorporate(p, ba.Intervals, ba.VT)
	}
	p.ChargeProtocol(sim.Time(t.nprocs) * p.Costs().HandlerWork)
	for _, req := range arrived {
		recs := st.intervalsSince(req.Data.(barrierArriveMsg).VT)
		p.EP().Reply(req.From, req, barrierRelease{VT: st.vt.Clone(), Intervals: recs},
			16+int64(4*t.nprocs)+wireBytes(recs))
	}
	st.managerVTGuess = st.vt.Clone()
}

// dispatchAt routes one raw inbox message through the endpoint's handler
// path (used by the barrier manager's wait loop).
func (t *Protocol) dispatchAt(p *core.Proc, m sim.Msg) {
	switch m.Kind {
	case msg.KindReply:
		panic("treadmarks: barrier manager received a stray reply")
	case msg.KindShutdown:
		panic("treadmarks: barrier manager received shutdown mid-barrier")
	default:
		t.Service(p, m, m.Data.(msg.Request))
	}
}

// ---------------------------------------------------------------------------
// Request service

// Service implements core.Protocol. It runs inside whatever wait the
// processor is blocked in, so it marks the processor as being in a handler:
// the state a handler may touch is limited (see Protocol).
func (t *Protocol) Service(p *core.Proc, m sim.Msg, req msg.Request) {
	st := t.state(p)
	st.serviceDepth++
	t.serve(p, m, req)
	st.serviceDepth--
}

func (t *Protocol) serve(p *core.Proc, m sim.Msg, req msg.Request) {
	switch m.Kind {
	case kindLockAcquire:
		la := req.Data.(lockAcqMsg)
		mgr := t.mgr(p.Rank(), la.Lock)
		requester := t.rt.ProcBySimID(req.From).Rank()
		if mgr.owner < 0 {
			// First acquire anywhere: grant with no history.
			mgr.owner = int32(requester)
			p.ChargeProtocol(p.Costs().HandlerWork)
			p.EP().Reply(req.From, req, lockGrant{}, 16)
			return
		}
		prevOwner := int(mgr.owner)
		mgr.owner = int32(requester)
		if prevOwner == requester {
			// Repeated acquire by the last owner: it already has the lock's
			// entire sync history, so grant without interval transfer.
			p.ChargeProtocol(p.Costs().HandlerWork)
			p.EP().Reply(req.From, req, lockGrant{}, 16)
			return
		}
		if prevOwner == p.Rank() {
			// We are the previous owner: hand off directly.
			t.handleHandoff(p, req, la.VT, la.Lock)
			return
		}
		t.lockForwards++
		p.ChargeProtocol(p.Costs().HandlerWork)
		p.EP().Send(t.rt.ProcByRank(prevOwner).EP(), kindLockHandoff,
			lockHandoffMsg{Lock: la.Lock, Orig: req, VT: la.VT}, 16+int64(4*t.nprocs))
	case kindLockHandoff:
		h := req.Data.(lockHandoffMsg)
		orig := h.Orig
		if orig.Token == 0 {
			// Direct handoff: the manager itself is the requester, so the
			// enclosing request carries the reply token. (Forwarded
			// requests always have a non-zero Call token.)
			orig = req
		}
		t.handleHandoff(p, orig, h.VT, h.Lock)
	case kindDiffRequest:
		t.serveDiff(p, req)
	case kindPageRequest:
		t.servePage(p, req)
	case kindBarrierArrive:
		// Only queued: barrierManager incorporates the intervals.
		t.arrived = append(t.arrived, req)
	default:
		panic(fmt.Sprintf("treadmarks: unknown request kind %d", m.Kind))
	}
}

// handleHandoff grants the lock now if we are not inside (or entering) the
// critical section, else queues the requester.
func (t *Protocol) handleHandoff(p *core.Proc, orig msg.Request, reqVT VT, lock int) {
	st := t.state(p)
	if !st.hasBaton[lock] || st.lockSt[lock] == lockHeld {
		// Either we are inside the critical section, or our own baton is
		// still in flight (we are acquiring a later chain position): the
		// handoff waits for our unlock.
		st.pendingHandoff[lock] = append(st.pendingHandoff[lock], handoffReq{req: orig, vt: reqVT})
		return
	}
	// We hold the baton but are not in the critical section (idle previous
	// owner, possibly re-acquiring a later position): pass it on now.
	t.closeInterval(p)
	t.grantLock(p, lock, handoffReq{req: orig, vt: reqVT})
}

// serveDiff answers a diff request: create the twin's diff if a published
// write notice is not yet covered by a stored diff, then return all stored
// diffs beyond the requester's horizon.
func (t *Protocol) serveDiff(p *core.Proc, req msg.Request) {
	st := t.state(p)
	dr := req.Data.(diffReqMsg)
	page := dr.Page
	stored := st.diffs[page]
	highest := int32(0)
	if len(stored) > 0 {
		highest = stored[len(stored)-1].Tag
	}
	if st.twins[page] != nil && st.lastClosedDirty[page] > highest {
		t.flushDiff(p, page)
		stored = st.diffs[page]
		highest = stored[len(stored)-1].Tag
	}
	var out []Diff
	var bytes int64
	for _, d := range stored {
		if d.Tag > dr.Applied {
			t.diffsServed++
			if n := t.cfg.TestDropDiffRuns; n > 0 && t.diffsServed%int64(n) == 0 && len(d.Runs) > 0 {
				// Injected diff-loss bug (Config.TestDropDiffRuns): serve a
				// copy of the diff missing its last run. The struct copy
				// shares the runs' backing array but truncating the length
				// never mutates stored state.
				d.Runs = d.Runs[:len(d.Runs)-1]
				t.testRunsLost++
			}
			out = append(out, d)
			bytes += d.WireBytes()
		}
	}
	covered := st.lastClosedDirty[page]
	if highest > covered {
		covered = highest
	}
	p.ChargeProtocol(p.Costs().HandlerWork)
	p.EP().ReplyClass(req.From, req, diffReply{Covered: covered, Diffs: out},
		16+bytes, interconnect.TrafficPage)
}

// servePage answers a page request with our current copy (flushing our twin
// first so the copy is self-described by our applied vector) plus that
// vector.
func (t *Protocol) servePage(p *core.Proc, req msg.Request) {
	st := t.state(p)
	page := req.Data.(pageReqMsg).Page
	if st.twins[page] != nil {
		t.flushDiff(p, page)
	}
	frame := p.Space().Frame(page)
	var data []byte
	if frame != nil {
		data = append([]byte(nil), frame...)
	} else {
		data = make([]byte, vm.PageSize)
		if img := t.rt.InitialPage(page); img != nil {
			copy(data, img)
		}
	}
	var applied []int32
	if st.applied[page] != nil {
		applied = append([]int32(nil), st.applied[page]...)
	}
	p.ChargeProtocol(p.Costs().HandlerWork + p.Costs().Copy(vm.PageSize))
	p.EP().ReplyClass(req.From, req, pageReply{Data: data, Applied: applied},
		int64(vm.PageSize+4*len(applied)), interconnect.TrafficPage)
}

// Finalize implements core.Protocol.
func (t *Protocol) Finalize(p *core.Proc) {}

// MaxCostJitter implements core.SchedulePerturbable: any cost inflation up
// to 100% per operation is legal. TreadMarks' ordering decisions are meant
// to be logical, not temporal — vector timestamps order intervals, lock
// batons order critical sections, the barrier manager counts arrivals — and
// every wait is condition-based (Recv blocks until the reply message
// exists). That is a property the code has to earn, not one it has for free:
// timing decides which handler runs inside which wait, and 23 cells of the
// pinned small sweep once computed wrong answers by timing alone because two
// wait windows exposed state a handler must not see (see Protocol). The
// conservative barrier-manager VT guess is the one timing-sensitive
// heuristic, and it errs only toward re-sending intervals the manager
// already has, never toward dropping any. With the wait-window rule kept,
// stretching costs yields another legal execution of the same protocol.
func (t *Protocol) MaxCostJitter() float64 { return 1.0 }

// Counters implements core.Protocol.
func (t *Protocol) Counters() map[string]int64 {
	m := map[string]int64{
		"intervals":     t.intervalsClosed,
		"lock_forwards": t.lockForwards,
		"diff_requests": t.diffRequests,
		"page_requests": t.pageRequests,
		"invalidations": t.invalidations,
	}
	if t.cfg.TestDropDiffRuns > 0 {
		// Only present when the injected bug is armed, so ordinary runs'
		// counter maps (and their serialized results) are unchanged.
		m["test_diff_runs_lost"] = t.testRunsLost
	}
	return m
}
