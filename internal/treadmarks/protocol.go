package treadmarks

import (
	"fmt"

	"repro/internal/core"
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
	// requester's applied horizon, up to what the requester knows.
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
	// This is internal/check's injected diff-loss bug, a fault its self-test
	// (TestInjectedBugCaughtAndShrunk) must detect and shrink to a minimal
	// repro; it exists only for that test. Variants never set it.
	TestDropDiffRuns int
}

// New returns a core.Config protocol factory for TreadMarks.
func New(cfg Config) func(rt *core.Runtime) core.Protocol {
	return func(rt *core.Runtime) core.Protocol {
		return &Protocol{rt: rt, cfg: cfg}
	}
}

// pstate is one processor's protocol state.
type pstate struct {
	vt  VT
	cur int32 // number of closed intervals

	// twins holds the pages this processor has dirty: one record per page,
	// made at the first write fault and turned into a stored diff by
	// flushDiff.
	twins map[int]*twin
	// heads is intervalsSince's merge scratch, kept for its capacity.
	heads []runHead
	// calls and gathered are validate's scratch, kept for their capacity
	// and cleared after each merge so that no Diff stays reachable.
	// validating is set while validate runs: it never re-enters on one
	// processor, because no request handler validates.
	calls      []inflight
	gathered   causalOrder
	validating bool
	// known[page][w], allocated lazily, is the highest interval of writer w
	// with a write notice for page that this processor has incorporated.
	known [][]int32
	// applied[page][w], allocated lazily, is the highest interval of writer
	// w whose writes are reflected in this processor's copy of page.
	applied [][]int32
	// diffs[page] holds this processor's stored diffs for page, ascending
	// by tag.
	diffs map[int][]Diff

	// locks[id] is this processor's view of lock id.
	locks []lockClient

	// barrier client state
	managerVTGuess VT // conservative guess of the barrier manager's VT

	// serviceDepth counts the request handlers active on this processor
	// (Service sets it; handlers nest when a reply waits for buffer space).
	// incorporate refuses to run under it: see Protocol.
	serviceDepth int
}

// twin is a writer's dirty state for one page. Every close re-publishes a
// write notice for every live twin, so a twin born in interval b has been
// noticed by each of the intervals b..cur once cur >= b.
type twin struct {
	// data is the pristine copy made at the first write fault.
	data []byte
	// birth is the first local interval whose notice covers the twin (the
	// interval open when it was made), and the ordering stamp of its diff.
	// Twins are flushed as soon as conflicting knowledge arrives, so all of
	// a twin's writes causally belong to its birth era.
	birth int32
}

// lockClient is one processor's view of one lock.
type lockClient struct {
	// held is true inside the critical section.
	held bool
	// baton is true while this processor holds the lock's ownership baton:
	// received with a grant, passed on with a handoff.
	baton bool
	// waiting queues the handoff requests received while the lock is held or
	// its baton is still on the way here (FIFO ownership chain).
	waiting []handoffReq
}

type handoffReq struct {
	req msg.Request
	vt  VT
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
	Intervals []intervalRef
}
type diffReqMsg struct {
	Page    int
	Applied int32 // requester's applied horizon for this writer
	Known   int32 // requester's newest notice of this writer for the page
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
	Intervals []intervalRef
}
type barrierRelease struct {
	VT        VT
	Intervals []intervalRef
}

// Protocol is the TreadMarks protocol state for all processors. All fields
// but log are only touched by the processor that owns them or by its request
// handlers, which run on the owning processor, so the single-baton scheduler
// makes every stretch of code between two waits atomic — and nothing more. A
// fault or synchronization operation that blocks (Call, WaitReply, the
// barrier manager's ServeUntil, a reply waiting for buffer space) runs the
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

	ps []*pstate
	// log[q] holds every interval processor q has closed: log[q][i] is
	// interval i+1. Only q's closeInterval appends to it, and a record never
	// changes once closed, so every processor reads the same records: what
	// processor p has incorporated of q is the prefix log[q][:ps[p].vt[q]].
	// Messages name these records (intervalRef) rather than copy them.
	log [][]Interval
	// owner[id] is the last requester of lock id its manager has seen, the
	// tail of the ownership chain, or -1 before the first acquire. Only the
	// manager, rank lockManagerRank(id), touches it.
	owner []int32
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

	// diffsServed counts the diffs serveDiff replies held; testRunsLost
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
			vt:             NewVT(t.nprocs),
			twins:          make(map[int]*twin),
			known:          make([][]int32, numPages),
			applied:        make([][]int32, numPages),
			diffs:          make(map[int][]Diff),
			locks:          make([]lockClient, locks),
			managerVTGuess: NewVT(t.nprocs),
		}
		t.ps = append(t.ps, st)
	}
	t.log = make([][]Interval, t.nprocs)
	t.owner = make([]int32, locks)
	for id := range t.owner {
		t.owner[id] = -1
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

// rec returns writer q's interval id from the shared log.
func (t *Protocol) rec(q, id int32) *Interval { return &t.log[q][id-1] }

func (t *Protocol) slot(arr [][]int32, page int) []int32 {
	if arr[page] == nil {
		arr[page] = make([]int32, t.nprocs)
	}
	return arr[page]
}

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
		requester := int32(t.rt.ProcBySimID(req.From).Rank())
		switch prev := t.claim(la.Lock, requester); prev {
		case -1, requester:
			// First acquire anywhere, or a repeat acquire by the last owner,
			// which already has the lock's entire sync history: grant
			// without interval transfer.
			p.ChargeProtocol(p.Costs().HandlerWork)
			p.EP().Reply(req.From, req, lockGrant{}, 16)
		case int32(p.Rank()):
			// We are the previous owner: hand off directly.
			t.handleHandoff(p, req, la.VT, la.Lock)
		default:
			t.lockForwards++
			p.ChargeProtocol(p.Costs().HandlerWork)
			p.EP().Send(t.rt.ProcByRank(int(prev)).EP(), kindLockHandoff,
				lockHandoffMsg{Lock: la.Lock, Orig: req, VT: la.VT}, 16+int64(4*t.nprocs))
		}
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

// Finalize implements core.Protocol.
func (t *Protocol) Finalize(p *core.Proc) {}

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
