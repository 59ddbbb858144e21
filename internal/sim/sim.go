// Package sim provides a deterministic discrete-event simulation engine for a
// cluster of SMP nodes.
//
// Each simulated processor is a coroutine (iter.Pull) with its own virtual
// clock. The processors are partitioned into scheduling domains, each driven
// by one host worker goroutine; exactly one processor executes at any moment
// within a domain, and the right to execute — the baton — moves only by
// coroutine switch: the worker's next() into a processor, and the processor's
// yield back, naming its successor. A processor that must give way runs the
// domain's one dispatch loop itself (dispatchNext) and parks by yielding the
// processor it found to the worker, which switches straight into it, so a
// baton pass is two coroutine switches and never a trip through the Go
// scheduler; intra-domain scheduling needs no locks and is bit-deterministic.
// A sequential engine (the default) has a single domain holding every
// processor, which is the classic one-at-a-time discipline.
//
// The scheduling rule is the classic conservative one: the dispatch loop
// always picks the runnable processor with the minimum virtual clock (ties are
// FIFO in queue-push order, which is itself deterministic). Processors
// accumulate virtual time locally with Advance and must Yield before
// performing any globally visible action (acquiring a
// lock, sending a message, updating a directory entry, ...). This guarantees
// that when a processor performs such an action at virtual time t, no other
// processor can still perform an earlier conflicting action: all runnable
// processors have clocks >= t and blocked processors can only be woken at
// times chosen by already-ordered events.
//
// Parallel mode (SetParallel + SetLookahead, or SIM_PARALLEL=1) splits the
// cluster into one domain per node and advances the domains concurrently
// under a conservative window protocol: every cross-domain interaction must
// carry at least the declared lookahead of virtual latency, so each domain
// can safely execute all events below the global horizon
// min(next event) + lookahead without hearing from the others. Cross-domain
// messages and wakes are staged in per-domain buffers and applied by the
// coordinator between windows in deterministic (time, seq) order. See
// DESIGN.md §3b for the ordering argument and the exactness condition.
//
// Timing model: virtual time is int64 nanoseconds (type Time). Real wall-clock
// time plays no role anywhere in the package.
package sim

import (
	"fmt"
	"os"
	"sort"
	"strings"
)

// NoFastPathEnv is the environment variable that, when set to any non-empty
// value, disables the simulator's host-time fast paths (yield elision and
// inline poll evaluation here, the quiet-checkpoint guard in internal/core).
// The fast paths are bit-exact — they change no virtual-time result — so the
// toggle exists purely so tests can run both ways and assert identical
// output. Baton passes are the same coroutine switch either way.
const NoFastPathEnv = "SIM_NO_FASTPATH"

// FastPathEnabled reports whether the fast paths are enabled for engines and
// runtimes created from now on (the environment is consulted at creation
// time, not per operation).
//
// dsmvet:env-switch — declared SIM_* switch site; the only sanctioned kind
// of environment read in measured packages.
func FastPathEnabled() bool { return os.Getenv(NoFastPathEnv) == "" }

// ParallelRequested reports whether SIM_PARALLEL asks engines created from
// now on to default to node-parallel execution. A positive lookahead must
// still be declared per engine before parallelism engages.
//
// dsmvet:env-switch — declared SIM_* switch site; the only sanctioned kind
// of environment read in measured packages.
func ParallelRequested() bool { return os.Getenv(ParallelEnv) != "" }

// Time is virtual time in nanoseconds.
type Time = int64

// Common durations, in virtual nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000
	Millisecond Time = 1000 * 1000
	Second      Time = 1000 * 1000 * 1000
)

// Config describes the simulated cluster shape.
type Config struct {
	// Nodes is the number of SMP nodes in the cluster.
	Nodes int
	// ProcsPerNode is the number of processors on each node.
	ProcsPerNode int
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("sim: config needs at least one node, got %d", c.Nodes)
	}
	if c.ProcsPerNode <= 0 {
		return fmt.Errorf("sim: config needs at least one processor per node, got %d", c.ProcsPerNode)
	}
	return nil
}

// TotalProcs returns the number of processors in the cluster.
func (c Config) TotalProcs() int { return c.Nodes * c.ProcsPerNode }

type procState uint8

const (
	stateNew     procState = iota
	stateQueued            // in the run queue, waiting to be resumed
	stateRunning           // currently holds the baton
	stateBlocked           // waiting for a Wake
	stateDone              // body function returned
)

func (s procState) String() string {
	switch s {
	case stateNew:
		return "new"
	case stateQueued:
		return "queued"
	case stateRunning:
		return "running"
	case stateBlocked:
		return "blocked"
	case stateDone:
		return "done"
	}
	return "invalid"
}

// Engine owns the simulated cluster: its processors, the scheduling domains,
// and the global event ordering. Create one with NewEngine, add processors
// with NewProc, give each a body with Go, then call Run.
type Engine struct {
	cfg     Config
	procs   []*Proc
	domains []*domain
	started bool

	fastYield bool // elide scheduler round-trips when provably inconsequential

	// parallel requests node-parallel execution; it only engages when
	// lookahead > 0 and the cluster has more than one node.
	parallel  bool
	lookahead Time
	// parallelActive is set at Run once the engine has committed to more
	// than one domain.
	parallelActive bool

	// sched is the committed schedule perturbation (zero value: canonical
	// order). See schedule.go.
	sched Schedule

	rounds      uint64 // horizon windows executed (parallel mode)
	crossEvents uint64 // cross-domain events drained (parallel mode)
	crossTies   uint64 // same-instant cross-domain delivery collisions
}

// NewEngine creates an engine for the given cluster shape and instantiates
// all of its processors. The processors have no bodies yet; attach them with
// Go before calling Run.
func NewEngine(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:       cfg,
		fastYield: FastPathEnabled(),
		parallel:  ParallelRequested(),
	}
	d := newDomain(e, 0)
	e.domains = []*domain{d}
	for n := 0; n < cfg.Nodes; n++ {
		for c := 0; c < cfg.ProcsPerNode; c++ {
			p := &Proc{
				ID:   len(e.procs),
				Node: n,
				CPU:  c,
				eng:  e,
				dom:  d,
				qpos: -1,
			}
			e.procs = append(e.procs, p)
			d.procs = append(d.procs, p)
		}
	}
	return e, nil
}

// Config returns the cluster shape the engine was created with.
func (e *Engine) Config() Config { return e.cfg }

// Procs returns all processors in id order. The slice must not be modified.
func (e *Engine) Procs() []*Proc { return e.procs }

// Proc returns the processor with the given id.
func (e *Engine) Proc(id int) *Proc { return e.procs[id] }

// NumProcs returns the number of processors.
func (e *Engine) NumProcs() int { return len(e.procs) }

// Go attaches a body function to a processor. The body starts executing, at
// virtual time 0, when Run is called. Go panics if called after Run or if the
// processor already has a body.
func (e *Engine) Go(p *Proc, body func(*Proc)) {
	if e.started {
		panic("sim: Go called after Run")
	}
	if p.body != nil {
		panic(fmt.Sprintf("sim: proc %d already has a body", p.ID))
	}
	p.body = body
}

// SetFastYield enables or disables yield elision on this engine, overriding
// the SIM_NO_FASTPATH environment default. For tests that want to pin one
// path explicitly; must be called before Run.
func (e *Engine) SetFastYield(on bool) { e.fastYield = on }

// SetParallel requests (or suppresses) node-parallel execution, overriding
// the SIM_PARALLEL environment default. Parallel execution only engages when
// a positive lookahead has also been declared with SetLookahead and the
// cluster has more than one node; otherwise the engine runs sequentially.
// Must be called before Run.
func (e *Engine) SetParallel(on bool) { e.parallel = on }

// SetLookahead declares the minimum virtual latency of every cross-domain
// (cross-node) interaction: any Deliver or WakeAt that crosses domains must
// target a time at least `la` past the sender's clock, or Run fails. The
// model layer owns this number (e.g. interconnect.MCParams.MinCrossNodeLatency);
// declaring it too large is unsafe, too small merely shrinks the windows.
// Must be called before Run.
func (e *Engine) SetLookahead(la Time) {
	if la < 0 {
		panic(fmt.Sprintf("sim: negative lookahead %d", la))
	}
	e.lookahead = la
}

// Domains returns the number of scheduling domains the engine committed to
// at Run: 1 for sequential execution, Nodes for parallel. Before Run it
// reports what the current settings would commit to.
func (e *Engine) Domains() int {
	if e.started {
		return len(e.domains)
	}
	if e.parallel && e.lookahead > 0 && e.cfg.Nodes > 1 {
		return e.cfg.Nodes
	}
	return 1
}

// ParallelActive reports whether Run committed to more than one domain.
func (e *Engine) ParallelActive() bool { return e.parallelActive }

// dsmvet:dispatch — observational read, documented as valid only after Run
// (or between runs), when no domain is executing.
//
// ElidedYields returns the number of yields that were satisfied without a
// scheduler round-trip. Purely observational (tests and benchmarks).
func (e *Engine) ElidedYields() uint64 {
	var n uint64
	for _, d := range e.domains {
		n += d.elided
	}
	return n
}

// dsmvet:dispatch — observational read, documented as valid only after Run.
//
// DirectHandoffs returns the number of baton passes from one processor to
// another (Proc.pass finding a successor other than itself). The worker's own
// dispatches — each processor's first, and the one after a body returns — are
// not counted. Purely observational (tests and benchmarks).
func (e *Engine) DirectHandoffs() uint64 {
	var n uint64
	for _, d := range e.domains {
		n += d.handoffs
	}
	return n
}

// dsmvet:dispatch — observational read, documented as valid only after Run.
//
// InlinePolls returns the number of PollWait closures that dispatchers
// evaluated inline, without switching to the polling processor's coroutine.
// Purely observational (tests and benchmarks).
func (e *Engine) InlinePolls() uint64 {
	var n uint64
	for _, d := range e.domains {
		n += d.polls
	}
	return n
}

// HorizonRounds returns the number of conservative windows a parallel run
// executed. Zero for sequential runs. Purely observational.
func (e *Engine) HorizonRounds() uint64 { return e.rounds }

// CrossEvents returns the number of cross-domain events (deliveries and
// wakes) the coordinator drained. Zero for sequential runs.
func (e *Engine) CrossEvents() uint64 { return e.crossEvents }

// CrossTies returns the number of same-instant cross-domain delivery
// collisions observed: pairs of messages from different domains to the same
// processor at the same virtual time. When zero, the parallel run's message
// order is identical to the sequential engine's (see DESIGN.md §3b); when
// non-zero the run is still deterministic, but ties were broken by sequence
// stripe instead of global send order.
func (e *Engine) CrossTies() uint64 { return e.crossTies }

// dsmvet:dispatch — runs once at Run, before any worker or processor
// coroutine starts.
//
// partition commits the engine to its final domain layout. Sequential
// engines keep the single domain built by NewEngine; parallel engines get
// one domain per node.
func (e *Engine) partition() {
	if !(e.parallel && e.lookahead > 0 && e.cfg.Nodes > 1) {
		return
	}
	d0 := e.domains[0]
	if d0.runq.len() > 0 || d0.msgSeq != 0 {
		panic("sim: deliveries or wakes before Run are not supported in parallel mode")
	}
	e.parallelActive = true
	e.domains = make([]*domain, e.cfg.Nodes)
	for i := range e.domains {
		e.domains[i] = newDomain(e, i)
	}
	for _, p := range e.procs {
		d := e.domains[p.Node]
		p.dom = d
		d.procs = append(d.procs, p)
	}
}

// dsmvet:dispatch — runs before any worker or coroutine starts.
//
// Run executes the simulation until every processor with a body has finished,
// or until no progress is possible (deadlock). It returns an error describing
// a deadlock or a panic inside a processor body. On either failure the
// parked processor coroutines are unwound before Run returns, so an aborted
// simulation does not leak goroutines.
func (e *Engine) Run() error {
	if e.started {
		return fmt.Errorf("sim: engine already ran")
	}
	e.started = true
	e.applySchedule() // may pin sequential mode; must precede partition
	e.partition()

	for _, d := range e.domains {
		d.runq.h = make([]entry, 0, len(d.procs)) // one entry per processor at most
	}
	for _, p := range e.procs {
		if p.body == nil {
			p.state = stateDone
			continue
		}
		p.dom.active++
		p.dom.enqueue(p, e.startTime(p))
		p.next, p.stop = newCoro(p.coroutine)
	}
	return e.coordinate()
}

func (e *Engine) deadlockError(active int) error {
	var b strings.Builder
	fmt.Fprintf(&b, "sim: deadlock with %d processors unfinished:", active)
	ids := make([]int, 0, len(e.procs))
	for _, p := range e.procs {
		if p.state != stateDone {
			ids = append(ids, p.ID)
		}
	}
	sort.Ints(ids)
	for _, id := range ids {
		p := e.procs[id]
		fmt.Fprintf(&b, "\n  proc %d (node %d) %s at t=%dns: %s", p.ID, p.Node, p.state, p.now, p.blockReason)
	}
	return fmt.Errorf("%s", b.String())
}

// MaxTime returns the largest virtual clock over all processors. After Run it
// is the simulated parallel execution time.
func (e *Engine) MaxTime() Time {
	var max Time
	for _, p := range e.procs {
		if p.now > max {
			max = p.now
		}
	}
	return max
}
