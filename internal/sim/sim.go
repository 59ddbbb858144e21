// Package sim provides a deterministic discrete-event simulation engine for a
// cluster of SMP nodes.
//
// Each simulated processor is a coroutine (iter.Pull) with its own virtual
// clock. Exactly one processor executes at any moment, and the right to
// execute — the baton — moves only by coroutine switch: the dispatcher
// goroutine's next() into a processor, and the processor's yield back, naming
// its successor. A processor that must give way runs the engine's one dispatch
// loop itself (dispatchNext) and parks by yielding the processor it found to
// the dispatcher, which switches straight into it, so a baton pass is two
// coroutine switches and never a trip through the Go scheduler; scheduling
// needs no locks and is bit-deterministic. This is the classic one-at-a-time
// discipline, and the only mode: a sweep uses the host's cores by running many
// simulations at once (runner.Options.Jobs), never by splitting one (DESIGN.md
// §3b says why).
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
// value, disables the simulator's host-time fast paths: yield elision, inline
// poll evaluation, promised probes (PromiseUntil keeps nothing) and the
// quiet-checkpoint deadline (CheckpointQuiet is then always false, so
// internal/core runs every checkpoint in full). NewEngine
// reads it, and nothing else does. The fast paths are bit-exact — they change
// no virtual-time result — so the toggle exists purely so tests can run both
// ways and assert identical output. Baton passes are the same coroutine
// switch either way.
const NoFastPathEnv = "SIM_NO_FASTPATH"

// ParallelEnv named the switch of the node-parallel engine, which is gone.
// The frozen benchmark (perfbench/) still unsets it; the [benchmark] revision
// that stops naming it deletes this constant.
const ParallelEnv = "SIM_PARALLEL"

// FastPathEnabled reports whether the fast paths are enabled for engines
// created from now on (NewEngine consults the environment at creation time,
// not per operation).
//
// This is the one environment read in the measured packages, and sim.go the
// one measured file that may import os (internal/analysis TestMeasuredImports):
// the toggle changes host time only, so a result stays a function of its
// RunSpec.
func FastPathEnabled() bool { return os.Getenv(NoFastPathEnv) == "" }

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

// Engine owns the simulated cluster: its processors, the run queue, and the
// global event ordering. Create one with NewEngine, give each processor a body
// with Go, then call Run.
//
// All scheduling state (runq, pushCount, msgSeq, active, polling, the
// counters) is touched only by the goroutine currently holding the baton — the
// dispatcher or one of the processor coroutines — with every transfer of
// control being a coroutine switch, which orders the two sides: no locks are
// needed and the race detector verifies the discipline. The run queue holds
// exactly one entry for every queued processor and none for any other, so its
// head is always the next event.
type Engine struct {
	cfg     Config
	procs   []*Proc
	started bool

	fastYield bool // fast paths: yield elision, inline polls, promised probes, quiet deadlines

	// sched is the committed schedule perturbation (zero value: canonical
	// order). See schedule.go.
	sched Schedule

	runq      runQueue
	pushCount uint64 // run-queue push counter for FIFO tie-breaking
	msgSeq    uint64 // message sequence counter
	active    int    // processors with bodies not yet done

	// polling is set while a dispatcher evaluates a parked processor's
	// PollWait closure inline; yields and blocks panic during it, enforcing
	// the PollWait contract.
	polling bool

	// Observational counters, valid after Run.
	elided   uint64
	handoffs uint64
	polls    uint64 // PollWait closures evaluated inline by a dispatcher
}

// NewEngine creates an engine for the given cluster shape and instantiates
// all of its processors. The processors have no bodies yet; attach them with
// Go before calling Run.
func NewEngine(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{cfg: cfg, fastYield: FastPathEnabled()}
	for n := 0; n < cfg.Nodes; n++ {
		for c := 0; c < cfg.ProcsPerNode; c++ {
			p := &Proc{
				ID:   len(e.procs),
				Node: n,
				CPU:  c,
				eng:  e,
				qpos: -1,
			}
			e.procs = append(e.procs, p)
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

// SetFastYield enables or disables the fast paths on this engine — yield
// elision, inline polls, promised probes and the quiet-checkpoint deadline —
// overriding the
// SIM_NO_FASTPATH environment default. For tests that want to pin one path
// explicitly; must be called before Run.
func (e *Engine) SetFastYield(on bool) { e.fastYield = on }

// ElidedYields returns the number of yields that were satisfied without a
// scheduler round-trip. Purely observational (tests and benchmarks), like the
// two counters below; valid after Run.
func (e *Engine) ElidedYields() uint64 { return e.elided }

// DirectHandoffs returns the number of baton passes from one processor to
// another (Proc.pass finding a successor other than itself). The dispatcher's
// own dispatches — each processor's first, and the one after a body returns —
// are not counted.
func (e *Engine) DirectHandoffs() uint64 { return e.handoffs }

// InlinePolls returns the number of PollWait closures that dispatchers
// evaluated inline, without switching to the polling processor's coroutine.
func (e *Engine) InlinePolls() uint64 { return e.polls }

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
	e.applySchedule()
	e.runq.h = make([]entry, 0, len(e.procs)) // one entry per processor at most
	for _, p := range e.procs {
		p.requiet() // SetFastYield and pre-Run Delivers are settled now
		if p.body == nil {
			p.state = stateDone
			continue
		}
		e.active++
		e.enqueue(p, e.startTime(p))
		p.next, p.stop = newCoro(p.coroutine)
	}
	return e.runDispatcher()
}

func (e *Engine) deadlockError() error {
	var b strings.Builder
	fmt.Fprintf(&b, "sim: deadlock with %d processors unfinished:", e.active)
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
