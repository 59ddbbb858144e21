package core

import (
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/vm"
)

// Protocol is the coherence protocol interface. Cashmere and TreadMarks
// implement it; the kernel invokes it from the shared-memory access path and
// the synchronization entry points. All methods run on the calling
// processor's goroutine and charge costs to that processor.
type Protocol interface {
	// Name identifies the protocol variant (e.g. "csm_poll").
	Name() string
	// Setup allocates protocol-global state (directories, lock arrays).
	// Called once before processors start.
	Setup(rt *Runtime)
	// OnReadFault handles a read access to a page without read permission.
	// On return the page must be readable on p.
	OnReadFault(p *Proc, page int)
	// OnWriteFault handles a write access to a page without write
	// permission. On return the page must be writable on p.
	OnWriteFault(p *Proc, page int)
	// OnSharedWrite runs after every successful shared-memory store
	// (Cashmere doubles the write to the home node). Only called when
	// WantsWriteHook reports true.
	OnSharedWrite(p *Proc, addr Addr, size int)
	// WantsWriteHook reports whether OnSharedWrite must be invoked; keeps
	// the store fast path free of an interface call for protocols that do
	// not need it.
	WantsWriteHook() bool
	// Lock acquires the application lock with the given id.
	Lock(p *Proc, id int)
	// Unlock releases the application lock with the given id.
	Unlock(p *Proc, id int)
	// Barrier blocks until all compute processors reach barrier id.
	Barrier(p *Proc, id int)
	// Service handles one protocol request directed at processor p.
	Service(p *Proc, m sim.Msg, req msg.Request)
	// Finalize runs when a processor's application body has completed.
	Finalize(p *Proc)
	// Counters returns protocol-specific aggregate counters for reporting.
	Counters() map[string]int64
}

// DomainSafety was how a protocol declared itself fit for the node-parallel
// engine, which is gone. The frozen benchmark (perfbench/) still names the
// interface; the [benchmark] revision that stops doing so deletes it.
type DomainSafety interface{ DomainSafe() bool }

// SchedulePerturbable is an optional interface a Protocol may implement to
// declare its legal cost range under schedule perturbation
// (sim.Schedule.CostJitter): the maximum fraction by which every charged
// operation cost may be inflated without making the protocol's behavior
// illegal. The declaration is a statement about timing-independence: a
// protocol may answer a non-zero tolerance only if no decision it takes
// depends on an operation completing within a bounded virtual time — all
// waiting is condition-based (spin until the flag flips, block until the
// reply arrives), never timeout-based. core.Run refuses to run a perturbed
// schedule against a protocol that does not implement this interface, and
// rejects any requested jitter above the declared tolerance.
type SchedulePerturbable interface {
	// MaxCostJitter returns the largest legal Schedule.CostJitter for this
	// protocol (0 = cannot be perturbed).
	MaxCostJitter() float64
}

// NullProtocol runs shared memory with no coherence actions and no cost:
// every fault maps the page read-write from the initial image. It is the
// sequential baseline ("running each application sequentially without
// linking it to either TreadMarks or Cashmere", §4.2) and is only valid on a
// single processor.
type NullProtocol struct {
	rt *Runtime
}

// NewNullProtocol is a Config.NewProtocol factory for the baseline.
func NewNullProtocol(rt *Runtime) Protocol { return &NullProtocol{rt: rt} }

// Name implements Protocol.
func (n *NullProtocol) Name() string { return "sequential" }

// Setup implements Protocol.
func (n *NullProtocol) Setup(rt *Runtime) {
	if len(rt.ComputeProcs()) != 1 {
		panic("core: NullProtocol requires exactly one compute processor")
	}
}

func (n *NullProtocol) mapPage(p *Proc, page int) {
	fr := p.Space().EnsureFrame(page)
	if img := n.rt.InitialPage(page); img != nil {
		copy(fr, img)
	}
	p.Space().SetProt(page, vm.ProtReadWrite)
}

// OnReadFault implements Protocol.
func (n *NullProtocol) OnReadFault(p *Proc, page int) { n.mapPage(p, page) }

// OnWriteFault implements Protocol.
func (n *NullProtocol) OnWriteFault(p *Proc, page int) { n.mapPage(p, page) }

// OnSharedWrite implements Protocol.
func (n *NullProtocol) OnSharedWrite(p *Proc, addr Addr, size int) {}

// WantsWriteHook implements Protocol.
func (n *NullProtocol) WantsWriteHook() bool { return false }

// Lock implements Protocol (single processor: uncontended, free).
func (n *NullProtocol) Lock(p *Proc, id int) {}

// Unlock implements Protocol.
func (n *NullProtocol) Unlock(p *Proc, id int) {}

// Barrier implements Protocol (single processor: immediate).
func (n *NullProtocol) Barrier(p *Proc, id int) {}

// Service implements Protocol.
func (n *NullProtocol) Service(p *Proc, m sim.Msg, req msg.Request) {
	panic("core: NullProtocol received a request")
}

// Finalize implements Protocol.
func (n *NullProtocol) Finalize(p *Proc) {}

// Counters implements Protocol.
func (n *NullProtocol) Counters() map[string]int64 { return nil }

// MaxCostJitter implements SchedulePerturbable. The baseline runs a single
// processor with zero-cost synchronization: there is no timing-dependent
// decision anywhere, so any in-range jitter is legal.
func (n *NullProtocol) MaxCostJitter() float64 { return 1.0 }
