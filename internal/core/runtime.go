package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"repro/internal/cache"
	"repro/internal/interconnect"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/vm"
)

// Config describes one simulated DSM run: cluster shape, protocol variant,
// and model parameters.
type Config struct {
	// Nodes and ProcsPerNode give the compute-processor layout (the paper's
	// configurations range from 1x1 to 8x4).
	Nodes        int
	ProcsPerNode int
	// DedicatedServer adds one extra processor per node that only services
	// remote requests (the csm_pp variant, emulating hardware remote reads).
	DedicatedServer bool
	// PollingInstrumented charges the poll-check cost at application poll
	// points (the polling variants' instrumentation overhead).
	PollingInstrumented bool
	// MC configures the Memory Channel model (used when Net selects it,
	// which the zero Net value does).
	MC interconnect.MCParams
	// Net selects the cluster interconnect. The zero value is the Memory
	// Channel (with the MC parameters above), so legacy configurations are
	// unchanged; other kinds carry their parameters inside the spec.
	Net interconnect.Spec
	// Msg configures the messaging layer (notification mechanism).
	Msg msg.Params
	// Costs is the operation cost model.
	Costs CostModel
	// Cache, if non-nil, enables the per-processor L1 model.
	Cache *cache.Config
	// NewProtocol constructs the coherence protocol for this run.
	NewProtocol func(rt *Runtime) Protocol
	// Variant is the reporting name (e.g. "csm_poll", "tmk_udp_int").
	Variant string
	// Schedule requests a seed-derived perturbation of the simulated event
	// schedule (schedule-space exploration; internal/check, cmd/dsmcheck).
	// The zero value runs the canonical order. Run rejects a CostJitter
	// beyond the protocol's declared tolerance (SchedulePerturbable) — a
	// protocol that declares no tolerance cannot run perturbed at all.
	Schedule sim.Schedule
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Nodes <= 0 || c.ProcsPerNode <= 0 {
		return fmt.Errorf("core: bad cluster shape %dx%d", c.Nodes, c.ProcsPerNode)
	}
	if err := c.clusterSpec().Validate(); err != nil {
		return err
	}
	if err := c.Msg.Validate(); err != nil {
		return err
	}
	if err := c.Costs.Validate(); err != nil {
		return err
	}
	if c.Cache != nil {
		if err := c.Cache.Validate(); err != nil {
			return err
		}
	}
	if c.NewProtocol == nil {
		return fmt.Errorf("core: NewProtocol not set")
	}
	if err := c.Schedule.Validate(); err != nil {
		return err
	}
	return nil
}

// clusterSpec is the validated cluster description Run builds the engine
// and interconnect from: ProcsPerNode counts every engine processor,
// including the dedicated protocol processor when the variant adds one.
func (c Config) clusterSpec() interconnect.ClusterSpec {
	ppn := c.ProcsPerNode
	if c.DedicatedServer {
		ppn++
	}
	return interconnect.ClusterSpec{Nodes: c.Nodes, ProcsPerNode: ppn, MC: c.MC, Net: c.Net}
}

// Program is one application: its shared-memory footprint, synchronization
// object counts, untimed initialization, and per-processor body.
type Program struct {
	// Name identifies the application ("SOR", "LU", ...).
	Name string
	// SharedBytes is the size of the shared segment the program uses.
	SharedBytes int
	// Locks and Barriers are the number of application lock and barrier ids
	// the body uses.
	Locks, Barriers int
	// Init writes initial shared data into the image (untimed; models setup
	// completed before the measured phase, after which first-touch home
	// assignment applies).
	Init func(w *ImageWriter)
	// Body runs on every compute processor.
	Body func(p *Proc)
}

// Result is the outcome of one run.
type Result struct {
	Program string
	Variant string
	// Procs is the number of compute processors.
	Procs int
	// Time is the parallel execution time: the maximum Finish time over
	// compute processors.
	Time sim.Time
	// PerProc holds each compute processor's statistics snapshot.
	PerProc []Stats
	// Total aggregates PerProc.
	Total Stats
	// Traffic is Memory Channel bytes by traffic class name.
	Traffic map[string]int64
	// Counters are protocol-specific aggregates.
	Counters map[string]int64
	// Checks are application-reported validation values.
	Checks map[string]float64

	// Schedule records the perturbation the run executed under (zero value:
	// canonical order). Observability only, excluded from JSON: measured
	// result files never embed schedule metadata — a perturbed run's
	// serialized shape is indistinguishable from a canonical one, and cache
	// separation is the run key's job (internal/runner), not the payload's.
	Schedule sim.Schedule `json:"-"`
}

// ChecksDisagree compares a run's Checks with those of the oracle run of the
// same program (the sequential baseline) and returns the first disagreement
// in check-name order, or "" when every oracle check is reported within relTol
// (relative to max(|oracle|, 1); 0 = exact). It is the tree's one copy of the
// comparison: apps.Entry.Disagreement supplies an application's tolerance.
func ChecksDisagree(got, oracle map[string]float64, relTol float64) string {
	names := make([]string, 0, len(oracle))
	for k := range oracle {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		w := oracle[k]
		g, ok := got[k]
		switch {
		case !ok:
			return fmt.Sprintf("check %q missing", k)
		case relTol == 0 && g != w:
			return fmt.Sprintf("check %q = %v, oracle %v (exact)", k, g, w)
		case relTol != 0 && !(math.Abs(g-w)/math.Max(math.Abs(w), 1) <= relTol): // negated so NaN disagrees
			return fmt.Sprintf("check %q = %v, oracle %v (tol %v)", k, g, w, relTol)
		}
	}
	return ""
}

// Runtime wires one run together. Protocol implementations use its accessors
// to reach the cluster, the network, and the other processors.
type Runtime struct {
	cfg  Config
	prog *Program

	eng   *sim.Engine
	net   interconnect.Interconnect
	proto Protocol

	computeProcs  []*Proc   // by rank
	computeOnNode [][]*Proc // by node, each in rank order
	serverProcs   []*Proc   // by node (nil entries when DedicatedServer off)
	allProcs      []*Proc   // by engine proc id

	image    [][]byte // initial page contents; nil pages are all-zero
	numPages int

	finished int
	checks   map[string]float64
}

// Engine returns the simulation engine.
func (rt *Runtime) Engine() *sim.Engine { return rt.eng }

// Net returns the cluster interconnect (the Memory Channel model unless the
// configuration selected another kind).
func (rt *Runtime) Net() interconnect.Interconnect { return rt.net }

// Config returns the run configuration.
func (rt *Runtime) Config() Config { return rt.cfg }

// Program returns the running program (for its lock/barrier counts).
func (rt *Runtime) Program() *Program { return rt.prog }

// NumPages returns the number of shared pages.
func (rt *Runtime) NumPages() int { return rt.numPages }

// ComputeProcs returns the compute processors in rank order.
func (rt *Runtime) ComputeProcs() []*Proc { return rt.computeProcs }

// ProcByRank returns the compute processor with the given rank.
func (rt *Runtime) ProcByRank(rank int) *Proc { return rt.computeProcs[rank] }

// ServerProc returns node's dedicated protocol processor, or nil.
func (rt *Runtime) ServerProc(node int) *Proc {
	if rt.serverProcs == nil {
		return nil
	}
	return rt.serverProcs[node]
}

// ProcBySimID returns the Proc wrapping the given engine processor id.
func (rt *Runtime) ProcBySimID(id int) *Proc { return rt.allProcs[id] }

// ComputeProcsOnNode returns the compute processors on the given node, in
// rank order. The slice is built once in Run and shared: read-only.
func (rt *Runtime) ComputeProcsOnNode(node int) []*Proc { return rt.computeOnNode[node] }

// InitialPage returns the initial image of a page, or nil if it was never
// initialized (all zeros).
func (rt *Runtime) InitialPage(page int) []byte {
	if page < 0 || page >= rt.numPages {
		panic(fmt.Sprintf("core: page %d out of range [0,%d)", page, rt.numPages))
	}
	return rt.image[page]
}

// ImageWriter writes the initial shared-memory image during untimed setup.
type ImageWriter struct {
	rt *Runtime
}

func (w *ImageWriter) page(a Addr) []byte {
	pg := vm.PageOf(a)
	if pg < 0 || pg >= w.rt.numPages {
		panic(fmt.Sprintf("core: init write at %#x outside shared segment (%d pages)", a, w.rt.numPages))
	}
	if w.rt.image[pg] == nil {
		w.rt.image[pg] = make([]byte, vm.PageSize)
	}
	return w.rt.image[pg]
}

// WriteF64 stores a float64 into the initial image.
func (w *ImageWriter) WriteF64(a Addr, v float64) {
	binary.LittleEndian.PutUint64(w.page(a)[vm.Offset(a):], math.Float64bits(v))
}

// WriteI64 stores an int64 into the initial image.
func (w *ImageWriter) WriteI64(a Addr, v int64) {
	binary.LittleEndian.PutUint64(w.page(a)[vm.Offset(a):], uint64(v))
}

// Run executes the program under the configuration and returns the result.
// Panics during protocol setup and program initialization are converted to
// errors (panics inside processor bodies are already captured by the engine).
func Run(cfg Config, prog *Program) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("core: %s on %s: setup panic: %v", prog.Name, cfg.Variant, r)
		}
	}()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if prog.Body == nil {
		return nil, fmt.Errorf("core: program %q has no body", prog.Name)
	}
	cs := cfg.clusterSpec()
	eng, err := sim.NewEngine(cs.EngineConfig())
	if err != nil {
		return nil, err
	}
	net, err := cs.Build(eng)
	if err != nil {
		return nil, err
	}
	rt := &Runtime{
		cfg:      cfg,
		prog:     prog,
		eng:      eng,
		net:      net,
		numPages: (prog.SharedBytes + vm.PageSize - 1) / vm.PageSize,
		checks:   make(map[string]float64),
	}
	rt.image = make([][]byte, rt.numPages)
	rt.allProcs = make([]*Proc, eng.NumProcs())
	rt.computeOnNode = make([][]*Proc, cfg.Nodes)
	if cfg.DedicatedServer {
		rt.serverProcs = make([]*Proc, cfg.Nodes)
	}

	noFastPath := !sim.FastPathEnabled()
	for _, sp := range eng.Procs() {
		ep, err := msg.NewEndpoint(sp, net, cfg.Msg)
		if err != nil {
			return nil, err
		}
		p := &Proc{
			sp:         sp,
			ep:         ep,
			space:      vm.NewSpace(rt.numPages),
			rt:         rt,
			costs:      cfg.Costs,
			rank:       -1,
			noFastPath: noFastPath,
		}
		p.spinPoll = p.stepSpin
		if cfg.Cache != nil {
			l1, err := cache.New(*cfg.Cache)
			if err != nil {
				return nil, err
			}
			p.l1 = l1
		}
		if sp.CPU < cfg.ProcsPerNode {
			p.rank = len(rt.computeProcs)
			rt.computeProcs = append(rt.computeProcs, p)
			rt.computeOnNode[sp.Node] = append(rt.computeOnNode[sp.Node], p)
		} else {
			rt.serverProcs[sp.Node] = p
		}
		rt.allProcs[sp.ID] = p
	}

	rt.proto = cfg.NewProtocol(rt)

	if cfg.Schedule.Enabled() {
		// A perturbed schedule stretches protocol operation costs; that is
		// only legal inside the range the protocol itself declares tolerable.
		sp, ok := rt.proto.(SchedulePerturbable)
		if !ok {
			return nil, fmt.Errorf("core: %s on %s: protocol declares no schedule-perturbation tolerance; cannot run perturbed",
				prog.Name, cfg.Variant)
		}
		if max := sp.MaxCostJitter(); cfg.Schedule.CostJitter > max {
			return nil, fmt.Errorf("core: %s on %s: schedule cost jitter %v exceeds the protocol's declared tolerance %v",
				prog.Name, cfg.Variant, cfg.Schedule.CostJitter, max)
		}
		eng.SetSchedule(cfg.Schedule)
	}

	rt.proto.Setup(rt)
	for _, p := range rt.allProcs {
		p.proto = rt.proto
		p.writeHook = rt.proto.WantsWriteHook()
		pp := p
		p.ep.SetHandler(func(m sim.Msg, req msg.Request) {
			rt.proto.Service(pp, m, req)
		})
	}

	if prog.Init != nil {
		prog.Init(&ImageWriter{rt: rt})
	}

	for _, p := range rt.computeProcs {
		pp := p
		eng.Go(p.sp, func(sp *sim.Proc) {
			prog.Body(pp)
			pp.Finish()
			rt.proto.Finalize(pp)
			rt.procDone(pp)
		})
	}
	if cfg.DedicatedServer {
		for _, p := range rt.serverProcs {
			pp := p
			eng.Go(p.sp, func(sp *sim.Proc) {
				pp.ep.ServeUntilShutdown()
			})
		}
	}

	if err := eng.Run(); err != nil {
		return nil, fmt.Errorf("core: %s on %s: %w", prog.Name, cfg.Variant, err)
	}
	return rt.result(), nil
}

// procDone runs at the end of each compute body: the last processor to
// finish releases everyone parked in a service loop.
func (rt *Runtime) procDone(p *Proc) {
	for name, v := range p.checks {
		rt.checks[name] = v
	}
	rt.finished++
	if rt.finished < len(rt.computeProcs) {
		// Keep servicing protocol requests (page fetches, diff requests)
		// until the whole run completes.
		p.ep.ServeUntilShutdown()
		return
	}
	for _, other := range rt.allProcs {
		if other != p {
			p.ep.Shutdown(other.ep)
		}
	}
}

func (rt *Runtime) result() *Result {
	res := &Result{
		Program:  rt.prog.Name,
		Variant:  rt.cfg.Variant,
		Procs:    len(rt.computeProcs),
		Traffic:  make(map[string]int64),
		Counters: rt.proto.Counters(),
		Checks:   rt.checks,
		Schedule: rt.cfg.Schedule,
	}
	for _, p := range rt.computeProcs {
		st := p.Snapshot()
		res.PerProc = append(res.PerProc, st)
		res.Total.Add(&st)
		if st.FinishedAt > res.Time {
			res.Time = st.FinishedAt
		}
	}
	for tc := interconnect.TrafficClass(0); tc < interconnect.NumTrafficClasses; tc++ {
		res.Traffic[tc.String()] = rt.net.TrafficBytes(tc)
	}
	return res
}
