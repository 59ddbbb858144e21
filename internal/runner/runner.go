// Package runner decouples experiment planning from execution and
// presentation. A RunSpec names one deterministic simulation (application,
// protocol variant, processor count, dataset size, model options); a Plan
// collects deduplicated specs; Execute fans a plan out over a bounded pool
// of host workers and returns a ResultSet keyed by spec.
//
// Each worker owns one whole simulation — the discrete-event engine in
// internal/sim is deterministic and self-contained per run — so host-level
// parallelism cannot perturb virtual-time results: the same spec produces
// bit-identical output at any Jobs setting.
//
// Identical configurations are computed exactly once per process: Execute
// consults a process-wide memoization cache keyed by the spec's canonical
// key, so e.g. the sequential baseline shared by Table 2, Figure 5, and the
// ablations runs a single time no matter how many tables ask for it.
package runner

import (
	"fmt"
	"sort"

	"repro/internal/apps"
	"repro/internal/cache"
	"repro/internal/cashmere"
	"repro/internal/core"
	"repro/internal/interconnect"
	"repro/internal/sim"
	"repro/internal/treadmarks"
	"repro/internal/variants"
)

// RunSpec identifies one simulation: an application (or a program registered
// with RegisterProgram), a protocol variant, a total processor count mapped
// through the paper's node layouts, a dataset size, and model options.
type RunSpec struct {
	// App is a registered application name (apps.Get) or a program name
	// registered with RegisterProgram.
	App string
	// Variant is a protocol variant name or variants.Sequential.
	Variant string
	// Procs is the total compute-processor count; ignored (forced to 1)
	// for the sequential variant. It is mapped through the paper's node
	// layouts unless Nodes is set.
	Procs int
	// Nodes and PPN, when Nodes > 0, pin the exact cluster shape instead
	// of mapping Procs through variants.LayoutFor (no feasibility check:
	// the caller asked for this shape explicitly).
	Nodes, PPN int
	// Size selects the dataset scale.
	Size apps.Size
	// Opts adjusts the model for this run.
	Opts variants.Options
}

// Normalize returns the spec in canonical form: sequential runs always use
// one processor, and an empty size means the default scale. Two specs that
// normalize equally describe the same simulation.
func (s RunSpec) Normalize() RunSpec {
	if s.Variant == variants.Sequential {
		s.Procs = 1
		s.Nodes, s.PPN = 0, 0
	}
	if s.Nodes > 0 {
		if s.PPN <= 0 {
			s.PPN = 1
		}
		s.Procs = s.Nodes * s.PPN
	}
	if s.Size == "" {
		s.Size = apps.SizeDefault
	}
	return s
}

// resolvedOpts is variants.Options with every pointer dereferenced to its
// effective value, so that "nil" and "explicit default" key identically.
type resolvedOpts struct {
	MC      interconnect.MCParams
	Cache   cache.Config
	NoCache bool
	Csm     cashmere.Config
	Costs   core.CostModel
	// Schedule is part of the canonical identity: a schedule-perturbed run
	// is a different simulation than the canonical-order run of the same
	// spec, so the two must never share a memo entry or a disk-cache file.
	Schedule sim.Schedule
}

func resolve(o variants.Options) resolvedOpts {
	r := resolvedOpts{
		MC:       interconnect.MCFirstGeneration(),
		Cache:    cache.Alpha21064A,
		NoCache:  o.NoCache,
		Csm:      o.Cashmere,
		Costs:    core.DefaultCosts(),
		Schedule: o.Schedule,
	}
	if o.MC != nil {
		r.MC = *o.MC
	}
	if o.Cache != nil {
		r.Cache = *o.Cache
	}
	if o.Costs != nil {
		r.Costs = *o.Costs
	}
	return r
}

// Key returns the spec's canonical identity. Specs with equal keys describe
// the same deterministic simulation and share one cached result.
//
// Interconnect handling is asymmetric on purpose: a nil Opts.Net and any
// spec that normalizes to the Memory Channel contribute nothing to the key,
// so every pre-pluggable-interconnect key (and its disk-cache entry) remains
// byte-identical; only a genuinely different interconnect appends a
// "|net=..." segment and therefore a different cache identity. Non-zero
// TreadMarks options append a "|tmk=..." segment the same way.
func (s RunSpec) Key() string {
	s = s.Normalize()
	key := fmt.Sprintf("%s|%s|%d|%dx%d|%s|%+v", s.App, s.Variant, s.Procs, s.Nodes, s.PPN, s.Size, resolve(s.Opts))
	if net := netSpec(s.Opts); net != nil {
		key += "|net=" + net.String()
	}
	if tmk := tmkConfig(s.Opts); tmk != nil {
		key += fmt.Sprintf("|tmk=%+v", *tmk)
	}
	return key
}

// tmkConfig returns the TreadMarks options, or nil for the paper's
// configuration (the zero value), which keys as it did before the options
// were part of the key.
func tmkConfig(o variants.Options) *treadmarks.Config {
	if o.TreadMarks == (treadmarks.Config{}) {
		return nil
	}
	return &o.TreadMarks
}

// netSpec returns the normalized non-Memory-Channel interconnect spec, or
// nil when the options select the reference Memory Channel (explicitly or by
// default).
func netSpec(o variants.Options) *interconnect.Spec {
	if o.Net == nil {
		return nil
	}
	n := o.Net.Normalized()
	if n.IsMemoryChannel() {
		return nil
	}
	return &n
}

// Plan is an ordered, deduplicated collection of run specs.
type Plan struct {
	specs []RunSpec
	seen  map[string]bool
}

// NewPlan returns an empty plan.
func NewPlan() *Plan {
	return &Plan{seen: map[string]bool{}}
}

// Add appends specs to the plan, dropping any whose canonical key is
// already present.
func (p *Plan) Add(specs ...RunSpec) {
	for _, s := range specs {
		k := s.Key()
		if p.seen[k] {
			continue
		}
		p.seen[k] = true
		p.specs = append(p.specs, s.Normalize())
	}
}

// Specs returns the deduplicated specs in insertion order.
func (p *Plan) Specs() []RunSpec {
	out := make([]RunSpec, len(p.specs))
	copy(out, p.specs)
	return out
}

// Len returns the number of distinct specs in the plan.
func (p *Plan) Len() int { return len(p.specs) }

// ProgramFunc builds a fresh program at the given dataset scale. Micro
// benchmark programs (Table 1) typically ignore the size.
type ProgramFunc func(apps.Size) *core.Program

var programs = map[string]ProgramFunc{}

// RegisterProgram makes a non-application program (e.g. a microbenchmark)
// runnable by name through the runner. Must be called before any Execute
// that references the name; registrations are not synchronized, so do it
// from init functions.
func RegisterProgram(name string, build ProgramFunc) {
	if _, dup := programs[name]; dup {
		panic(fmt.Sprintf("runner: program %q registered twice", name))
	}
	programs[name] = build
}

// buildProgram resolves a spec's App to a fresh program instance.
func buildProgram(s RunSpec) (*core.Program, error) {
	if build, ok := programs[s.App]; ok {
		return build(s.Size), nil
	}
	entry, err := apps.Get(s.App)
	if err != nil {
		return nil, err
	}
	return entry.New(s.Size), nil
}

// layoutFor maps a spec to its cluster shape using the paper's node layouts.
func layoutFor(s RunSpec) (nodes, ppn int, err error) {
	if s.Variant == variants.Sequential {
		return 1, 1, nil
	}
	if s.Nodes > 0 {
		return s.Nodes, s.PPN, nil
	}
	l, err := variants.LayoutFor(s.Procs)
	if err != nil {
		return 0, 0, err
	}
	if !variants.Feasible(s.Variant, l) {
		return 0, 0, ErrInfeasible
	}
	return l.Nodes, l.PerNode, nil
}

// SortSpecs orders specs by canonical key (a stable order for reports and
// JSON emission).
func SortSpecs(specs []RunSpec) {
	sort.Slice(specs, func(i, j int) bool { return specs[i].Key() < specs[j].Key() })
}
