// Package variants maps the paper's six protocol variants (§4: three
// Cashmere and three TreadMarks configurations) plus the sequential baseline
// onto core run configurations.
package variants

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/cashmere"
	"repro/internal/core"
	"repro/internal/interconnect"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/treadmarks"
)

// Names of the six protocol variants, in the paper's order.
var Names = []string{"csm_pp", "csm_int", "csm_poll", "tmk_udp_int", "tmk_mc_int", "tmk_mc_poll"}

// Sequential is the baseline variant name.
const Sequential = "sequential"

// IsCashmere reports whether the variant is a Cashmere configuration.
func IsCashmere(name string) bool {
	return name == "csm_pp" || name == "csm_int" || name == "csm_poll"
}

// Options adjust the model. The zero value is the paper's platform, and a
// run's key and results record name only the options that differ from it.
type Options struct {
	// MC overrides the Memory Channel parameters (nil: first generation,
	// interconnect.MCFirstGeneration). Only meaningful when Net selects the
	// Memory Channel.
	MC *interconnect.MCParams
	// Net selects the interconnect model (nil or a Memory Channel spec: the
	// paper's Memory Channel). Other kinds run their preset parameters.
	Net *interconnect.Spec
	// Cache overrides the L1 geometry (nil: the 21064A's 16 KB
	// direct-mapped).
	Cache *cache.Config
	// Cashmere carries protocol-specific ablation knobs.
	Cashmere cashmere.Config
	// TreadMarks carries protocol-specific knobs (the zero value is the
	// paper's configuration). Includes the test-only fault-injection switch
	// internal/check's self-test uses to prove it catches protocol bugs.
	TreadMarks treadmarks.Config
	// Schedule perturbs the simulated event schedule (schedule-space
	// exploration; internal/check). The zero value runs the canonical
	// order. Perturbed runs carry the schedule in their canonical run key,
	// so they never share a cache entry with canonical runs.
	Schedule sim.Schedule
}

// Config builds the run configuration for one variant on the given cluster
// shape (nodes x procsPerNode compute processors).
func Config(name string, nodes, procsPerNode int, opts Options) (core.Config, error) {
	cfg := core.Config{
		Nodes:        nodes,
		ProcsPerNode: procsPerNode,
		MC:           interconnect.MCFirstGeneration(),
		Costs:        core.DefaultCosts(),
		Variant:      name,
		Schedule:     opts.Schedule,
	}
	if opts.MC != nil {
		cfg.MC = *opts.MC
	}
	if opts.Net != nil {
		if !opts.Net.IsMemoryChannel() && opts.MC != nil {
			return core.Config{}, fmt.Errorf("variants: MC parameter overrides make no sense with the %q interconnect", opts.Net.Kind)
		}
		cfg.Net = *opts.Net
	}
	c := cache.Alpha21064A
	if opts.Cache != nil {
		c = *opts.Cache
	}
	cfg.Cache = &c
	switch name {
	case "csm_pp":
		cfg.NewProtocol = cashmere.New(opts.Cashmere)
		cfg.DedicatedServer = true
		cfg.Msg = msg.DefaultParams(msg.ModePoll)
	case "csm_int":
		cfg.NewProtocol = cashmere.New(opts.Cashmere)
		cfg.Msg = msg.DefaultParams(msg.ModeInterrupt)
	case "csm_poll":
		cfg.NewProtocol = cashmere.New(opts.Cashmere)
		cfg.Msg = msg.DefaultParams(msg.ModePoll)
		cfg.PollingInstrumented = true
	case "tmk_udp_int":
		cfg.NewProtocol = treadmarks.New(opts.TreadMarks)
		cfg.Msg = msg.DefaultParams(msg.ModeUDP)
	case "tmk_mc_int":
		cfg.NewProtocol = treadmarks.New(opts.TreadMarks)
		cfg.Msg = msg.DefaultParams(msg.ModeInterrupt)
	case "tmk_mc_poll":
		cfg.NewProtocol = treadmarks.New(opts.TreadMarks)
		cfg.Msg = msg.DefaultParams(msg.ModePoll)
		cfg.PollingInstrumented = true
	case Sequential:
		cfg.Nodes, cfg.ProcsPerNode = 1, 1
		cfg.NewProtocol = core.NewNullProtocol
		cfg.Msg = msg.DefaultParams(msg.ModePoll)
	default:
		return core.Config{}, fmt.Errorf("variants: unknown variant %q", name)
	}
	return cfg, nil
}

// Layout is a processor-count configuration from the paper's §4.3: how many
// nodes and processors per node to use for a given total.
type Layout struct {
	Procs, Nodes, PerNode int
}

// PaperLayouts are the paper's processor configurations: "2: separate nodes;
// 4: one processor in each of 4 nodes; 8: two processors in each of 4 nodes;
// 12: three processors in each of 4 nodes; 16: two processors in each of 8
// nodes; 24: three processors in each of 8 nodes; 32: four in each of 8".
var PaperLayouts = []Layout{
	{1, 1, 1},
	{2, 2, 1},
	{4, 4, 1},
	{8, 4, 2},
	{12, 4, 3},
	{16, 8, 2},
	{24, 8, 3},
	{32, 8, 4},
}

// LayoutFor returns the paper's layout for a processor count.
func LayoutFor(procs int) (Layout, error) {
	for _, l := range PaperLayouts {
		if l.Procs == procs {
			return l, nil
		}
	}
	return Layout{}, fmt.Errorf("variants: no paper layout for %d processors", procs)
}

// Feasible reports whether a variant can run the layout: csm_pp dedicates
// one processor per node, so it cannot run 4 compute processors per node
// ("32: trivial, but not applicable to csm_pp", §4.3).
func Feasible(name string, l Layout) bool {
	const cpusPerNode = 4
	if name == "csm_pp" && l.PerNode >= cpusPerNode {
		return false
	}
	return true
}
