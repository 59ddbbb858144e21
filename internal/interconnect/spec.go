package interconnect

import (
	"fmt"

	"repro/internal/sim"
)

// Spec selects an interconnect model in configuration (core.Config,
// variants.Options, the dsmrun/dsmbench -interconnect flag). The zero value
// selects the Memory Channel, the paper's network. Memory Channel parameters
// live in core.Config.MC / variants.Options.MC; the other kinds run their
// presets (DefaultRDMA, DefaultSwitched).
type Spec struct {
	// Kind selects the model; empty means MemoryChannel.
	Kind Kind
}

// ParseKind maps a flag value to a Kind ("" and "mc" mean the Memory
// Channel).
func ParseKind(s string) (Kind, error) {
	switch s {
	case "", "mc", "memchan":
		return MemoryChannel, nil
	case "rdma":
		return RDMA, nil
	case "switched":
		return Switched, nil
	}
	return "", fmt.Errorf("interconnect: unknown kind %q (have memchan, rdma, switched)", s)
}

// IsMemoryChannel reports whether the spec selects the Memory Channel.
func (s Spec) IsMemoryChannel() bool {
	return s.Kind == "" || s.Kind == MemoryChannel
}

// Validate reports whether the spec names a known kind.
func (s Spec) Validate() error {
	if s.IsMemoryChannel() || s.Kind == RDMA || s.Kind == Switched {
		return nil
	}
	return fmt.Errorf("interconnect: unknown kind %q", s.Kind)
}

// ClusterSpec is the single validated description of a simulated cluster:
// its shape (nodes x processors per node, where ProcsPerNode counts every
// engine processor, including a dedicated protocol processor if the variant
// adds one) and its interconnect. It replaces the old positional
// memchan.New(eng, params) construction: every backend is built here, after
// one validation pass.
type ClusterSpec struct {
	// Nodes and ProcsPerNode give the engine shape.
	Nodes        int
	ProcsPerNode int
	// MC configures the Memory Channel model (used when Net selects it; the
	// zero value means the MCFirstGeneration preset).
	MC MCParams
	// Net selects the interconnect (zero value: Memory Channel).
	Net Spec
}

// mcParams returns the Memory Channel parameters with the zero value
// defaulted to the first-generation preset.
func (cs ClusterSpec) mcParams() MCParams {
	if cs.MC == (MCParams{}) {
		return MCFirstGeneration()
	}
	return cs.MC
}

// Validate reports whether the cluster shape and the selected
// interconnect's parameters are usable.
func (cs ClusterSpec) Validate() error {
	if cs.Nodes <= 0 || cs.ProcsPerNode <= 0 {
		return fmt.Errorf("interconnect: bad cluster shape %dx%d", cs.Nodes, cs.ProcsPerNode)
	}
	if cs.Net.IsMemoryChannel() {
		return cs.mcParams().Validate()
	}
	return cs.Net.Validate()
}

// EngineConfig returns the simulation-engine configuration for this shape.
func (cs ClusterSpec) EngineConfig() sim.Config {
	return sim.Config{Nodes: cs.Nodes, ProcsPerNode: cs.ProcsPerNode}
}

// Build constructs the selected interconnect for an engine created from
// this spec (or any engine with the same cluster shape).
func (cs ClusterSpec) Build(eng *sim.Engine) (Interconnect, error) {
	if err := cs.Validate(); err != nil {
		return nil, err
	}
	switch cs.Net.Kind {
	case RDMA:
		return newRDMA(eng, DefaultRDMA())
	case Switched:
		return newSwitched(eng, DefaultSwitched())
	}
	return newMemoryChannel(eng, cs.mcParams())
}
