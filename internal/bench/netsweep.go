package bench

import (
	"fmt"
	"io"

	"repro/internal/interconnect"
	"repro/internal/runner"
)

// The interconnect sweep goes beyond the paper's 8-node AlphaServer cluster:
// it fixes one compute processor per node and scales the node count 8 -> 64
// under every interconnect model, asking how the protocols behave when the
// fabric — not the node — is the variable. It is deliberately not part of
// -all: the paper's evaluation is Memory Channel only, and the -all output
// is pinned by golden tests.

// netSweepNodes is the node-count ladder: one compute processor per node
// keeps Cashmere inside its 64-processor sharing-set bitmask at the top end.
var netSweepNodes = []int{8, 16, 32, 64}

// NetSweepVariants are the protocols the sweep contrasts: one Cashmere
// configuration (which uses one-sided remote page reads where the fabric
// offers them) and one TreadMarks configuration.
var NetSweepVariants = []string{"csm_poll", "tmk_mc_poll"}

// netSweepApps defaults the sweep to SOR: with three interconnects, four
// node counts, and two variants per application, a full-app sweep would
// dwarf the paper tables. It must see the options BEFORE defaults(), which
// expands an empty Apps to all eight applications.
func netSweepApps(opts Options) []string {
	if len(opts.Apps) > 0 {
		return opts.Apps
	}
	return []string{"SOR"}
}

// netSweepSpec pins the explicit nodes x 1 shape and selects the
// interconnect. A Memory Channel cell keys as the plain run, so it shares
// cache entries with every other Memory Channel table.
func netSweepSpec(app, variant string, nodes int, kind interconnect.Kind, opts Options) runner.RunSpec {
	s := runner.RunSpec{App: app, Variant: variant, Nodes: nodes, PPN: 1, Size: opts.Size, Opts: opts.VariantOpts}
	s.Opts.Net = &interconnect.Spec{Kind: kind}
	return s
}

// NetSweepSpecs enumerates the interconnect x node-count sweep.
func NetSweepSpecs(opts Options) []runner.RunSpec {
	sweepApps := netSweepApps(opts)
	opts = opts.defaults()
	var specs []runner.RunSpec
	for _, app := range sweepApps {
		for _, v := range NetSweepVariants {
			for _, nodes := range netSweepNodes {
				for _, kind := range interconnect.Kinds {
					specs = append(specs, netSweepSpec(app, v, nodes, kind, opts))
				}
			}
		}
	}
	return specs
}

var netSweep = Section{
	Name:   "netsweep",
	Doc:    "interconnect x node-count sweep (8..64 nodes, every interconnect; not part of -all)",
	Specs:  NetSweepSpecs,
	render: renderNetSweep,
}

// renderNetSweep formats one block per application and variant: execution
// time in seconds per node count (rows) and interconnect (columns).
func renderNetSweep(w io.Writer, opts Options, res resultOf) {
	sweepApps := netSweepApps(opts)
	opts = opts.defaults()
	for _, app := range sweepApps {
		for _, v := range NetSweepVariants {
			header(w, fmt.Sprintf("Interconnect sweep: %s / %s (1 proc/node, seconds)", app, v))
			fmt.Fprintf(w, "%-8s", "nodes")
			for _, kind := range interconnect.Kinds {
				fmt.Fprintf(w, "%12s", string(kind))
			}
			fmt.Fprintln(w)
			for _, nodes := range netSweepNodes {
				fmt.Fprintf(w, "%-8d", nodes)
				for _, kind := range interconnect.Kinds {
					if r := res(netSweepSpec(app, v, nodes, kind, opts)); r != nil {
						fmt.Fprintf(w, "%12.3f", seconds(r.Time))
					} else {
						fmt.Fprintf(w, "%12s", "-")
					}
				}
				fmt.Fprintln(w)
			}
		}
	}
}
