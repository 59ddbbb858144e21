// Memory Channel backend: DEC's Memory Channel network (paper §3.1), the
// reference Interconnect implementation.
//
// The model reproduces the properties the DSM protocols actually depend on:
//
//   - Remote writes only: a node can write into another node's memory through
//     transmit-mapped regions, but cannot read remote memory. Reads are always
//     local; data becomes locally readable only after it has been written to a
//     receive-mapped region on the reader's node.
//   - Latency: a process-to-process write becomes visible at remote receive
//     regions 5.2 µs after it is issued.
//   - Total write ordering: two writes to the same region appear in the same
//     order in every receive region. In the simulator this falls out of the
//     baton-passing scheduler: writes are executed one at a time in virtual
//     time order, and a per-word visibility horizon hides a write from remote
//     readers until it has "arrived".
//   - Bandwidth: per-link transfer bandwidth (~30 MB/s, limited by the 32-bit
//     PCI bus) and aggregate bandwidth (~32 MB/s with the first-generation
//     driver) are modelled as occupancy horizons; bulk transfers and the
//     write-through pipe queue behind them.
//   - Inter-node interrupts (imc_kill): cheap for the sender (~5 µs), but
//     with an end-to-end delivery cost of ~1 ms because the signal is only
//     filtered up when the receiving process enters the kernel (§3.2).
//
// Approximations (documented in DESIGN.md): word values keep one previous
// version for remote readers inside the visibility window rather than a full
// history, and the write-through pipe charges per-link bandwidth without
// aggregate contention (bulk transfers charge both).
package interconnect

import (
	"fmt"

	"repro/internal/sim"
)

// MCParams are the Memory Channel timing and capacity parameters. Zero
// values are invalid; use the MCFirstGeneration preset (as measured in the
// paper) or MCSecondGeneration for the paper's projection.
type MCParams struct {
	// Latency is the process-to-process write latency (paper: 5.2 µs).
	Latency sim.Time
	// WriteCost is the processor-side cost of issuing one PIO write to a
	// transmit region (store to I/O space over PCI).
	WriteCost sim.Time
	// LinkBandwidth is the per-link transfer bandwidth in bytes per second
	// (paper: ~30 MB/s, limited by the 32-bit PCI bus).
	LinkBandwidth int64
	// AggregateBandwidth is the cluster-wide bandwidth in bytes per second
	// (paper: ~32 MB/s with the early driver).
	AggregateBandwidth int64
	// InterruptSendCost is the sender-side cost of imc_kill (paper: 5 µs).
	InterruptSendCost sim.Time
	// InterruptLatency is the end-to-end inter-node signal latency
	// (paper: ~1 ms, dominated by kernel filtering on the receiver).
	InterruptLatency sim.Time
	// WriteBufferBytes is the depth of the processor's write buffer feeding
	// the MC adapter; the write-through pipe stalls the writer when more
	// than this many bytes are still undrained.
	WriteBufferBytes int64
}

// MCFirstGeneration models the first-generation Memory Channel measured in
// the paper.
func MCFirstGeneration() MCParams {
	return MCParams{
		Latency:            5200, // 5.2 µs
		WriteCost:          250,  // PIO store over 32-bit PCI
		LinkBandwidth:      30e6,
		AggregateBandwidth: 32e6,
		InterruptSendCost:  5 * sim.Microsecond,
		InterruptLatency:   1 * sim.Millisecond,
		WriteBufferBytes:   512,
	}
}

// MCSecondGeneration models the paper's §1 projection for the follow-on
// network: "something like half the latency, and an order of magnitude more
// bandwidth".
func MCSecondGeneration() MCParams {
	p := MCFirstGeneration()
	p.Latency /= 2
	p.LinkBandwidth *= 10
	p.AggregateBandwidth *= 10
	return p
}

// Validate reports whether the parameters are usable.
func (p MCParams) Validate() error {
	if p.Latency <= 0 || p.WriteCost <= 0 || p.InterruptSendCost <= 0 || p.InterruptLatency <= 0 {
		return fmt.Errorf("interconnect: non-positive Memory Channel timing parameter: %+v", p)
	}
	if p.LinkBandwidth <= 0 || p.AggregateBandwidth <= 0 || p.WriteBufferBytes <= 0 {
		return fmt.Errorf("interconnect: non-positive Memory Channel capacity parameter: %+v", p)
	}
	return nil
}

// mcNet is the Memory Channel instance for one simulated cluster. Construct
// it through ClusterSpec.Build.
type mcNet struct {
	shared
	params MCParams
	eng    *sim.Engine

	// linkFree[n] is the virtual time at which node n's adapter link is next
	// free; aggFree is the same for the shared hub.
	linkFree []sim.Time
	aggFree  sim.Time
}

// newMemoryChannel creates a Memory Channel for the engine's cluster.
func newMemoryChannel(eng *sim.Engine, params MCParams) (*mcNet, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &mcNet{
		shared: shared{
			// The write-through pipes drain at link bandwidth.
			writePipes:        newWritePipes(eng.NumProcs(), params.LinkBandwidth, params.WriteBufferBytes, params.Latency),
			interruptSendCost: params.InterruptSendCost,
			interruptLatency:  params.InterruptLatency,
		},
		params:   params,
		eng:      eng,
		linkFree: make([]sim.Time, eng.Config().Nodes),
	}, nil
}

// Caps implements Interconnect: remote writes only (paper §3.1).
func (n *mcNet) Caps() Caps {
	return Caps{RemoteReads: false, RemoteWrites: true}
}

// Transfer implements Interconnect: the arrival time accounts for link and
// aggregate bandwidth occupancy plus the MC latency.
func (n *mcNet) Transfer(p *sim.Proc, dst int, bytes int64, tc TrafficClass) sim.Time {
	p.Advance(n.params.WriteCost)
	src := p.Node
	start := p.Now()
	if n.linkFree[src] > start {
		start = n.linkFree[src]
	}
	if n.aggFree > start {
		start = n.aggFree
	}
	linkDur := durOn(bytes, n.params.LinkBandwidth)
	aggDur := durOn(bytes, n.params.AggregateBandwidth)
	n.linkFree[src] = start + linkDur
	if dst != src {
		// The receiving link is occupied by the DMA into the receive region.
		if rcv := n.linkFree[dst]; rcv > start {
			// Receiver contention delays completion.
			start = rcv
			n.linkFree[src] = start + linkDur
		}
		n.linkFree[dst] = start + linkDur
	}
	n.aggFree = start + aggDur
	n.bytesByClass[tc] += bytes
	n.transfers++
	arrival := start + linkDur + n.params.Latency
	return arrival
}

// RemoteRead implements Interconnect: the Memory Channel has no remote
// reads. The protocols emulate them with messages (Cashmere asks a processor
// at the home node to write the data through, §2.1).
func (n *mcNet) RemoteRead(p *sim.Proc, src int, bytes int64, tc TrafficClass) sim.Time {
	panic("interconnect: the Memory Channel has no remote reads (Caps().RemoteReads is false)")
}

// NewWordArray implements Interconnect.
func (n *mcNet) NewWordArray(nwords int, tc TrafficClass) *WordArray {
	return newWordArray(&n.stats, n.params.WriteCost, n.params.Latency, nwords, tc)
}
