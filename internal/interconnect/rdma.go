// RDMA backend: a one-sided remote-memory-access model in the style of the
// user-level DSM work the paper's related-work section points toward (VIA /
// InfiniBand-generation NICs). Three properties distinguish it from the
// Memory Channel:
//
//   - True remote reads: RemoteRead fetches a remote node's memory with no
//     involvement of any processor there (Caps.RemoteReads). Cashmere uses
//     it to replace the page-fetch request/reply with a single one-sided
//     read when the backend allows it.
//   - Much lower latency: ~1.3 µs one-sided write visibility versus the
//     Memory Channel's 5.2 µs, and interrupt (completion-event) delivery in
//     tens of microseconds rather than a millisecond.
//   - Per-queue-pair occupancy: each (src, dst) node pair serializes on its
//     own queue pair, and each node's NIC has its own link bandwidth —
//     there is no cluster-wide shared hub, so aggregate bandwidth scales
//     with node count instead of being flat.
package interconnect

import (
	"fmt"

	"repro/internal/sim"
)

// RDMAParams are the RDMA model's timing and capacity parameters. Zero
// values are invalid; use the DefaultRDMA preset.
type RDMAParams struct {
	// Latency is the one-sided remote-write visibility latency: a posted
	// write becomes visible in the destination node's memory this long after
	// it leaves the queue pair.
	Latency sim.Time
	// ReadLatency is the one-sided read completion latency (request plus
	// response wire time; a full round trip, so roughly twice Latency).
	ReadLatency sim.Time
	// PostCost is the processor-side cost of posting one work request and
	// ringing the doorbell.
	PostCost sim.Time
	// QPBandwidth is the per-queue-pair bandwidth in bytes per second:
	// transfers between the same (src, dst) node pair serialize on it.
	QPBandwidth int64
	// NICBandwidth is the per-node adapter bandwidth in bytes per second;
	// all traffic in or out of one node serializes on it.
	NICBandwidth int64
	// InterruptSendCost is the sender-side cost of raising a completion
	// event on the target.
	InterruptSendCost sim.Time
	// InterruptLatency is the end-to-end completion-event delivery latency
	// (event queue plus user-level upcall; no kernel signal path).
	InterruptLatency sim.Time
	// WriteBufferBytes is the posted-but-undrained write budget; the
	// write-through pipe stalls the writer beyond it.
	WriteBufferBytes int64
}

// DefaultRDMA is the RDMA preset: an early-2000s user-level NIC — two
// orders of magnitude less latency than kernel UDP, per-pair queueing, and
// no shared hub.
func DefaultRDMA() RDMAParams {
	return RDMAParams{
		Latency:           1300, // 1.3 µs one-sided write
		ReadLatency:       3 * sim.Microsecond,
		PostCost:          100,
		QPBandwidth:       160e6,
		NICBandwidth:      640e6,
		InterruptSendCost: 1 * sim.Microsecond,
		InterruptLatency:  30 * sim.Microsecond,
		WriteBufferBytes:  4096,
	}
}

// Validate reports whether the parameters are usable.
func (p RDMAParams) Validate() error {
	if p.Latency <= 0 || p.ReadLatency <= 0 || p.PostCost <= 0 ||
		p.InterruptSendCost <= 0 || p.InterruptLatency <= 0 {
		return fmt.Errorf("interconnect: non-positive RDMA timing parameter: %+v", p)
	}
	if p.QPBandwidth <= 0 || p.NICBandwidth <= 0 || p.WriteBufferBytes <= 0 {
		return fmt.Errorf("interconnect: non-positive RDMA capacity parameter: %+v", p)
	}
	return nil
}

// rdmaNet is the RDMA instance for one simulated cluster. Construct it
// through ClusterSpec.Build.
type rdmaNet struct {
	shared
	params RDMAParams
	nodes  int

	// qpFree[src*nodes+dst] is the time the (src, dst) queue pair is next
	// free; nicFree[n] the same for node n's adapter.
	qpFree  []sim.Time
	nicFree []sim.Time
}

// newRDMA creates an RDMA fabric for the engine's cluster.
func newRDMA(eng *sim.Engine, params RDMAParams) (*rdmaNet, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	nodes := eng.Config().Nodes
	return &rdmaNet{
		shared: shared{
			// Doubled writes drain through the NIC at adapter bandwidth.
			writePipes:        newWritePipes(eng.NumProcs(), params.NICBandwidth, params.WriteBufferBytes, params.Latency),
			interruptSendCost: params.InterruptSendCost,
			interruptLatency:  params.InterruptLatency,
		},
		params:  params,
		nodes:   nodes,
		qpFree:  make([]sim.Time, nodes*nodes),
		nicFree: make([]sim.Time, nodes),
	}, nil
}

// Caps implements Interconnect: one-sided remote reads are the point of
// this model. The total write ordering every backend owes the protocols
// comes from ordering within a queue pair plus the simulator's serialized
// write execution.
func (n *rdmaNet) Caps() Caps {
	return Caps{RemoteReads: true, RemoteWrites: true}
}

// occupy charges one bulk movement between the caller's node and node peer:
// the data serializes on the (local, peer) queue pair and occupies both
// NICs. It returns the start time plus the queue-pair transfer duration
// (the moment the last byte leaves the pair).
func (n *rdmaNet) occupy(p *sim.Proc, peer int, bytes int64) sim.Time {
	local := p.Node
	qp := &n.qpFree[local*n.nodes+peer]
	start := p.Now()
	if *qp > start {
		start = *qp
	}
	if n.nicFree[local] > start {
		start = n.nicFree[local]
	}
	if peer != local && n.nicFree[peer] > start {
		start = n.nicFree[peer]
	}
	qpDur := durOn(bytes, n.params.QPBandwidth)
	nicDur := durOn(bytes, n.params.NICBandwidth)
	*qp = start + qpDur
	n.nicFree[local] = start + nicDur
	if peer != local {
		n.nicFree[peer] = start + nicDur
	}
	return start + qpDur
}

// Transfer implements Interconnect: a one-sided remote write.
func (n *rdmaNet) Transfer(p *sim.Proc, dst int, bytes int64, tc TrafficClass) sim.Time {
	p.Advance(n.params.PostCost)
	done := n.occupy(p, dst, bytes)
	n.bytesByClass[tc] += bytes
	n.transfers++
	return done + n.params.Latency
}

// RemoteRead implements Interconnect: a one-sided read of node src's memory
// with no remote processor involvement. The returned completion time
// includes the full round trip.
func (n *rdmaNet) RemoteRead(p *sim.Proc, src int, bytes int64, tc TrafficClass) sim.Time {
	p.Advance(n.params.PostCost)
	done := n.occupy(p, src, bytes)
	n.bytesByClass[tc] += bytes
	n.transfers++
	return done + n.params.ReadLatency
}

// NewWordArray implements Interconnect.
func (n *rdmaNet) NewWordArray(nwords int, tc TrafficClass) *WordArray {
	return newWordArray(&n.stats, n.params.PostCost, n.params.Latency, nwords, tc)
}
