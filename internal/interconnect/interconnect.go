// Package interconnect defines the pluggable cluster-interconnect contract
// the DSM protocols run against, plus the three models that implement it:
//
//   - Memory Channel (Kind MemoryChannel): the paper's network — remote
//     writes only, total write ordering, per-link and aggregate bandwidth
//     occupancy, expensive imc_kill interrupts. The reference
//     implementation; its behaviour is bit-identical to the pre-interface
//     memchan package.
//   - RDMA (Kind RDMA): a modern one-sided model — remote reads *and*
//     writes, much lower latency, per-queue-pair occupancy instead of a
//     shared hub.
//   - Switched (Kind Switched): a two-level leaf/spine fabric — per-hop
//     latency and link contention, so node count stops being flat.
//
// The interface captures exactly what the protocols depend on (see
// DESIGN.md, "Interconnect contract"):
//
//   - Remote-write visibility horizons: WordArray writes become remotely
//     visible only after the fabric latency; one previous value is retained
//     for readers inside the window.
//   - Latency and occupancy charging: Transfer/WriteThrough advance the
//     issuing processor past the issue cost and queue behind busy links;
//     arrival times account for contention.
//   - Total write ordering: two writes to the same region are observed in
//     the same order everywhere, on every backend, because the protocols'
//     lock and directory algorithms require it. It is not a capability a
//     backend may decline; the conformance suite tests it unconditionally.
//   - Interrupt costs: a backend only declares what an inter-node signal
//     costs its sender and how long it takes end to end
//     (InterruptSendCost, InterruptLatency); msg computes when the target
//     becomes eligible to run its handler from those two numbers.
//   - Remote reads are capability-gated (Caps.RemoteReads): the Memory
//     Channel and the switched fabric panic on RemoteRead; protocols must
//     check the capability first.
//
// Construction goes through ClusterSpec (spec.go), which validates the
// cluster shape and parameters in one place. Only the Memory Channel takes
// parameters (MCFirstGeneration, or the MCSecondGeneration projection); the
// RDMA and switched fabrics always run their presets (DefaultRDMA,
// DefaultSwitched).
package interconnect

import "repro/internal/sim"

// Kind names an interconnect model.
type Kind string

const (
	// MemoryChannel is DEC's Memory Channel (paper §3.1), the reference
	// model.
	MemoryChannel Kind = "memchan"
	// RDMA is the one-sided remote-read/remote-write model.
	RDMA Kind = "rdma"
	// Switched is the two-level leaf/spine switched fabric.
	Switched Kind = "switched"
)

// Kinds lists the supported interconnect kinds in presentation order.
var Kinds = []Kind{MemoryChannel, RDMA, Switched}

// TrafficClass labels interconnect traffic for the statistics the paper's
// Table 3 and Figure 6 break down.
type TrafficClass int

const (
	// TrafficDoubling is write-through traffic from doubled shared writes.
	TrafficDoubling TrafficClass = iota
	// TrafficPage is whole-page (and diff) data transfer traffic.
	TrafficPage
	// TrafficMeta is directory and write-notice traffic.
	TrafficMeta
	// TrafficSync is lock and barrier traffic.
	TrafficSync
	// TrafficMessage is request/response message traffic.
	TrafficMessage
	// NumTrafficClasses is the number of traffic classes; valid classes are
	// TrafficClass(0) through NumTrafficClasses-1, so callers can iterate
	// without probing String() for a sentinel.
	NumTrafficClasses
)

func (tc TrafficClass) String() string {
	switch tc {
	case TrafficDoubling:
		return "doubling"
	case TrafficPage:
		return "page"
	case TrafficMeta:
		return "meta"
	case TrafficSync:
		return "sync"
	case TrafficMessage:
		return "message"
	}
	return "unknown"
}

// Caps declares the guarantees and capabilities a backend provides. The
// conformance suite (conformance_test.go) checks every implementation
// against its declared capabilities so a new backend cannot silently weaken
// a guarantee the protocols rely on.
type Caps struct {
	// RemoteReads reports whether RemoteRead is usable. When false,
	// RemoteRead panics: the Memory Channel hardware has no remote reads
	// (paper §3.1), and the protocols emulate them with messages.
	RemoteReads bool
	// RemoteWrites reports whether WriteThrough is usable: the backend can
	// apply one-sided writes into a remote node's memory. The Memory Channel
	// is remote-writes-only (paper §3.1), and every current backend models
	// the capability; protocols that double shared stores (Cashmere) must
	// still check it so a future receive-only backend fails fast at Setup
	// instead of mismodeling traffic.
	RemoteWrites bool
}

// Interconnect is the cluster-network contract the protocol and messaging
// layers consume. All methods are driven from processor goroutines of one
// deterministic simulation; implementations are not safe for concurrent use
// across engines.
type Interconnect interface {
	// Caps declares the model's guarantees.
	Caps() Caps

	// InterruptSendCost is the sender-side cost of an inter-node signal.
	InterruptSendCost() sim.Time
	// InterruptLatency is the end-to-end inter-node signal latency.
	InterruptLatency() sim.Time

	// Transfer models a bulk data movement of size bytes from the caller's
	// node to node dst (page copies, diffs, message payloads). The caller is
	// charged the issue cost; the returned time is when the data is fully
	// visible at dst, accounting for occupancy and latency. The caller's
	// clock is advanced past the issue cost but NOT to the arrival time
	// (writes are asynchronous).
	Transfer(p *sim.Proc, dst int, bytes int64, tc TrafficClass) sim.Time

	// RemoteRead models a one-sided read of size bytes from node src's
	// memory into the caller's node, with no involvement of any processor on
	// src. The caller is charged the issue cost; the returned time is when
	// the data is available locally (the caller typically AdvanceTo's it).
	// Panics unless Caps().RemoteReads.
	RemoteRead(p *sim.Proc, src int, bytes int64, tc TrafficClass) sim.Time

	// WriteThrough models one doubled shared-memory write of size bytes
	// headed to the home node home. It is deliberately cheap: the store cost
	// itself is charged by the caller's cost model; this call only accounts
	// for write buffer and link occupancy, stalling the writer if the buffer
	// is full.
	WriteThrough(p *sim.Proc, home int, bytes int64)
	// FenceTime returns the virtual time at which all of processor p's
	// write-through traffic issued so far is guaranteed applied at its home
	// nodes. Cashmere's release operation waits for this.
	FenceTime(p *sim.Proc) sim.Time

	// NewWordArray allocates a globally mapped array of n 8-byte words, all
	// zero, charging traffic to the given class.
	NewWordArray(n int, tc TrafficClass) *WordArray

	// AccountTraffic records bytes of traffic in the given class without
	// occupancy modelling, for small metadata writes whose cost the caller
	// charges explicitly (directory broadcast updates).
	AccountTraffic(tc TrafficClass, bytes int64)
	// TrafficBytes returns the bytes transferred so far in the given class.
	TrafficBytes(tc TrafficClass) int64
	// TotalTraffic returns all bytes transferred.
	TotalTraffic() int64
	// Transfers returns the number of bulk transfers (and remote reads)
	// performed.
	Transfers() int64
}

// stats is the traffic accounting every backend embeds (through shared); its
// methods satisfy the accounting half of the Interconnect interface.
type stats struct {
	bytesByClass [NumTrafficClasses]int64
	transfers    int64
}

// AccountTraffic implements Interconnect.
func (s *stats) AccountTraffic(tc TrafficClass, bytes int64) {
	s.bytesByClass[tc] += bytes
}

// TrafficBytes implements Interconnect.
func (s *stats) TrafficBytes(tc TrafficClass) int64 { return s.bytesByClass[tc] }

// TotalTraffic implements Interconnect.
func (s *stats) TotalTraffic() int64 {
	var t int64
	for _, b := range s.bytesByClass {
		t += b
	}
	return t
}

// Transfers implements Interconnect.
func (s *stats) Transfers() int64 { return s.transfers }

// durOn returns the time bytes occupy a pipe of the given bandwidth.
func durOn(bytes int64, bw int64) sim.Time {
	if bytes <= 0 {
		return 0
	}
	return sim.Time(bytes * int64(sim.Second) / bw)
}

// writePipes is every processor's write-through pipe in one cluster. The
// backends differ only in the bandwidth the pipe drains at, the depth of the
// write buffer in front of it, and how long a drained store takes to be
// applied at the farthest home node.
type writePipes struct {
	// drainAt[p] is the virtual time at which all write-through bytes
	// processor p has issued so far will have drained onto the link.
	drainAt []sim.Time
	bw      int64
	// wordDur and bufDur are durOn of one 8-byte store and of the whole write
	// buffer, computed once so that a doubled store costs no division.
	wordDur, bufDur sim.Time
	fenceLatency    sim.Time
}

func newWritePipes(nprocs int, bw, bufferBytes int64, fenceLatency sim.Time) writePipes {
	return writePipes{
		drainAt:      make([]sim.Time, nprocs),
		bw:           bw,
		wordDur:      durOn(8, bw),
		bufDur:       durOn(bufferBytes, bw),
		fenceLatency: fenceLatency,
	}
}

// FenceTime implements Interconnect: drain plus the fence latency.
func (w *writePipes) FenceTime(p *sim.Proc) sim.Time {
	d := w.drainAt[p.ID]
	if d < p.Now() {
		d = p.Now()
	}
	return d + w.fenceLatency
}

// push queues bytes on p's pipe and stalls p while the write buffer cannot
// absorb the backlog.
func (w *writePipes) push(p *sim.Proc, bytes int64) {
	d := w.wordDur
	if bytes != 8 {
		d = durOn(bytes, w.bw)
	}
	at := &w.drainAt[p.ID]
	if *at < p.Now() {
		*at = p.Now()
	}
	*at += d
	if *at-p.Now() > w.bufDur {
		p.AdvanceTo(*at - w.bufDur)
	}
}

// shared is the state every backend embeds and the part of the Interconnect
// interface that is the same on all of them: traffic accounting, the
// write-through pipes, and the two costs of an inter-node signal.
type shared struct {
	stats
	writePipes
	interruptSendCost, interruptLatency sim.Time
}

// WriteThrough implements Interconnect: doubled writes drain through the
// issuing processor's pipe.
func (s *shared) WriteThrough(p *sim.Proc, home int, bytes int64) {
	s.bytesByClass[TrafficDoubling] += bytes
	s.push(p, bytes)
}

// InterruptSendCost implements Interconnect.
func (s *shared) InterruptSendCost() sim.Time { return s.interruptSendCost }

// InterruptLatency implements Interconnect.
func (s *shared) InterruptLatency() sim.Time { return s.interruptLatency }
