// Package msg implements the request/response messaging layer both DSM
// systems use for remote operations (paper §3.2, §3.4).
//
// A request directed at processor T becomes *eligible* for service at an
// arrival-plus-dispatch time that depends on the notification mechanism:
//
//   - Polling: eligible as soon as the data arrives; T services it at its
//     next poll point (applications are instrumented at the tops of loops).
//   - Interrupt (imc_kill): eligible one inter-node signal latency (~1 ms on
//     Digital Unix) after arrival; same-node signals cost ~69 µs.
//   - Kernel UDP with SIGIO: like interrupt, plus kernel protocol-stack
//     overhead on both sides.
//
// The simulator encodes eligibility in the message timestamp: a request's
// sim.Msg.At is the time the receiver may act on it, so the same dispatch
// code services all variants. Replies never need notification — the
// requester spins — so a reply's At is its data arrival time.
//
// While waiting for a reply, a processor services incoming requests (the
// paper makes TreadMarks' handlers re-entrant to avoid flow-control
// deadlock); Call's wait loop does the same.
package msg

import (
	"fmt"

	"repro/internal/interconnect"
	"repro/internal/sim"
)

// Mode selects the notification mechanism for requests.
type Mode int

const (
	// ModePoll: user-level MC buffers, polling instrumentation.
	ModePoll Mode = iota
	// ModeInterrupt: user-level MC buffers, imc_kill interrupts.
	ModeInterrupt
	// ModeUDP: DEC's kernel MC UDP with SIGIO interrupts.
	ModeUDP
)

func (m Mode) String() string {
	switch m {
	case ModePoll:
		return "poll"
	case ModeInterrupt:
		return "interrupt"
	case ModeUDP:
		return "udp"
	}
	return "invalid"
}

// Params are the messaging-layer cost parameters.
type Params struct {
	Mode Mode
	// IntraNodeLatency is the delivery latency between processes on the same
	// SMP node (message buffers in ordinary shared memory, §3.4).
	IntraNodeLatency sim.Time
	// PerMessageCost is the sender-side software overhead per message
	// (buffer management, flow-control flags) for user-level messaging.
	PerMessageCost sim.Time
	// UDPPerMessageCost is the additional kernel protocol-stack cost per
	// message, charged on both sides in ModeUDP.
	UDPPerMessageCost sim.Time
	// DispatchCost is the receiver-side cost of entering the request handler
	// from a poll point.
	DispatchCost sim.Time
	// LocalSignalCost is the cost of delivering a signal to a process on the
	// same node (paper §4.1: 69 µs).
	LocalSignalCost sim.Time
}

// DefaultParams returns messaging parameters for the given mode with the
// paper's measured constants.
func DefaultParams(mode Mode) Params {
	return Params{
		Mode:              mode,
		IntraNodeLatency:  1 * sim.Microsecond,
		PerMessageCost:    3 * sim.Microsecond,
		UDPPerMessageCost: 80 * sim.Microsecond,
		DispatchCost:      2 * sim.Microsecond,
		LocalSignalCost:   69 * sim.Microsecond,
	}
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.IntraNodeLatency <= 0 || p.PerMessageCost <= 0 || p.DispatchCost <= 0 ||
		p.LocalSignalCost <= 0 || p.UDPPerMessageCost < 0 {
		return fmt.Errorf("msg: non-positive parameter: %+v", p)
	}
	if p.Mode < ModePoll || p.Mode > ModeUDP {
		return fmt.Errorf("msg: invalid mode %d", p.Mode)
	}
	return nil
}

// Message kinds reserved by the layer. Protocol request kinds must be >= 0.
const (
	// KindReply carries a response to a Call.
	KindReply = -1
	// KindShutdown tells a parked service loop to exit.
	KindShutdown = -2
)

// Request is the payload of a protocol request message.
type Request struct {
	// Token correlates the eventual reply with the waiting Call.
	Token uint64
	// From is the requesting processor's id.
	From int
	// Data is the protocol-defined request body.
	Data any
}

// Reply is the payload of a KindReply message.
type Reply struct {
	Token uint64
	Data  any
}

// Handler services one protocol request. Implementations must send exactly
// one reply via Endpoint.Reply for requests sent with Call, and none for
// requests sent with Send.
type Handler func(m sim.Msg, req Request)

// Endpoint is one processor's attachment to the messaging layer.
type Endpoint struct {
	p       *sim.Proc
	net     interconnect.Interconnect
	params  Params
	handler Handler

	nextToken uint64
	shutdown  bool
	// stash holds replies that arrived while waiting for a different token
	// (parallel Calls in flight).
	stash map[uint64]any

	// Stats (paper Table 3 reports message counts and data volume).
	messagesSent int64
	bytesSent    int64
}

// NewEndpoint attaches processor p to the messaging layer.
func NewEndpoint(p *sim.Proc, net interconnect.Interconnect, params Params) (*Endpoint, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &Endpoint{p: p, net: net, params: params}, nil
}

// SetHandler installs the protocol's request handler. It must be set before
// any request can arrive.
func (ep *Endpoint) SetHandler(h Handler) { ep.handler = h }

// MessagesSent returns the number of messages this endpoint has sent.
func (ep *Endpoint) MessagesSent() int64 { return ep.messagesSent }

// BytesSent returns the payload bytes this endpoint has sent.
func (ep *Endpoint) BytesSent() int64 { return ep.bytesSent }

// send transmits a message of the given wire size to the target processor
// and returns the data arrival time. Sender-side costs are charged here.
func (ep *Endpoint) send(target *sim.Proc, bytes int64, tc interconnect.TrafficClass) sim.Time {
	ep.messagesSent++
	ep.bytesSent += bytes
	ep.p.Advance(ep.params.PerMessageCost)
	if ep.params.Mode == ModeUDP {
		ep.p.Advance(ep.params.UDPPerMessageCost)
	}
	if target.Node == ep.p.Node {
		return ep.p.Now() + ep.params.IntraNodeLatency
	}
	return ep.net.Transfer(ep.p, target.Node, bytes, tc)
}

// requestEligibility converts a data arrival time into the time the receiver
// may act on the request, per the notification mechanism.
func (ep *Endpoint) requestEligibility(target *sim.Proc, arrival sim.Time) sim.Time {
	switch ep.params.Mode {
	case ModePoll:
		return arrival
	case ModeInterrupt, ModeUDP:
		if target.Node == ep.p.Node {
			return arrival + ep.params.LocalSignalCost
		}
		// Remote signal: the sender-side imc_kill cost.
		ep.p.Advance(ep.net.InterruptSendCost())
		lat := ep.net.InterruptLatency()
		if ep.params.Mode == ModeUDP {
			lat += ep.params.UDPPerMessageCost // kernel receive path
		}
		return arrival + lat
	}
	panic("msg: invalid mode")
}

// Send transmits a one-way request (no reply expected) to the target.
func (ep *Endpoint) Send(target *Endpoint, kind int, data any, bytes int64) {
	if kind < 0 {
		panic(fmt.Sprintf("msg: protocol request kind %d must be >= 0", kind))
	}
	ep.p.Yield() // scheduling point before a globally visible action
	arrival := ep.send(target.p, bytes, interconnect.TrafficMessage)
	at := ep.requestEligibility(target.p, arrival)
	target.p.Deliver(ep.p.NewMsg(at, kind, Request{From: ep.p.ID, Data: data}))
}

// Call transmits a request and blocks until the matching reply arrives,
// servicing any requests that become eligible in the meantime (re-entrant
// wait, §3.4). It returns the reply payload.
func (ep *Endpoint) Call(target *Endpoint, kind int, data any, bytes int64) any {
	return ep.WaitReply(ep.CallStart(target, kind, data, bytes))
}

// CallStart transmits a request and returns a token for WaitReply, allowing
// several requests to be in flight at once (TreadMarks issues the diff
// requests for a page in parallel and then awaits all the replies).
func (ep *Endpoint) CallStart(target *Endpoint, kind int, data any, bytes int64) uint64 {
	if kind < 0 {
		panic(fmt.Sprintf("msg: protocol request kind %d must be >= 0", kind))
	}
	ep.nextToken++
	token := ep.nextToken
	ep.p.Yield()
	arrival := ep.send(target.p, bytes, interconnect.TrafficMessage)
	at := ep.requestEligibility(target.p, arrival)
	target.p.Deliver(ep.p.NewMsg(at, kind, Request{Token: token, From: ep.p.ID, Data: data}))
	return token
}

// WaitReply blocks until the reply with the given token arrives, servicing
// eligible requests while waiting. Replies for other outstanding tokens are
// stashed for their own WaitReply.
func (ep *Endpoint) WaitReply(token uint64) any {
	if r, ok := ep.stash[token]; ok {
		delete(ep.stash, token)
		return r
	}
	for {
		m := ep.p.Recv("awaiting message reply")
		switch m.Kind {
		case KindReply:
			r := m.Data.(Reply)
			if r.Token == token {
				return r.Data
			}
			if ep.stash == nil {
				ep.stash = make(map[uint64]any)
			}
			ep.stash[r.Token] = r.Data
		case KindShutdown:
			panic(fmt.Sprintf("msg: proc %d received shutdown while awaiting reply", ep.p.ID))
		default:
			ep.dispatch(m)
		}
	}
}

// Reply sends the response for a request received via Call. The replying
// processor charges the send; the requester sees the reply at data arrival
// (it is spinning, so no notification latency applies). Replies carry
// TrafficMessage accounting; use ReplyClass for bulk data.
func (ep *Endpoint) Reply(to int, req Request, data any, bytes int64) {
	ep.ReplyClass(to, req, data, bytes, interconnect.TrafficMessage)
}

// ReplyClass is Reply with an explicit Memory Channel traffic class, so that
// page and diff payloads are accounted as data traffic rather than protocol
// messages.
func (ep *Endpoint) ReplyClass(to int, req Request, data any, bytes int64, tc interconnect.TrafficClass) {
	target := ep.p.Engine().Proc(to)
	arrival := ep.send(target, bytes, tc)
	target.Deliver(ep.p.NewMsg(arrival, KindReply, Reply{Token: req.Token, Data: data}))
}

// dispatch runs the handler for one request message, charging the dispatch
// cost.
func (ep *Endpoint) dispatch(m sim.Msg) {
	if m.Kind == KindShutdown {
		ep.shutdown = true
		return
	}
	if ep.handler == nil {
		panic(fmt.Sprintf("msg: proc %d has no handler for kind %d", ep.p.ID, m.Kind))
	}
	ep.p.Advance(ep.params.DispatchCost)
	ep.handler(m, m.Data.(Request))
}

// PollVisible services all currently eligible requests without blocking.
// Poll points and compute-slice checkpoints call this.
func (ep *Endpoint) PollVisible() {
	for {
		m, ok := ep.p.TryRecv()
		if !ok {
			return
		}
		ep.dispatch(m)
	}
}

// ServeUntilShutdown services requests until a KindShutdown message is
// received. Dedicated protocol processors and finished application
// processors park here.
func (ep *Endpoint) ServeUntilShutdown() {
	for !ep.shutdown {
		m := ep.p.Recv("serving requests")
		ep.dispatch(m)
	}
}

// Shutdown delivers a KindShutdown message to the target, waking it from
// ServeUntilShutdown at the current virtual time.
func (ep *Endpoint) Shutdown(target *Endpoint) {
	target.p.Deliver(ep.p.NewMsg(ep.p.Now(), KindShutdown, nil))
}
