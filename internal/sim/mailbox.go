package sim

// Msg is a timestamped message in a processor's inbox. Higher layers (the
// messaging and protocol packages) define the meaning of Kind and Data.
type Msg struct {
	// At is the virtual arrival time: the message is invisible to the
	// receiver until its clock reaches At.
	At Time
	// Seq is a globally unique sequence number used to order messages that
	// arrive at the same instant (deterministic tie-breaking).
	Seq uint64
	// From is the sending processor's id (-1 for engine-generated events).
	From int
	// Kind tags the message for the receiving layer.
	Kind int
	// Data is the payload.
	Data any
}

// mailbox keeps messages ordered by (At, Seq). Insertion keeps the slice
// sorted; traffic per processor is modest (protocol messages, not data-plane
// packets), so an ordered slice beats a heap on constant factors and gives
// stable iteration for free.
type mailbox struct {
	msgs []Msg
	// buf is msgs' backing array from its start. Receiving slides msgs forward
	// over it; once the inbox empties msgs snaps back to buf, so a processor
	// with steady traffic reuses one array instead of growing a fresh one every
	// time the window reaches the end.
	buf []Msg
}

func (mb *mailbox) insert(m Msg) {
	// Find insertion point from the back: messages usually arrive roughly in
	// order, so this is O(1) amortized in the common case.
	i := len(mb.msgs)
	for i > 0 {
		prev := mb.msgs[i-1]
		if prev.At < m.At || (prev.At == m.At && prev.Seq < m.Seq) {
			break
		}
		i--
	}
	grows := len(mb.msgs) == cap(mb.msgs)
	mb.msgs = append(mb.msgs, Msg{})
	if grows {
		mb.buf = mb.msgs[:0]
	}
	copy(mb.msgs[i+1:], mb.msgs[i:])
	mb.msgs[i] = m
}

// pop removes and returns the head message. The consumed slot is zeroed so
// the backing array does not pin its Data payload.
func (mb *mailbox) pop() Msg {
	m := mb.msgs[0]
	mb.msgs[0] = Msg{}
	if mb.msgs = mb.msgs[1:]; len(mb.msgs) == 0 {
		mb.msgs = mb.buf
	}
	return m
}

// Deliver places a message in the target processor's inbox and, if the target
// is parked, arranges for it to be woken no later than the arrival time. It
// must be called by the processor holding the baton.
func (p *Proc) Deliver(m Msg) {
	if m.Seq == 0 {
		p.eng.msgSeq++
		m.Seq = p.eng.msgSeq
	}
	p.inbox.insert(m)
	p.eng.WakeAt(p, m.At)
}

// NewMsg builds a message stamped with a fresh global sequence number, sent
// by this processor.
func (p *Proc) NewMsg(at Time, kind int, data any) Msg {
	p.eng.msgSeq++
	return Msg{At: at, Seq: p.eng.msgSeq, From: p.ID, Kind: kind, Data: data}
}

// TryRecv removes and returns the earliest message whose arrival time is not
// in the processor's future. It reports false if no message is currently
// visible.
func (p *Proc) TryRecv() (Msg, bool) {
	if len(p.inbox.msgs) == 0 || p.inbox.msgs[0].At > p.now {
		return Msg{}, false
	}
	return p.inbox.pop(), true
}

// PeekInbox reports whether any message is visible at the current clock
// without removing it.
func (p *Proc) PeekInbox() (Msg, bool) {
	if len(p.inbox.msgs) == 0 || p.inbox.msgs[0].At > p.now {
		return Msg{}, false
	}
	return p.inbox.msgs[0], true
}

// InboxLen returns the total number of messages in the inbox, including ones
// that have not yet arrived in virtual time.
func (p *Proc) InboxLen() int { return len(p.inbox.msgs) }

// Recv returns the earliest visible message, parking the processor until one
// arrives. The reason string appears in deadlock reports. The processor's
// clock advances to the arrival time of the returned message if needed.
func (p *Proc) Recv(reason string) Msg {
	for {
		if m, ok := p.TryRecv(); ok {
			return m
		}
		if len(p.inbox.msgs) > 0 {
			// Only future messages: park until the earliest arrives, or until
			// an even earlier delivery wakes us.
			p.YieldUntil(p.inbox.msgs[0].At)
			continue
		}
		p.Block(reason)
	}
}
