package treadmarks

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/msg"
)

// Lock implements core.Protocol (§2.2 lock acquire): ask the lock's manager,
// which forwards the request to the last requester; that processor grants
// the lock with the intervals the requester lacks once it has left the
// critical section. The manager itself asks the last requester directly.
func (t *Protocol) Lock(p *core.Proc, id int) {
	st := t.state(p)
	l := &st.locks[id]
	if l.held {
		panic(fmt.Sprintf("treadmarks: rank %d re-acquiring lock %d", p.Rank(), id))
	}
	rank := int32(p.Rank())
	target, kind := t.lockManagerRank(id), kindLockAcquire
	var data any
	if target == p.Rank() {
		prev := t.claim(id, rank)
		if prev < 0 || prev == rank {
			// Free, or we were the last owner: local acquire, no messages.
			l.held, l.baton = true, true
			p.ChargeProtocol(p.Costs().HandlerWork)
			return
		}
		// We manage the lock: forward to its owner ourselves.
		target, kind = int(prev), kindLockHandoff
		data = lockHandoffMsg{Lock: id, VT: st.vt.Clone()}
		t.lockForwards++
	} else {
		data = lockAcqMsg{Lock: id, VT: st.vt.Clone()}
	}
	g := p.EP().Call(t.rt.ProcByRank(target).EP(), kind, data, 16+int64(4*t.nprocs)).(lockGrant)
	t.incorporate(p, g.Intervals, g.VT)
	// A handoff may have queued while the grant was in flight: it waits for
	// our unlock (we are now in the critical section).
	l.held, l.baton = true, true
}

// claim is lock id's manager deciding an acquire by requester: requester
// becomes the lock's owner, and the previous owner (-1 if none) is returned.
func (t *Protocol) claim(id int, requester int32) (prev int32) {
	prev, t.owner[id] = t.owner[id], requester
	return prev
}

// Unlock implements core.Protocol: close the interval; if another processor
// is waiting for this lock, hand ownership (and unseen intervals) over.
func (t *Protocol) Unlock(p *core.Proc, id int) {
	l := &t.state(p).locks[id]
	if !l.held {
		panic(fmt.Sprintf("treadmarks: rank %d unlocking lock %d it does not hold", p.Rank(), id))
	}
	t.closeInterval(p)
	l.held = false
	if len(l.waiting) > 0 {
		h := l.waiting[0]
		l.waiting = l.waiting[1:]
		t.grantLock(p, id, h)
	}
}

// grantLock sends the requester everything it has not seen, completing the
// ownership transfer (the baton leaves this processor).
func (t *Protocol) grantLock(p *core.Proc, lock int, h handoffReq) {
	st := t.state(p)
	st.locks[lock].baton = false
	refs := t.intervalsSince(st, h.vt)
	p.ChargeProtocol(p.Costs().HandlerWork)
	p.EP().Reply(h.req.From, h.req, lockGrant{VT: st.vt.Clone(), Intervals: refs},
		16+t.wireBytes(refs))
}

// handleHandoff grants the lock now if we are not inside (or entering) the
// critical section, else queues the requester.
func (t *Protocol) handleHandoff(p *core.Proc, orig msg.Request, reqVT VT, lock int) {
	l := &t.state(p).locks[lock]
	if !l.baton || l.held {
		// Either we are inside the critical section, or our own baton is
		// still in flight (we are acquiring a later chain position): the
		// handoff waits for our unlock.
		l.waiting = append(l.waiting, handoffReq{req: orig, vt: reqVT})
		return
	}
	// We hold the baton but are not in the critical section (idle previous
	// owner, possibly re-acquiring a later position): pass it on now.
	t.closeInterval(p)
	t.grantLock(p, lock, handoffReq{req: orig, vt: reqVT})
}
