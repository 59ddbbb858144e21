package treadmarks

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
)

// Barrier implements core.Protocol (§2.2 barrier synchronization with a
// centralized manager at rank 0).
func (t *Protocol) Barrier(p *core.Proc, id int) {
	st := t.state(p)
	t.closeInterval(p)
	if t.nprocs == 1 {
		return
	}
	if p.Rank() == 0 {
		t.barrierManager(p, id)
		return
	}
	// Send our VT plus the intervals the manager may lack, per our
	// conservative guess of its vector timestamp.
	refs := t.intervalsSince(st, st.managerVTGuess)
	reply := p.EP().Call(t.rt.ProcByRank(0).EP(), kindBarrierArrive,
		barrierArriveMsg{Barrier: id, VT: st.vt.Clone(), Intervals: refs},
		16+int64(4*t.nprocs)+t.wireBytes(refs))
	rel := reply.(barrierRelease)
	t.incorporate(p, rel.Intervals, rel.VT)
	st.managerVTGuess = rel.VT.Clone()
}

// barrierManager gathers all arrivals for barrier id (servicing other
// requests meanwhile), incorporates their intervals — here, at the manager's
// own barrier, never in the handler that queued them (see Protocol), which is
// also when TreadMarks' manager merges; the per-record work is therefore
// charged at barrier time — and releases everyone with the intervals they
// lack.
func (t *Protocol) barrierManager(p *core.Proc, id int) {
	st := t.state(p)
	p.EP().ServeUntil("barrier manager awaiting arrivals",
		func() bool { return len(t.arrived) >= t.nprocs-1 })
	arrived := t.arrived
	t.arrived = nil
	for _, req := range arrived {
		ba := req.Data.(barrierArriveMsg)
		if ba.Barrier != id {
			panic(fmt.Sprintf("treadmarks: arrival for barrier %d during barrier %d", ba.Barrier, id))
		}
		t.incorporate(p, ba.Intervals, ba.VT)
	}
	p.ChargeProtocol(sim.Time(t.nprocs) * p.Costs().HandlerWork)
	for _, req := range arrived {
		refs := t.intervalsSince(st, req.Data.(barrierArriveMsg).VT)
		p.EP().Reply(req.From, req, barrierRelease{VT: st.vt.Clone(), Intervals: refs},
			16+int64(4*t.nprocs)+t.wireBytes(refs))
	}
	st.managerVTGuess = st.vt.Clone()
}
