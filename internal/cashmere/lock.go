package cashmere

import (
	"repro/internal/core"
	"repro/internal/interconnect"
	"repro/internal/sim"
)

// lockSpace implements the paper's §3.3.2 cluster-wide locks: each lock is
// an array of per-node words in Memory Channel space plus a test-and-set
// flag on each node. To acquire, a processor first wins the node flag with
// ll/sc, then sets its node's array entry with loop-back enabled, waits for
// the write to appear via loop-back, and reads the whole array: if its entry
// is the only one set it holds the lock; otherwise it clears the entry,
// backs off, and retries. Application and protocol locks share this
// implementation, as in the paper.
type lockSpace struct {
	words *interconnect.WordArray // [lock*nodes + node]
	flags [][]bool                // [lock][node]: node-local test-and-set flag
	nodes int
	spins []lockSpin // [rank]: the acquire each compute processor has in flight
}

// lockSpin is one processor's acquire in flight. A processor sits in at most
// one acquire at a time, so the state lives here with its three spin
// conditions bound once at construction and an acquire allocates nothing.
type lockSpin struct {
	ls             *lockSpace
	p              *core.Proc
	id, node, base int
	won            bool

	takeFlag, sawLoopback, outlasted func() bool
}

func newLockSpace(rt *core.Runtime, name string, numLocks int) *lockSpace {
	nodes := rt.Engine().Config().Nodes
	ls := &lockSpace{
		words: rt.Net().NewWordArray(name, numLocks*nodes, interconnect.TrafficSync),
		flags: make([][]bool, numLocks),
		nodes: nodes,
		spins: make([]lockSpin, len(rt.ComputeProcs())),
	}
	for i := range ls.flags {
		ls.flags[i] = make([]bool, nodes)
	}
	for i := range ls.spins {
		s := &ls.spins[i]
		s.ls = ls
		s.takeFlag, s.sawLoopback, s.outlasted = s.tryFlag, s.loopedBack, s.tournament
	}
	return ls
}

// tryFlag wins the per-node test-and-set flag if it is free.
func (s *lockSpin) tryFlag() bool {
	flag := &s.ls.flags[s.id][s.node]
	if *flag {
		return false
	}
	*flag = true
	return true
}

// loopedBack reports whether our node's entry has appeared via loop-back.
func (s *lockSpin) loopedBack() bool {
	return s.ls.words.Read(s.p.Sim(), s.base+s.node) == 1
}

// tournament ends when we are the sole contender (won) or a lower node
// arrives (drop out).
func (s *lockSpin) tournament() bool {
	anySet := false
	for n := 0; n < s.ls.nodes; n++ {
		if n == s.node || s.ls.words.Read(s.p.Sim(), s.base+n) == 0 {
			continue
		}
		if n < s.node {
			return true // lower contender appeared: drop out
		}
		anySet = true
	}
	s.won = !anySet
	return s.won
}

// acquire takes cluster lock id on behalf of p.
func (ls *lockSpace) acquire(p *core.Proc, id int) {
	node := p.Node()
	base := id * ls.nodes
	s := &ls.spins[p.Rank()]
	s.p, s.id, s.node, s.base, s.won = p, id, node, base, false
	// Step 1: win the per-node flag with ll/sc (intra-node).
	p.ChargeProtocol(p.Costs().LLSC)
	p.SpinWait("node lock flag", s.takeFlag)
	for attempt := 1; ; attempt++ {
		// Step 2: set our node's entry and wait for it via loop-back.
		ls.words.WriteLoopback(p.Sim(), base+node, 1)
		p.SpinWait("lock loopback", s.sawLoopback)
		// Step 3: read the whole array.
		sole := true
		lowest := node
		for n := 0; n < ls.nodes; n++ {
			p.Charge(core.CatProtocol, p.Costs().MemAccess)
			if n != node && ls.words.Read(p.Sim(), base+n) != 0 {
				sole = false
				if n < lowest {
					lowest = n
				}
			}
		}
		if sole {
			return
		}
		if lowest == node {
			// Deterministic tie resolution: the lowest contending node
			// keeps its entry; higher nodes clear and back off, and the
			// current holder's entry clears at its release. Spin until
			// sole — but yield if a still-lower node arrives meanwhile.
			p.SpinWait("lock tournament", s.outlasted)
			if s.won {
				return
			}
		}
		// A lower node is contending (or holding): clear our entry, back
		// off briefly, and retry.
		ls.words.WriteLoopback(p.Sim(), base+node, 0)
		backoff := sim.Time((attempt*7+node*13)%16+1) * 3 * sim.Microsecond
		p.Sim().Sleep(backoff)
		p.EP().PollVisible()
	}
}

// release drops cluster lock id.
func (ls *lockSpace) release(p *core.Proc, id int) {
	node := p.Node()
	base := id * ls.nodes
	ls.words.WriteLoopback(p.Sim(), base+node, 0)
	ls.flags[id][node] = false
}
