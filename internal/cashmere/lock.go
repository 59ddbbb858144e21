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
// one acquire at a time, so the state lives here with its step function bound
// once at construction and an acquire allocates nothing.
type lockSpin struct {
	ls       *lockSpace
	p        *core.Proc // the rank's processor and its node, fixed at construction
	node     int
	id, base int // the lock being acquired and its first word

	stage   lockStage
	attempt int
	spin    core.Spin // deadline and backoff step of the stage's spin

	step func() (bool, sim.Time)
}

// lockStage is where an acquire resumes: each names the wait the straight-line
// algorithm would be sitting in.
type lockStage uint8

const (
	stageFlag       lockStage = iota // spinning for the per-node flag
	stageLoopback                    // entry set, spinning for its loop-back
	stageTournament                  // lowest contender, spinning until sole
	stageBackedOff                   // entry cleared, backoff slept: retry
)

func newLockSpace(rt *core.Runtime, numLocks int) *lockSpace {
	nodes := rt.Engine().Config().Nodes
	ls := &lockSpace{
		words: rt.Net().NewWordArray(numLocks*nodes, interconnect.TrafficSync),
		flags: make([][]bool, numLocks),
		nodes: nodes,
		spins: make([]lockSpin, len(rt.ComputeProcs())),
	}
	for i := range ls.flags {
		ls.flags[i] = make([]bool, nodes)
	}
	for i, p := range rt.ComputeProcs() {
		s := &ls.spins[i]
		s.ls, s.p, s.node = ls, p, p.Node()
		s.step = s.advance
	}
	return ls
}

// acquire takes cluster lock id on behalf of p. The whole algorithm is one
// PollWait: advance is its poll, so once p has parked, whichever goroutine
// dispatches p's queue entry carries the acquire forward and p's coroutine is
// resumed only when it holds the lock.
func (ls *lockSpace) acquire(p *core.Proc, id int) {
	s := &ls.spins[p.Rank()]
	s.id, s.base = id, id*ls.nodes
	// Step 1: win the per-node flag with ll/sc (intra-node).
	p.ChargeProtocol(p.Costs().LLSC)
	s.stage = stageFlag
	p.SpinBegin(&s.spin, "node lock flag")
	p.Sim().PollWait(s.step)
}

// advance runs the acquire from where it last stopped to its next scheduling
// point. It is the straight-line algorithm cut at exactly the places that
// yield — a failed spin probe (SpinBackoff) and the backoff sleep (backOff) —
// and returns (false, now) there; (true, 0) means the lock is held. It runs on
// whichever goroutine holds the baton, so nothing it calls may yield or block:
// word reads and writes, charges, and PollVisible's charge-and-reply handlers.
//
// The two one-word spins promise their next failures
// (sim.(*Proc).PromiseUntil, PromiseWhile), so the engine takes those probes
// without calling advance. Both promises are exact because only this
// processor can change what they depend on: the node flag is cleared only by
// its holder, and the entry word is written only by the holder of the node
// flag, which is this processor.
func (s *lockSpin) advance() (bool, sim.Time) {
	ls, p, sp := s.ls, s.p, s.p.Sim()
	for {
		switch s.stage {
		case stageFlag:
			flag := &ls.flags[s.id][s.node]
			if *flag {
				sp.PromiseWhile(&s.spin.Spin, flag)
				return false, p.SpinBackoff(&s.spin)
			}
			*flag = true
			s.attempt = 1
			s.setEntry()

		case stageLoopback:
			entry := s.base + s.node
			if ls.words.Read(sp, entry) != 1 {
				if cur, prev, at := ls.words.Latest(entry); cur == 1 && prev != 1 {
					sp.PromiseUntil(&s.spin.Spin, at)
				}
				return false, p.SpinBackoff(&s.spin)
			}
			// Step 3: read the whole array. Each word's read is charged
			// before it is made, one jittered Advance apiece, so word n is
			// read at the clock after n+1 charges; the charges are accounted
			// once, after the loop.
			c := p.Costs().MemAccess
			sole := true
			lowest := s.node
			for n := 0; n < ls.nodes; n++ {
				sp.Advance(c)
				if n != s.node && ls.words.Read(sp, s.base+n) != 0 {
					sole = false
					if n < lowest {
						lowest = n
					}
				}
			}
			p.Account(core.CatProtocol, sim.Time(ls.nodes)*c)
			if sole {
				return true, 0
			}
			if lowest != s.node {
				return false, s.backOff()
			}
			// Deterministic tie resolution: the lowest contending node
			// keeps its entry; higher nodes clear and back off, and the
			// current holder's entry clears at its release. Spin until
			// sole — but drop out if a still-lower node arrives meanwhile.
			s.stage = stageTournament
			p.SpinBegin(&s.spin, "lock tournament")

		case stageTournament:
			sole := true
			for n := 0; n < ls.nodes; n++ {
				if n == s.node || ls.words.Read(sp, s.base+n) == 0 {
					continue
				}
				if n < s.node {
					return false, s.backOff()
				}
				sole = false
			}
			if sole {
				return true, 0
			}
			return false, p.SpinBackoff(&s.spin)

		case stageBackedOff:
			if sp.InboxVisible() {
				p.EP().PollVisible()
			}
			s.attempt++
			s.setEntry()
		}
	}
}

// setEntry is step 2: set our node's entry with loop-back enabled and start
// the spin that waits for it to appear.
func (s *lockSpin) setEntry() {
	s.ls.words.WriteLoopback(s.p.Sim(), s.base+s.node, 1)
	s.stage = stageLoopback
	s.p.SpinBegin(&s.spin, "lock loopback")
}

// backOff is the drop-out: a lower node is contending (or holding), so clear
// our entry and sleep briefly; the acquire resumes in stageBackedOff. The sleep
// moves the clock without Advance, as Sleep does: it is not a cost, so it is
// not cost-jittered.
func (s *lockSpin) backOff() sim.Time {
	sp := s.p.Sim()
	s.ls.words.WriteLoopback(sp, s.base+s.node, 0)
	backoff := sim.Time((s.attempt*7+s.node*13)%16+1) * 3 * sim.Microsecond
	sp.AdvanceTo(sp.Now() + backoff)
	s.stage = stageBackedOff
	return sp.Now()
}

// release drops cluster lock id.
func (ls *lockSpace) release(p *core.Proc, id int) {
	node := p.Node()
	base := id * ls.nodes
	ls.words.WriteLoopback(p.Sim(), base+node, 0)
	ls.flags[id][node] = false
}
