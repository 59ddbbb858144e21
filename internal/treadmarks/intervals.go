package treadmarks

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/vm"
)

// closeInterval publishes the open interval if any pages are dirty: a write
// notice per live twin, stamped with the new interval id. Every page with a
// live twin is conservatively treated as modified during the interval — the
// protocol cannot know whether a still-writable page was written, so notices
// for "all logically previous writes" are re-published (§2.2's TreadMarks
// conservatism). This also keeps diff stamps fresh: a diff's covering notice
// always dominates the knowledge its writer held at its last close.
func (t *Protocol) closeInterval(p *core.Proc) {
	st := t.state(p)
	if len(st.twins) == 0 {
		return
	}
	keys := make([]int, 0, len(st.twins))
	for pg := range st.twins {
		keys = append(keys, pg)
	}
	sort.Ints(keys)
	pages := make([]int32, len(keys))
	for i, pg := range keys {
		pages[i] = int32(pg)
	}
	rank := int32(p.Rank())
	id := st.cur + 1
	st.cur = id
	st.vt[rank] = id
	t.log[rank] = append(t.log[rank], newInterval(st.vt.Clone(), pages))
	for _, pg := range pages {
		t.slot(st.known, int(pg))[rank] = id
		t.slot(st.applied, int(pg))[rank] = id
	}
	p.ChargeProtocol(sim.Time(len(pages)) * p.Costs().MemAccess * 4)
	t.intervalsClosed++
}

// intervalsSince names every interval st has incorporated that the given
// vector has not seen, in causal order: ascending (VT.Sum, Proc, ID).
// Each writer's unseen records are a contiguous slice of its log whose sums
// ascend strictly (see Interval), so the order is a k-way merge of those runs,
// written straight into the slice that is shipped: a min-heap of run heads
// keyed (sum, writer) picks the next interval, and the last run left is
// appended whole.
func (t *Protocol) intervalsSince(st *pstate, have VT) []intervalRef {
	heads := st.heads[:0]
	n := 0
	for q := range st.vt {
		if st.vt[q] > have[q] {
			i, end := have[q], st.vt[q]
			heads = append(heads, runHead{sum: t.log[q][i].sum, q: int32(q), i: i, end: end})
			n += int(end - i)
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]intervalRef, 0, n)
	for k := len(heads)/2 - 1; k >= 0; k-- {
		siftHead(heads, k)
	}
	for len(heads) > 1 {
		h := &heads[0]
		out = append(out, intervalRef{h.q, h.i + 1})
		if h.i++; h.i < h.end {
			h.sum = t.log[h.q][h.i].sum
		} else {
			last := len(heads) - 1
			heads[0] = heads[last]
			heads = heads[:last]
		}
		siftHead(heads, 0)
	}
	h := heads[0]
	for id := h.i + 1; id <= h.end; id++ {
		out = append(out, intervalRef{h.q, id})
	}
	st.heads = heads[:0]
	return out
}

// runHead is one writer's run in intervalsSince's merge: log[q][i:end] is
// still to be shipped, and sum is the VT sum of log[q][i].
type runHead struct {
	sum    int64
	q      int32
	i, end int32
}

// siftHead restores heap order on h below index i, ordering heads by (sum,
// q). Writers are distinct, so no two heads compare equal.
func siftHead(h []runHead, i int) {
	e := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1].before(&h[c]) {
			c++
		}
		if !h[c].before(&e) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = e
}

func (a *runHead) before(b *runHead) bool {
	if a.sum != b.sum {
		return a.sum < b.sum
	}
	return a.q < b.q
}

// wireBytes estimates the message size of an interval set: a compact header
// per interval plus its write notices. (Vector timestamps are delta-encoded
// against the carrying message's VT rather than shipped per interval.)
func (t *Protocol) wireBytes(refs []intervalRef) int64 {
	var b int64
	for _, r := range refs {
		b += 12 + int64(4*len(t.rec(r.Proc, r.ID).Pages))
	}
	return b
}

// incorporate merges received intervals: advances the processor's knowledge
// of each writer over them, updates the write-notice horizon, and invalidates
// pages with unseen writes (§2.2). The records themselves are the writers'
// own (Protocol.log), so nothing is copied.
func (t *Protocol) incorporate(p *core.Proc, refs []intervalRef, senderVT VT) {
	st := t.state(p)
	if st.serviceDepth > 0 {
		panic(fmt.Sprintf("treadmarks: rank %d incorporating intervals inside a request handler", p.Rank()))
	}
	rank := int32(p.Rank())
	// A write notice for a page we have dirty supersedes our twin's span:
	// flush the diff now, stamped with our pre-incorporation knowledge, so
	// that chain-ordered writes keep chain-ordered stamps. (Processing the
	// records first would inflate the stamp past the very writes that came
	// after ours.) The same pass checks that every shipped interval has been
	// closed by its writer, so each names a record in the log.
	for _, r := range refs {
		if int(r.ID) > len(t.log[r.Proc]) {
			panic(fmt.Sprintf("treadmarks: proc %d got interval (%d,%d) its writer has not closed (log at %d)",
				p.Rank(), r.Proc, r.ID, len(t.log[r.Proc])))
		}
		if len(st.twins) == 0 || r.Proc == rank || st.vt[r.Proc] >= r.ID {
			continue
		}
		for _, pg := range t.rec(r.Proc, r.ID).Pages {
			if st.twins[int(pg)] != nil {
				t.flushDiff(p, int(pg))
			}
		}
	}
	for _, r := range refs {
		q := r.Proc
		if st.vt[q] >= r.ID {
			continue // already known
		}
		if st.vt[q]+1 != r.ID {
			panic(fmt.Sprintf("treadmarks: proc %d got interval (%d,%d) knowing %d (gap)",
				p.Rank(), q, r.ID, st.vt[q]))
		}
		st.vt[q] = r.ID
		p.ChargeProtocol(p.Costs().HandlerWork / 2)
		if q == rank {
			continue
		}
		for _, pg := range t.rec(q, r.ID).Pages {
			known := t.slot(st.known, int(pg))
			if known[q] < r.ID {
				known[q] = r.ID
			}
			applied := t.slot(st.applied, int(pg))
			if applied[q] < r.ID && p.Space().Prot(int(pg)) != vm.ProtNone {
				p.Space().SetProt(int(pg), vm.ProtNone)
				if p.Space().Frame(int(pg)) != nil {
					// Unmapping a page the processor actually has mapped
					// costs an mprotect; a never-touched page is only
					// bookkeeping.
					p.ChargeProtocol(p.Costs().ProtChange)
				}
				t.invalidations++
			}
		}
	}
	if senderVT != nil {
		st.vt.MaxInto(senderVT)
	}
}
