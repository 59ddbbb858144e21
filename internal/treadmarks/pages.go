package treadmarks

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/interconnect"
	"repro/internal/msg"
	"repro/internal/vm"
)

// flushDiff turns the current twin into a stored diff (write-protecting the
// page) so that subsequently applied remote diffs do not pollute our own.
func (t *Protocol) flushDiff(p *core.Proc, page int) {
	st := t.state(p)
	tw := st.twins[page]
	if tw == nil {
		return
	}
	// A twin no close has published yet covers writes of the open interval:
	// close it first so the diff is tagged with a real, published write
	// notice. (Interval boundaries may legally fall anywhere; the notice
	// only propagates through future synchronization.)
	if tw.birth > st.cur {
		t.closeInterval(p)
	}
	// The diff covers the notices birth..cur, so its tag is cur; its
	// ordering timestamp is the birth notice's. Later re-notices merely
	// re-advertise the twin's writes and must not re-stamp them past a chain
	// successor's newer diff.
	rank := int32(p.Rank())
	d := Diff{Tag: st.cur, VT: t.rec(rank, tw.birth).VT, Runs: MakeDiff(p.Space().Frame(page), tw.data)}
	st.diffs[page] = append(st.diffs[page], d)
	delete(st.twins, page)
	// MakeDiff copied the runs out: nothing references the twin now.
	t.rt.ReleasePage(tw.data)
	if p.Space().Prot(page).CanWrite() {
		p.Space().SetProt(page, vm.ProtRead)
		p.ChargeProtocol(p.Costs().ProtChange)
	}
	p.ChargeProtocol(p.Costs().DiffCreate(d.Bytes(), vm.PageSize))
	p.Stats().DiffsCreated++
}

// validate makes page logically current on p: flush our own twin, fetch a
// base copy if we have none, then request and merge every missing diff in
// causal order. On return the page is mapped read-only.
func (t *Protocol) validate(p *core.Proc, page int) {
	st := t.state(p)
	if st.validating {
		// The scratch below is per processor: only a handler could re-enter
		// here, and no handler validates.
		panic(fmt.Sprintf("treadmarks: proc %d re-entered validate (page %d)", p.Rank(), page))
	}
	st.validating = true
	rank := p.Rank()
	if st.twins[page] != nil {
		t.flushDiff(p, page)
	}
	if p.Space().Frame(page) == nil {
		t.fetchPage(p, page)
	}
	applied := t.slot(st.applied, page)
	known := st.known[page]
	// Request the missing diffs from every writer in parallel (as
	// TreadMarks does), then collect all replies before merging.
	all, calls := st.gathered[:0], st.calls[:0]
	if known != nil {
		for w := 0; w < t.nprocs; w++ {
			if w == rank || known[w] <= applied[w] {
				continue
			}
			t.diffRequests++
			tok := p.EP().CallStart(t.rt.ProcByRank(w).EP(), kindDiffRequest,
				diffReqMsg{Page: page, Applied: applied[w], Known: known[w]}, 24)
			calls = append(calls, inflight{writer: w, token: tok, horizon: known[w]})
		}
		for i := range calls {
			diffs := p.EP().WaitReply(calls[i].token).([]Diff)
			for _, d := range diffs {
				all = append(all, gathered{sum: d.VT.Sum(), writer: calls[i].writer, diff: d})
			}
			if n := len(diffs); n > 0 {
				calls[i].horizon = max(calls[i].horizon, diffs[n-1].Tag)
			}
		}
	}
	// Merge in the causal order defined by the diffs' interval timestamps
	// (§2.2): timestamp sums give a linear extension of happens-before;
	// ties (concurrent diffs) are ordered by writer then tag, which is safe
	// because concurrent diffs of data-race-free programs touch disjoint
	// bytes.
	sort.Sort(all)
	var frame []byte
	if len(all) > 0 {
		// The frame may share the initial image: only a diff to apply
		// needs a private copy.
		frame = p.Space().EnsureFrame(page)
	}
	for _, g := range all {
		ApplyDiff(frame, g.diff.Runs)
		p.ChargeProtocol(p.Costs().DiffApplyBase + p.Costs().Copy(g.diff.Bytes()))
		p.Stats().DiffsApplied++
	}
	// Only now does the frame hold what the replies covered. A servePage
	// nested in the waits above ships frame and applied together, so raising
	// applied as each reply arrived would have it claim diffs the shipped
	// frame lacks — and the requester would never ask their writer.
	for _, c := range calls {
		applied[c.writer] = max(applied[c.writer], c.horizon)
	}
	// Keep the scratch's capacity, but no reference to a merged diff.
	clear(all)
	st.gathered, st.calls = all[:0], calls[:0]
	st.validating = false
	p.Space().SetProt(page, vm.ProtRead)
	p.ChargeProtocol(p.Costs().ProtChange)
}

// inflight is one diff request validate has sent and not yet merged.
type inflight struct {
	writer int
	token  uint64
	// horizon is what the copy covers of the writer once the reply is
	// merged: every notice the request knew of, and every interval the
	// newest served diff covers (DESIGN §8 rule 10).
	horizon int32
}

// gathered is one diff validate received, with the sum of its timestamp.
type gathered struct {
	sum    int64
	writer int
	diff   Diff
}

// causalOrder sorts gathered diffs by (timestamp sum, writer, tag). A writer
// ships a page's diffs with distinct tags, so the order is total and any sort
// yields the same sequence.
type causalOrder []gathered

func (c causalOrder) Len() int      { return len(c) }
func (c causalOrder) Swap(i, j int) { c[i], c[j] = c[j], c[i] }
func (c causalOrder) Less(i, j int) bool {
	a, b := &c[i], &c[j]
	if a.sum != b.sum {
		return a.sum < b.sum
	}
	if a.writer != b.writer {
		return a.writer < b.writer
	}
	return a.diff.Tag < b.diff.Tag
}

// fetchPage obtains a base copy of the page from its static manager, along
// with the vector describing which intervals the copy reflects.
func (t *Protocol) fetchPage(p *core.Proc, page int) {
	st := t.state(p)
	manager := t.pageManagerRank(page)
	if manager == p.Rank() {
		// Our own managed page: the base copy is the initial image, which
		// the frame shares until a diff or a store needs a private copy.
		// The copy of a page Init wrote is still charged: the simulated
		// processor makes it. A page Init never wrote is zeros, and costs
		// nothing.
		img := t.rt.InitialPage(page)
		p.Space().Share(page, img)
		if img != nil {
			p.ChargeProtocol(p.Costs().Copy(vm.PageSize))
		}
		return
	}
	t.pageRequests++
	reply := p.EP().Call(t.rt.ProcByRank(manager).EP(), kindPageRequest, pageReqMsg{Page: page}, 16)
	pr := reply.(pageReply)
	p.Space().Load(page, pr.Data)
	t.rt.ReleasePage(pr.Data)
	p.ChargeProtocol(p.Costs().Copy(vm.PageSize))
	p.Stats().PageFetches++
	if pr.Applied != nil {
		applied := t.slot(st.applied, page)
		for w, v := range pr.Applied {
			if v > applied[w] {
				applied[w] = v
			}
		}
	}
}

// OnReadFault implements core.Protocol.
func (t *Protocol) OnReadFault(p *core.Proc, page int) {
	p.ChargeProtocol(p.Costs().PageFault)
	t.validate(p, page)
}

// OnWriteFault implements core.Protocol: validate if needed, then twin the
// page; the next close publishes its write notice.
func (t *Protocol) OnWriteFault(p *core.Proc, page int) {
	st := t.state(p)
	p.ChargeProtocol(p.Costs().PageFault)
	if !p.Space().Prot(page).CanRead() {
		t.validate(p, page)
	}
	if st.twins[page] == nil {
		data := t.rt.PageBuffer()
		copy(data, p.MaterializedFrame(page))
		st.twins[page] = &twin{data: data, birth: st.cur + 1}
		p.ChargeProtocol(p.Costs().TwinCopy)
		p.Stats().Twins++
	}
	p.Space().SetProt(page, vm.ProtReadWrite)
	p.ChargeProtocol(p.Costs().ProtChange)
}

// OnSharedWrite implements core.Protocol (unused).
func (t *Protocol) OnSharedWrite(p *core.Proc, addr core.Addr, size int) {}

// serveDiff answers a diff request with what the requester's knowledge
// entitles it to (DESIGN §8 rule 10): flush the twin if a notice the
// requester knows covers it, then reply with the window of stored diffs
// served selects.
func (t *Protocol) serveDiff(p *core.Proc, req msg.Request) {
	st := t.state(p)
	dr := req.Data.(diffReqMsg)
	if tw := st.twins[dr.Page]; tw != nil && tw.birth <= dr.Known {
		t.flushDiff(p, dr.Page)
	}
	out, bytes := t.served(st.diffs[dr.Page], p.Rank(), dr)
	p.ChargeProtocol(p.Costs().HandlerWork)
	p.EP().ReplyClass(req.From, req, out, 16+bytes, interconnect.TrafficPage)
}

// served returns the window of rank's stored diffs ds (ascending by tag) that
// a diff request gets, and its wire size: the diffs beyond the requester's
// applied horizon that were born no later than its newest notice. Births
// ascend with tags, so the window starts at the first tag past Applied and
// ends at the first diff born in the requester's future. The window shares
// ds's backing array, capped so an append cannot reach ds.
func (t *Protocol) served(ds []Diff, rank int, dr diffReqMsg) ([]Diff, int64) {
	lo := sort.Search(len(ds), func(i int) bool { return ds[i].Tag > dr.Applied })
	hi := lo
	for hi < len(ds) && ds[hi].VT[rank] <= dr.Known {
		hi++
	}
	out := ds[lo:hi:hi]
	n := int64(t.cfg.TestDropDiffRuns)
	if n > 0 {
		// The injected bug edits the reply, never the stored diffs.
		out = append([]Diff(nil), out...)
	}
	var bytes int64
	for i := range out {
		t.diffsServed++
		if n > 0 && t.diffsServed%n == 0 && len(out[i].Runs) > 0 {
			// Injected diff-loss bug (Config.TestDropDiffRuns): the reply's
			// copy of the diff loses its last run.
			out[i].Runs = out[i].Runs[:len(out[i].Runs)-1]
			t.testRunsLost++
		}
		bytes += out[i].WireBytes()
	}
	return out, bytes
}

// servePage answers a page request with our current copy (flushing our twin
// first so the copy is self-described by our applied vector) plus that
// vector.
func (t *Protocol) servePage(p *core.Proc, req msg.Request) {
	st := t.state(p)
	page := req.Data.(pageReqMsg).Page
	if st.twins[page] != nil {
		t.flushDiff(p, page)
	}
	// The reply's copy is a recycled buffer, which the requester's
	// fetchPage releases: every byte of it is written here.
	data := t.rt.PageBuffer()
	src := p.Space().Frame(page)
	if src == nil {
		src = t.rt.InitialPage(page) // never mapped here: the initial image
	}
	if src == nil {
		clear(data) // a page Init never wrote
	}
	copy(data, src)
	var applied []int32
	if st.applied[page] != nil {
		applied = append([]int32(nil), st.applied[page]...)
	}
	p.ChargeProtocol(p.Costs().HandlerWork + p.Costs().Copy(vm.PageSize))
	p.EP().ReplyClass(req.From, req, pageReply{Data: data, Applied: applied},
		int64(vm.PageSize+4*len(applied)), interconnect.TrafficPage)
}
