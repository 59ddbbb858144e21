package cashmere

import (
	"encoding/binary"
	"fmt"

	"repro/internal/core"
	"repro/internal/interconnect"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/vm"
)

// Request kinds.
const (
	// kindPageFetch asks a processor on the home node to write a page's
	// current home copy back through the Memory Channel (§2.1: "we ask a
	// processor at the home node to write the data to us").
	kindPageFetch = iota
)

// mcRegionBase synthesizes the cache-visible address of the Memory Channel
// copy region: far from the local copies (different cache tag), with the
// page-offset bit 13 flipped so local and doubled writes map to different
// first-level cache lines (§3.3.1).
const (
	mcRegionBase = uint64(1) << 40
	doubleFlip   = uint64(0x2000)
)

// DoubledAddr returns the address write doubling touches for a store to a.
func DoubledAddr(a uint64) uint64 { return (a | mcRegionBase) ^ doubleFlip }

// Config holds Cashmere-specific knobs.
type Config struct {
	// DisableExclusive turns off the exclusive-mode optimization (ablation:
	// the paper replaced the simulated protocol's "weak state" with
	// exclusive mode and explicit write notices).
	DisableExclusive bool
	// RoundRobinHomes assigns homes round-robin by page number instead of
	// first-touch (ablation for the §2.1 home-assignment policy).
	RoundRobinHomes bool
	// DummyDoubling redirects every doubled write to a single dummy address
	// (the paper's §4.3 diagnostic that isolates the cache-pressure cost of
	// doubling). Only valid on one processor: it breaks data propagation.
	DummyDoubling bool
}

// New returns a core.Config protocol factory for Cashmere.
func New(cfg Config) func(rt *core.Runtime) core.Protocol {
	return func(rt *core.Runtime) core.Protocol {
		return &Protocol{rt: rt, cfg: cfg}
	}
}

// Protocol is the Cashmere coherence protocol state.
type Protocol struct {
	rt  *core.Runtime
	net interconnect.Interconnect // rt.Net(), fetched once at Setup
	cfg Config

	dir  []entry
	home []int32 // home node per page, -1 until first touch
	// homes holds each page's unique main-memory copy at its home node, the
	// target of write-through: the initial image page, shared, until the
	// first doubled store makes it private.
	homes *vm.Space

	locks    *lockSpace
	appLocks int
	nprocs   int
	barrier  *treeBarrier

	wn    []*noticeList // write notice list per rank
	nle   []*noticeList // no-longer-exclusive list per rank
	dirty [][]int32     // local dirty list per rank

	// counters (protocol-wide; per-processor event counts live in core.Stats)
	dirUpdates      int64
	wnAppends       int64
	homeAssignments int64
	fetchRequests   int64
	remoteReads     int64
	exclEntries     int64
}

// Name implements core.Protocol.
func (c *Protocol) Name() string { return "cashmere" }

// WantsWriteHook implements core.Protocol: every shared store is doubled.
func (c *Protocol) WantsWriteHook() bool { return true }

// Setup implements core.Protocol.
func (c *Protocol) Setup(rt *core.Runtime) {
	c.net = rt.Net()
	if !c.net.Caps().RemoteWrites {
		// Write doubling is the protocol's foundation (§3.3.1): without
		// one-sided remote writes every OnSharedWrite would mismodel traffic.
		panic("cashmere: backend does not provide remote writes (Caps().RemoteWrites)")
	}
	numPages := rt.NumPages()
	c.nprocs = len(rt.ComputeProcs())
	if c.nprocs > 64 {
		panic("cashmere: sharing-set bitmask supports at most 64 processors")
	}
	if c.cfg.DummyDoubling && c.nprocs > 1 {
		panic("cashmere: DummyDoubling is a single-processor diagnostic (§4.3)")
	}
	c.dir = make([]entry, numPages)
	for i := range c.dir {
		c.dir[i].excl = -1
	}
	c.home = make([]int32, numPages)
	for i := range c.home {
		c.home[i] = -1
	}
	c.homes = vm.NewSpace(numPages)
	for pg := range numPages {
		c.homes.Share(pg, rt.InitialPage(pg))
		c.homes.SetProt(pg, vm.ProtReadWrite)
	}
	prog := rt.Program()
	c.appLocks = prog.Locks
	// Cluster-lock id layout: app locks, write-notice list locks, NLE list
	// locks, directory-entry (page home) locks.
	total := c.appLocks + 2*c.nprocs + numPages
	c.locks = newLockSpace(rt, total)
	c.barrier = newTreeBarrier(rt, maxInt(prog.Barriers, 1))
	for r := 0; r < c.nprocs; r++ {
		c.wn = append(c.wn, newNoticeList(numPages))
		c.nle = append(c.nle, newNoticeList(numPages))
	}
	c.dirty = make([][]int32, c.nprocs)
	if c.cfg.RoundRobinHomes {
		nodes := rt.Engine().Config().Nodes
		for pg := range c.home {
			c.home[pg] = int32(pg % nodes)
		}
	}
}

func (c *Protocol) wnLock(rank int) int   { return c.appLocks + rank }
func (c *Protocol) nleLock(rank int) int  { return c.appLocks + c.nprocs + rank }
func (c *Protocol) homeLock(page int) int { return c.appLocks + 2*c.nprocs + page }

// dirUpdate charges one unlocked directory modification: an intra-node ll/sc
// on the node's word plus the broadcast of the new word.
func (c *Protocol) dirUpdate(p *core.Proc) {
	p.ChargeProtocol(p.Costs().LLSC + p.Costs().DirectoryMod)
	c.net.AccountTraffic(interconnect.TrafficMeta, 8)
	c.dirUpdates++
}

// ensureHome returns the page's home node, running first-touch assignment
// if it has none (§2.1: set once, under the directory entry lock).
func (c *Protocol) ensureHome(p *core.Proc, page int) int {
	if h := c.home[page]; h >= 0 {
		return int(h)
	}
	lid := c.homeLock(page)
	c.locks.acquire(p, lid)
	if c.home[page] < 0 {
		c.home[page] = int32(p.Node())
		c.homeAssignments++
		c.dirUpdate(p)
	}
	c.locks.release(p, lid)
	return int(c.home[page])
}

// copyHome puts the home copy into p's frame of page. A home no doubled
// store has reached is still the immutable initial image, which the frame
// shares instead of copying; the copy is charged by the caller all the same.
func (c *Protocol) copyHome(p *core.Proc, page int) {
	if c.homes.Shared(page) {
		p.Space().Share(page, c.homes.Frame(page))
	} else {
		p.Space().Load(page, c.homes.Frame(page))
	}
}

// OnReadFault implements core.Protocol (§2.1 read page fault).
func (c *Protocol) OnReadFault(p *core.Proc, page int) {
	p.ChargeProtocol(p.Costs().PageFault)
	c.readMiss(p, page)
	p.Space().SetProt(page, vm.ProtRead)
	p.ChargeProtocol(p.Costs().ProtChange)
}

// readMiss performs the shared part of read and invalid-write faults: join
// the sharing set, break exclusive mode, and copy the page from the home.
func (c *Protocol) readMiss(p *core.Proc, page int) {
	rank := p.Rank()
	home := c.ensureHome(p, page)
	e := &c.dir[page]
	// Add ourselves to the sharing set (ll/sc on our node's word).
	e.sharers |= 1 << uint(rank)
	c.dirUpdate(p)
	// If another processor held the page exclusively, it must be told (NLE).
	if e.excl >= 0 && int(e.excl) != rank {
		former := int(e.excl)
		e.excl = -1
		c.dirUpdate(p)
		c.locks.acquire(p, c.nleLock(former))
		if c.nle[former].add(page) {
			c.net.AccountTraffic(interconnect.TrafficMeta, 8)
		}
		c.locks.release(p, c.nleLock(former))
	}
	c.fetchPage(p, page, home)
}

// fetchPage brings the home copy into p's local frame. On the home node this
// is a local memory copy. Remotely, the path depends on the interconnect: on
// a network with one-sided remote reads the faulting processor pulls the
// home copy directly, with no processor at the home node involved; on the
// Memory Channel (remote-writes-only) a processor at the home node is asked
// to write the page through the network (variant-dependent service).
func (c *Protocol) fetchPage(p *core.Proc, page, home int) {
	if p.Node() == home {
		p.ChargeProtocol(p.Costs().Copy(vm.PageSize))
		c.copyHome(p, page)
		p.Stats().PageCopies++
		return
	}
	if c.net.Caps().RemoteReads {
		c.remoteReads++
		p.Sim().Yield() // scheduling point before a globally visible action
		arrival := c.net.RemoteRead(p.Sim(), home, vm.PageSize, interconnect.TrafficPage)
		p.Sim().AdvanceTo(arrival)
		p.ChargeProtocol(p.Costs().Copy(vm.PageSize))
		c.copyHome(p, page)
		p.Stats().PageTransfers++
		p.Stats().PageCopies++
		return
	}
	target := c.fetchTarget(page, home)
	c.fetchRequests++
	reply := p.EP().Call(target.EP(), kindPageFetch, page, 64)
	data := reply.([]byte)
	p.ChargeProtocol(p.Costs().Copy(vm.PageSize))
	p.Space().Load(page, data)
	c.rt.ReleasePage(data) // the snapshot Service took from the run's stack
	p.Stats().PageTransfers++
	p.Stats().PageCopies++
}

// fetchTarget picks the processor at the home node that services the fetch:
// the dedicated protocol processor if the variant has one, else a compute
// processor chosen deterministically.
func (c *Protocol) fetchTarget(page, home int) *core.Proc {
	if s := c.rt.ServerProc(home); s != nil {
		return s
	}
	procs := c.rt.ComputeProcsOnNode(home)
	if len(procs) == 0 {
		panic(fmt.Sprintf("cashmere: home node %d has no processors", home))
	}
	return procs[page%len(procs)]
}

// OnWriteFault implements core.Protocol (§2.1 write page fault).
func (c *Protocol) OnWriteFault(p *core.Proc, page int) {
	p.ChargeProtocol(p.Costs().PageFault)
	if !p.Space().Prot(page).CanRead() {
		// A write fault on an invalid page is treated as a read page fault
		// first (§2.1).
		c.readMiss(p, page)
	}
	rank := p.Rank()
	c.dirty[rank] = append(c.dirty[rank], int32(page))
	p.Space().SetProt(page, vm.ProtReadWrite)
	p.ChargeProtocol(p.Costs().ProtChange)
}

// OnSharedWrite implements core.Protocol: write doubling (§3.3.1). The
// instruction overhead, the doubled address's cache pressure, the
// write-through pipe occupancy, and the functional update of the home copy
// all happen here. Setup has already refused a backend without
// Caps().RemoteWrites. Every core store doubles one 8-byte word, which moves
// as one load and store; any other size is a caller bug.
func (c *Protocol) OnSharedWrite(p *core.Proc, addr core.Addr, size int) {
	if size != 8 {
		panic(fmt.Sprintf("cashmere: doubled store of %d bytes; core stores one 8-byte word", size))
	}
	// Each charge is one inlined Advance plus an Account, as Step 3 of the
	// lock does: Charge is over the inlining budget and would be a call.
	sp := p.Sim()
	wd := p.Costs().WriteDouble
	sp.Advance(wd)
	p.Account(core.CatDoubling, wd)
	page := vm.PageOf(addr)
	off := vm.Offset(addr)
	hf := c.homes.WriteFrame(page)
	if hf == nil {
		hf = (*[vm.PageSize]byte)(c.homes.EnsureFrame(page)) // first store: the home goes private
	}
	binary.LittleEndian.PutUint64(hf[off:], binary.LittleEndian.Uint64(p.Space().Frame(page)[off:]))
	if c.cfg.DummyDoubling {
		// All doubles land on one address: after the first touch it always
		// hits the cache and combines in the write buffer — no pressure, no
		// Memory Channel traffic. The home copy above is still updated
		// functionally so single-processor results stay correct.
		p.CacheTouch(DoubledAddr(0))
		return
	}
	if !p.CacheTouch(DoubledAddr(addr)) {
		miss := p.Costs().CacheMiss
		sp.Advance(miss)
		p.Account(core.CatDoubling, miss)
	}
	c.net.WriteThrough(sp, int(c.home[page]), 8)
}

// Lock implements core.Protocol: cluster lock acquire, then acquire-side
// coherence (process incoming write notices).
func (c *Protocol) Lock(p *core.Proc, id int) {
	c.locks.acquire(p, id)
	c.processAcquire(p)
}

// Unlock implements core.Protocol: release-side coherence, then lock release.
func (c *Protocol) Unlock(p *core.Proc, id int) {
	c.processRelease(p)
	c.locks.release(p, id)
}

// Barrier implements core.Protocol: arrival is a release, departure is an
// acquire.
func (c *Protocol) Barrier(p *core.Proc, id int) {
	c.processRelease(p)
	c.barrier.wait(p, id)
	c.processAcquire(p)
}

// processAcquire traverses the write notice list, removing this processor
// from the sharing set of each noticed page and invalidating the local
// mapping (§2.1).
func (c *Protocol) processAcquire(p *core.Proc) {
	rank := p.Rank()
	c.locks.acquire(p, c.wnLock(rank))
	pages := c.wn[rank].drain()
	c.locks.release(p, c.wnLock(rank))
	for _, pg := range pages {
		e := &c.dir[pg]
		e.sharers &^= 1 << uint(rank)
		c.dirUpdate(p)
		if p.Space().Prot(int(pg)) != vm.ProtNone {
			p.Space().SetProt(int(pg), vm.ProtNone)
			p.ChargeProtocol(p.Costs().ProtChange)
		}
	}
}

// processRelease fences the write-through pipe, then informs sharers of all
// dirty pages via write notices, moving unshared pages to exclusive mode,
// and finally processes the NLE list (§2.1).
func (c *Protocol) processRelease(p *core.Proc) {
	// A release cannot complete before all its writes have been applied at
	// the home nodes.
	p.Sim().AdvanceTo(c.net.FenceTime(p.Sim()))

	rank := p.Rank()
	for _, pg := range c.dirty[rank] {
		c.releasePage(p, int(pg), true)
	}
	c.dirty[rank] = c.dirty[rank][:0]

	c.locks.acquire(p, c.nleLock(rank))
	nlePages := c.nle[rank].drain()
	c.locks.release(p, c.nleLock(rank))
	for _, pg := range nlePages {
		c.dir[pg].neverExcl = true
		c.dirUpdate(p)
		c.releasePage(p, int(pg), false)
	}
}

// releasePage handles one page at release time: send write notices to other
// sharers, or enter exclusive mode if there are none (and it is allowed).
func (c *Protocol) releasePage(p *core.Proc, page int, mayExclusive bool) {
	rank := p.Rank()
	e := &c.dir[page]
	// Scan the directory entry (eight words, local reads).
	p.ChargeProtocol(8 * p.Costs().MemAccess)
	others := e.sharers &^ (1 << uint(rank))
	if others == 0 && mayExclusive && !e.neverExcl && !c.cfg.DisableExclusive {
		e.excl = int32(rank)
		c.exclEntries++
		c.dirUpdate(p)
		return // keep write permission: no more faults or notices needed
	}
	for q := 0; q < c.nprocs; q++ {
		if others&(1<<uint(q)) == 0 {
			continue
		}
		c.locks.acquire(p, c.wnLock(q))
		if c.wn[q].add(page) {
			c.wnAppends++
			p.Stats().WriteNotices++
			c.net.AccountTraffic(interconnect.TrafficMeta, 8)
		}
		c.locks.release(p, c.wnLock(q))
	}
	// Downgrade to read-only to catch subsequent writes.
	if p.Space().Prot(page).CanWrite() {
		p.Space().SetProt(page, vm.ProtRead)
		p.ChargeProtocol(p.Costs().ProtChange)
	}
}

// Service implements core.Protocol: handle a page-fetch request directed at
// this processor (which is on the page's home node).
func (c *Protocol) Service(p *core.Proc, m sim.Msg, req msg.Request) {
	switch m.Kind {
	case kindPageFetch:
		page := req.Data.(int)
		// The serving processor reads the home copy and writes it through
		// the Memory Channel: data crosses the local bus twice (§1).
		p.ChargeProtocol(p.Costs().HandlerWork + p.Costs().Copy(vm.PageSize))
		// The snapshot is a recycled buffer, overwritten whole here and
		// released by the requester's fetchPage after its copy.
		snapshot := c.rt.PageBuffer()
		copy(snapshot, c.homes.Frame(page))
		p.EP().ReplyClass(req.From, req, snapshot, vm.PageSize, interconnect.TrafficPage)
	default:
		panic(fmt.Sprintf("cashmere: unknown request kind %d", m.Kind))
	}
}

// Finalize implements core.Protocol.
func (c *Protocol) Finalize(p *core.Proc) {}

// Counters implements core.Protocol. The remote-read counter appears only
// when the interconnect actually served one-sided page reads, so Memory
// Channel results serialize exactly as before.
func (c *Protocol) Counters() map[string]int64 {
	m := map[string]int64{
		"dir_updates":       c.dirUpdates,
		"wn_appends":        c.wnAppends,
		"home_assignments":  c.homeAssignments,
		"page_fetch_reqs":   c.fetchRequests,
		"exclusive_entries": c.exclEntries,
	}
	if c.remoteReads > 0 {
		m["remote_page_reads"] = c.remoteReads
	}
	return m
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
