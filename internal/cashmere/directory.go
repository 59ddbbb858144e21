// Package cashmere implements the Cashmere coherence protocol of the paper's
// §2.1 and §3.3: page-granularity, directory-based software DSM that exploits
// Memory Channel remote writes for fine-grain communication.
//
// Key mechanisms, all implemented here:
//
//   - A distributed page directory, replicated per node and updated by MC
//     broadcast, tracking the sharing set, home node (assigned by first
//     touch after initialization), and exclusive mode.
//   - Write-through to a unique home-node copy of each page via write
//     doubling: every shared store also updates the home copy, consuming MC
//     write-buffer and link bandwidth; releases fence on the drain.
//   - Write notice and no-longer-exclusive (NLE) lists, globally accessible
//     and protected by cluster-wide MC locks.
//   - Page copies on demand: the first-generation MC has no remote reads, so
//     a fault sends a request to the home node, whose processor (a dedicated
//     protocol processor, an interrupted processor, or a polling processor,
//     depending on the variant) writes the page back through the MC.
package cashmere

// entry is the simulator's functional form of one page's directory entry.
// On the wire (paper §2.1) an entry is eight 4-byte words, one per SMP node:
// presence bits for the node's four processors, the 5-bit home node id, a bit
// saying whether the home was set by first touch, and per-processor exclusive
// read/write bits. The simulator keeps only the decoded form and charges the
// paper's directory modification costs (5 µs unlocked, 16 µs when the entry
// lock is needed) plus broadcast traffic on every update.
type entry struct {
	// sharers is a bitmask over compute ranks.
	sharers uint64
	// excl is the rank holding exclusive read/write mode, or -1.
	excl int32
	// neverExcl marks pages that must never re-enter exclusive mode (set
	// when processing NLE entries, §2.1).
	neverExcl bool
	// homeFrame is the unique main-memory copy at the home node, the target
	// of write-through. Nil until the home is assigned.
	homeFrame []byte
}

// noticeList is a globally accessible list of page descriptors with a bitmap
// to suppress duplicates, protected by a cluster-wide lock (the write notice
// and NLE lists of §2.1).
type noticeList struct {
	pages  []int32
	bitmap []uint64
}

func newNoticeList(numPages int) *noticeList {
	return &noticeList{bitmap: make([]uint64, (numPages+63)/64)}
}

// add appends page if not already present; reports whether it was added.
// Callers must hold the list's cluster lock.
func (nl *noticeList) add(page int) bool {
	w, b := page/64, uint(page%64)
	if nl.bitmap[w]&(1<<b) != 0 {
		return false
	}
	nl.bitmap[w] |= 1 << b
	nl.pages = append(nl.pages, int32(page))
	return true
}

// drain returns the pages and clears the list. Callers must hold the lock.
func (nl *noticeList) drain() []int32 {
	out := nl.pages
	nl.pages = nil
	for _, pg := range out {
		nl.bitmap[pg/64] &^= 1 << uint(pg%64)
	}
	return out
}
