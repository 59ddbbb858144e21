// Package vm provides the simulated virtual-memory substrate the DSM
// protocols run on: per-processor page tables with protection bits and local
// page frames.
//
// On the paper's platform this role is played by Digital Unix's VM hardware:
// protocols mprotect pages and catch SIGSEGV to run coherence actions. The Go
// runtime owns both mprotect and SIGSEGV, so here every shared access goes
// through an explicit protection check instead (see internal/core's
// accessors); a disallowed access synchronously invokes the protocol's fault
// handler, exactly as a page fault would. Protection-change and
// fault-delivery costs are charged by the protocol from the cost model, so
// the timing behaviour matches the paper's measured constants (§4.1).
package vm

import "fmt"

// PageShift is log2 of the page size. The paper's platform uses 8 KB pages
// (§4: "The underlying virtual memory page size is 8 Kbytes").
const PageShift = 13

// PageSize is the coherence granularity in bytes.
const PageSize = 1 << PageShift

// PageOf returns the page number containing byte address addr.
func PageOf(addr uint64) int { return int(addr >> PageShift) }

// Offset returns addr's offset within its page.
func Offset(addr uint64) int { return int(addr & (PageSize - 1)) }

// Prot is a page protection level.
type Prot uint8

const (
	// ProtNone: any access faults (page invalid/unmapped).
	ProtNone Prot = iota
	// ProtRead: reads succeed, writes fault.
	ProtRead
	// ProtReadWrite: all accesses succeed.
	ProtReadWrite
)

func (p Prot) String() string {
	switch p {
	case ProtNone:
		return "none"
	case ProtRead:
		return "read"
	case ProtReadWrite:
		return "read-write"
	}
	return "invalid"
}

// CanRead reports whether a read is allowed.
func (p Prot) CanRead() bool { return p >= ProtRead }

// CanWrite reports whether a write is allowed.
func (p Prot) CanWrite() bool { return p == ProtReadWrite }

// Space is one processor's view of the shared address space: a page table
// with protections and local frames holding that processor's copy of each
// page's data. A frame is private (the processor's own, writable once the
// protection allows) or shared (an immutable page mapped with Share, such as
// a page of the run's initial image or the zero page, which many spaces map
// at once). A shared frame is replaced by a private one the first time its
// holder needs to write it (EnsureFrame) or fill it (Load).
type Space struct {
	prot   []Prot
	frames []*[PageSize]byte
	shared []bool
	// rd[p] (wr[p]) is page p's frame iff the frame exists and the protection
	// allows a read (a write, and the frame is private), else nil: the
	// no-fault check of internal/core's accessors is one indexed load and a
	// nil test. Both are a function of (prot[p], frames[p], shared[p]) that
	// every mutator re-establishes through sync.
	rd, wr []*[PageSize]byte
}

// NewSpace creates a space covering numPages pages, all ProtNone and
// frameless.
func NewSpace(numPages int) *Space {
	if numPages < 0 {
		panic(fmt.Sprintf("vm: negative page count %d", numPages))
	}
	return &Space{
		prot:   make([]Prot, numPages),
		frames: make([]*[PageSize]byte, numPages),
		shared: make([]bool, numPages),
		rd:     make([]*[PageSize]byte, numPages),
		wr:     make([]*[PageSize]byte, numPages),
	}
}

// Prot returns the protection of page p.
func (s *Space) Prot(page int) Prot { return s.prot[page] }

// sync re-derives page p's rd/wr entries from its protection and frame. A
// shared frame is never writable through wr: a write to it must come
// through EnsureFrame first.
func (s *Space) sync(page int) {
	var rd, wr *[PageSize]byte
	if s.prot[page].CanRead() {
		rd = s.frames[page]
	}
	if s.prot[page].CanWrite() && !s.shared[page] {
		wr = s.frames[page]
	}
	s.rd[page], s.wr[page] = rd, wr
}

// SetProt changes the protection of page p. Cost accounting (the mprotect
// cost) is the caller's responsibility.
func (s *Space) SetProt(page int, prot Prot) {
	s.prot[page] = prot
	s.sync(page)
}

// ReadFrame returns page p's frame if a read needs neither a fault nor a
// frame allocation, else nil.
func (s *Space) ReadFrame(page int) *[PageSize]byte { return s.rd[page] }

// WriteFrame is ReadFrame for a write: nil also while the frame is shared.
func (s *Space) WriteFrame(page int) *[PageSize]byte { return s.wr[page] }

// Frame returns page p's local frame, or nil if the page has never been
// mapped on this processor. The frame may be shared (Shared): callers only
// read through it, and write through the frame EnsureFrame or Load returns.
func (s *Space) Frame(page int) []byte {
	if f := s.frames[page]; f != nil {
		return f[:]
	}
	return nil
}

// Shared reports whether page p's frame is a shared page mapped by Share.
func (s *Space) Shared(page int) bool { return s.shared[page] }

// zeroPage is the page Share maps for a nil page. Nothing writes it: a
// shared frame is never writable, and EnsureFrame and Load drop it without
// copying.
var zeroPage [PageSize]byte

// Share maps data, one immutable page, as page p's frame in place of any
// frame it had; nil maps the zero page. The space never writes it: the first
// EnsureFrame copies it.
func (s *Space) Share(page int, data []byte) {
	f := &zeroPage
	if data != nil {
		f = (*[PageSize]byte)(data)
	}
	s.frames[page], s.shared[page] = f, true
	s.sync(page)
}

// EnsureFrame returns page p's private frame, allocating a zeroed one if the
// page has none or shares the zero page, and copying the shared page if it
// shares another.
func (s *Space) EnsureFrame(page int) []byte {
	if f := s.frames[page]; f == nil || s.shared[page] {
		priv := new([PageSize]byte)
		if f != nil && f != &zeroPage {
			*priv = *f
		}
		s.frames[page], s.shared[page] = priv, false
		s.sync(page)
	}
	return s.frames[page][:]
}

// Load leaves page p with a private frame holding src, one page (nil for
// zeros), and returns it. A private frame is reused; a shared one is dropped
// without being copied.
func (s *Space) Load(page int, src []byte) []byte {
	f := s.frames[page]
	if f == nil || s.shared[page] {
		f = new([PageSize]byte)
		s.frames[page], s.shared[page] = f, false
		s.sync(page)
	}
	if src == nil {
		clear(f[:])
	}
	copy(f[:], src)
	return f[:]
}
