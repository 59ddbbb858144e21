// Package core is the DSM kernel shared by both protocol implementations: it
// owns the simulated cluster runtime (processors, address spaces, caches,
// Memory Channel, messaging endpoints), the cost model with the paper's
// measured operation costs (§4.1), the shared-memory access path that stands
// in for VM hardware, and the per-processor statistics behind the paper's
// Table 3 and Figure 6.
package core

import (
	"fmt"

	"repro/internal/sim"
)

// CostModel collects the per-operation virtual-time costs. DefaultCosts
// follows the paper's §4.1 measurements on the AlphaServer 2100 4/233 cluster
// where it gives one. Each field's paper wording and provenance (measured,
// reconstructed from OCR, calibrated or assumed) is one row of the cost table
// that `dsmbench -costs` prints (internal/bench/costs.go).
type CostModel struct {
	// PageFault is the cost of taking a page fault and delivering it to the
	// user-level handler.
	PageFault sim.Time
	// ProtChange is one memory-protection (mprotect) operation.
	ProtChange sim.Time
	// MemAccess is one shared-memory access that hits the first-level cache.
	MemAccess sim.Time
	// CacheMiss is the additional penalty for a first-level cache miss.
	CacheMiss sim.Time
	// PollCheck is one polling check (load, branch; Figure 2): charged at
	// instrumented poll points in the polling variants.
	PollCheck sim.Time
	// WriteDouble is the instruction overhead of one doubled write (address
	// arithmetic plus the extra store; Figure 4).
	WriteDouble sim.Time
	// TwinCopy is creating a twin of an 8 KB page (TreadMarks).
	TwinCopy sim.Time
	// DiffCreateMin/Max bound diff creation cost per page, which depends on
	// the size of the diff: charged proportionally to the dirty fraction.
	DiffCreateMin, DiffCreateMax sim.Time
	// DiffApplyBase is the fixed cost of merging one diff into a page;
	// the per-byte copy cost is added on top.
	DiffApplyBase sim.Time
	// CopyPerByte is the local memory copy cost per byte (page copies,
	// diff application payloads).
	CopyPerByte sim.Time
	// DirectoryModLocked is a directory entry modification that must take
	// the entry lock (home-node relocation).
	DirectoryModLocked sim.Time
	// DirectoryMod is a directory entry modification without locking.
	DirectoryMod sim.Time
	// LLSC is an intra-node load-linked/store-conditional acquisition of a
	// directory word or per-node lock flag.
	LLSC sim.Time
	// HandlerWork is the baseline cost of running a protocol request
	// handler (argument decode, bookkeeping) beyond explicit charges.
	HandlerWork sim.Time
}

// DefaultCosts returns the paper-calibrated cost model.
func DefaultCosts() CostModel {
	return CostModel{
		PageFault:          78 * sim.Microsecond, // hardware fault + local signal
		ProtChange:         62 * sim.Microsecond,
		MemAccess:          10 * sim.Nanosecond, // ~2 cycles at 233 MHz
		CacheMiss:          80 * sim.Nanosecond,
		PollCheck:          15 * sim.Nanosecond, // 3-instruction check
		WriteDouble:        30 * sim.Nanosecond, // 6-instruction sequence
		TwinCopy:           362 * sim.Microsecond,
		DiffCreateMin:      29 * sim.Microsecond,
		DiffCreateMax:      53 * sim.Microsecond,
		DiffApplyBase:      15 * sim.Microsecond,
		CopyPerByte:        4 * sim.Nanosecond, // local copy bandwidth
		DirectoryModLocked: 16 * sim.Microsecond,
		DirectoryMod:       5 * sim.Microsecond,
		LLSC:               1 * sim.Microsecond,
		HandlerWork:        3 * sim.Microsecond,
	}
}

// Validate reports whether all costs are usable.
func (c CostModel) Validate() error {
	checks := []struct {
		name string
		v    sim.Time
	}{
		{"PageFault", c.PageFault}, {"ProtChange", c.ProtChange},
		{"MemAccess", c.MemAccess}, {"CacheMiss", c.CacheMiss},
		{"PollCheck", c.PollCheck}, {"WriteDouble", c.WriteDouble},
		{"TwinCopy", c.TwinCopy}, {"DiffCreateMin", c.DiffCreateMin},
		{"DiffCreateMax", c.DiffCreateMax}, {"DiffApplyBase", c.DiffApplyBase},
		{"CopyPerByte", c.CopyPerByte}, {"DirectoryModLocked", c.DirectoryModLocked},
		{"DirectoryMod", c.DirectoryMod}, {"LLSC", c.LLSC}, {"HandlerWork", c.HandlerWork},
	}
	for _, ch := range checks {
		if ch.v <= 0 {
			return fmt.Errorf("core: cost %s = %d must be positive", ch.name, ch.v)
		}
	}
	if c.DiffCreateMax < c.DiffCreateMin {
		return fmt.Errorf("core: DiffCreateMax %d < DiffCreateMin %d", c.DiffCreateMax, c.DiffCreateMin)
	}
	return nil
}

// DiffCreate returns the diff-creation cost for a page with the given number
// of dirty bytes, interpolating linearly from DiffCreateMin to DiffCreateMax.
func (c CostModel) DiffCreate(dirtyBytes, pageBytes int) sim.Time {
	if dirtyBytes < 0 {
		dirtyBytes = 0
	}
	if dirtyBytes > pageBytes {
		dirtyBytes = pageBytes
	}
	span := c.DiffCreateMax - c.DiffCreateMin
	return c.DiffCreateMin + sim.Time(int64(span)*int64(dirtyBytes)/int64(pageBytes))
}

// Copy returns the local memory-copy cost for n bytes.
func (c CostModel) Copy(n int) sim.Time { return sim.Time(int64(c.CopyPerByte) * int64(n)) }
