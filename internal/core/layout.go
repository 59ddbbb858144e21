package core

import (
	"fmt"
	"math"

	"repro/internal/vm"
)

// Addr is a byte address in the shared virtual address space, which starts
// at 0 and is identical on every processor.
type Addr = uint64

// Layout is a deterministic bump allocator for the shared address space.
// Applications build one layout up front (before processors start); because
// allocation order is fixed, every processor computes identical addresses
// and no allocation messages are needed at run time — matching the static
// shared-segment setup of the original systems.
type Layout struct {
	next Addr
}

// NewLayout returns an empty layout.
func NewLayout() *Layout { return &Layout{} }

// Alloc reserves size bytes with the given alignment (which must be a power
// of two) and returns the base address.
func (l *Layout) Alloc(size int, align int) Addr {
	if size < 0 {
		panic(fmt.Sprintf("core: Alloc size %d", size))
	}
	if align <= 0 || align&(align-1) != 0 {
		panic(fmt.Sprintf("core: Alloc align %d must be a positive power of two", align))
	}
	a := uint64(align)
	l.next = (l.next + a - 1) &^ (a - 1)
	base := l.next
	l.next += uint64(size)
	return base
}

// AllocPageAligned reserves size bytes starting on a page boundary. Used for
// arrays whose partitioning should not share pages with neighbours.
func (l *Layout) AllocPageAligned(size int) Addr { return l.Alloc(size, vm.PageSize) }

// Size returns the total bytes allocated so far.
func (l *Layout) Size() int { return int(l.next) }

// F64Pages allocates an n-element float64 array starting on a page boundary.
func (l *Layout) F64Pages(n int) F64Array {
	return F64Array{Base: l.AllocPageAligned(8 * n), N: n}
}

// I64Pages allocates an n-element int64 array starting on a page boundary.
func (l *Layout) I64Pages(n int) I64Array {
	return I64Array{Base: l.AllocPageAligned(8 * n), N: n}
}

// F64Array is a typed view of shared memory.
type F64Array struct {
	Base Addr
	N    int
}

// Addr returns the address of element i.
func (a F64Array) Addr(i int) Addr {
	if i < 0 || i >= a.N {
		panic(fmt.Sprintf("core: F64Array index %d out of range [0,%d)", i, a.N))
	}
	return a.Base + Addr(i)*8
}

// At reads element i through processor p.
func (a F64Array) At(p *Proc, i int) float64 { return math.Float64frombits(p.load(a.Base, i, a.N)) }

// Set writes element i through processor p.
func (a F64Array) Set(p *Proc, i int, v float64) { p.store(a.Base, i, a.N, math.Float64bits(v)) }

// Init writes element i into the initial image (untimed setup).
func (a F64Array) Init(w *ImageWriter, i int, v float64) { w.WriteF64(a.Addr(i), v) }

// I64Array is a typed view of shared memory.
type I64Array struct {
	Base Addr
	N    int
}

// Addr returns the address of element i.
func (a I64Array) Addr(i int) Addr {
	if i < 0 || i >= a.N {
		panic(fmt.Sprintf("core: I64Array index %d out of range [0,%d)", i, a.N))
	}
	return a.Base + Addr(i)*8
}

// At reads element i through processor p.
func (a I64Array) At(p *Proc, i int) int64 { return int64(p.load(a.Base, i, a.N)) }

// Set writes element i through processor p.
func (a I64Array) Set(p *Proc, i int, v int64) { p.store(a.Base, i, a.N, uint64(v)) }

// Init writes element i into the initial image (untimed setup).
func (a I64Array) Init(w *ImageWriter, i int, v int64) { w.WriteI64(a.Addr(i), v) }
