// Package heat violates the accessor contract: an application touching page
// frames directly, bypassing the accessor API that charges fault costs.
package heat

import "accessor/vm"

func Direct(sp *vm.Space) byte {
	return sp.Frame(0)[5] // want `direct index of a vm\.Space page frame`
}

func ViaLocal(sp *vm.Space) []byte {
	fr := sp.EnsureFrame(1)
	fr[0] = 1      // want `direct index of a vm\.Space page frame`
	return fr[2:8] // want `direct slice of a vm\.Space page frame`
}

func Bulk(sp *vm.Space, buf []byte) {
	fr := sp.Frame(2)
	copy(buf, fr) // want `page frame passed to copy`
}

// NilCheck performs no element access, so it is clean.
func NilCheck(sp *vm.Space) bool {
	return sp.Frame(3) == nil
}

// The permission-split tables hand out the same frames as array pointers.
func ViaTables(sp *vm.Space, buf []byte) byte {
	if fr := sp.WriteFrame(4); fr != nil {
		fr[0] = 1 // want `direct index of a vm\.Space page frame`
	}
	rd := sp.ReadFrame(4)
	copy(buf, rd[:])                    // want `direct slice of a vm\.Space page frame`
	page := *rd                         // want `direct dereference of a vm\.Space page frame`
	return page[1] + sp.ReadFrame(5)[2] // want `direct index of a vm\.Space page frame`
}
