// Package core is an accessor-layer stand-in (path leaf "core"): identical
// frame accesses are allowed here, because this is the layer that charges
// fault and mprotect costs.
package core

import "accessor/vm"

func ReadByte(sp *vm.Space, page, off int) byte {
	return sp.EnsureFrame(page)[off]
}

func WriteByte(sp *vm.Space, page, off int, b byte) {
	fr := sp.EnsureFrame(page)
	fr[off] = b
}

func ReadFast(sp *vm.Space, page, off int) byte {
	if fr := sp.ReadFrame(page); fr != nil {
		return fr[off]
	}
	return ReadByte(sp, page, off)
}
