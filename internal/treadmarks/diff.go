package treadmarks

import "encoding/binary"

// Run is one contiguous range of changed bytes in a diff.
type Run struct {
	Off  int32
	Data []byte
}

// Diff is a run-length encoding of the changes a processor made to one page:
// the result of comparing the current copy against its twin (§2.2).
type Diff struct {
	// Tag is the highest interval of the creating processor whose write
	// notice the diff covers. One diff can cover several write notices when
	// the page stayed writable across intervals; the tag records the newest.
	Tag int32
	// VT is the vector timestamp of the twin's birth interval, the first
	// notice the diff covers: diffs are merged in the causal order these
	// timestamps define (§2.2). Every covered interval is closed, because a
	// flush closes the open interval before it makes the diff; VT[creator] is
	// the birth interval's id.
	VT   VT
	Runs []Run
}

// Bytes returns the payload size of the diff's changed data.
func (d Diff) Bytes() int {
	n := 0
	for _, r := range d.Runs {
		n += len(r.Data)
	}
	return n
}

// WireBytes estimates the message size of the diff: run headers plus data.
func (d Diff) WireBytes() int64 { return int64(8*len(d.Runs) + d.Bytes()) }

// diffWord is the comparison granularity. TreadMarks diffs pages at word
// granularity (a changed word is shipped whole); we use 8-byte words so that
// a float64 is never split across diffs.
const diffWord = 8

// diffBlock is the span MakeDiff skips at once when frame and twin agree on
// all of it: eight words.
const diffBlock = 8 * diffWord

// MakeDiff compares a page against its twin and returns the changed runs at
// word granularity. The data slices are copies, safe to retain after the
// page changes; all runs share one buffer, each capped at its own length.
// Trailing bytes beyond the last whole word are compared as one short word.
func MakeDiff(frame, twin []byte) []Run {
	n := len(frame)
	twin = twin[:n]
	var runs []Run
	total := 0
	for i := 0; i < n; {
		if i+diffBlock <= n && string(frame[i:i+diffBlock]) == string(twin[i:i+diffBlock]) {
			i += diffBlock
			continue
		}
		if !wordDiffers(frame, twin, i) {
			i += diffWord
			continue
		}
		j := i + diffWord
		for j+diffWord <= n && binary.LittleEndian.Uint64(frame[j:]) != binary.LittleEndian.Uint64(twin[j:]) {
			j += diffWord
		}
		if j+diffWord > n && (j >= n || wordDiffers(frame, twin, j)) {
			// The run reached the end, or the short last word differs too.
			j = n
		}
		runs = append(runs, Run{Off: int32(i), Data: frame[i:j]})
		total += j - i
		i = j
	}
	// The runs alias frame so far: copy them all into one buffer.
	buf := make([]byte, 0, total)
	for k := range runs {
		start := len(buf)
		buf = append(buf, runs[k].Data...)
		runs[k].Data = buf[start:len(buf):len(buf)]
	}
	return runs
}

// wordDiffers reports whether frame and twin differ in the word at i, or in
// the short word there if fewer than diffWord bytes remain.
func wordDiffers(frame, twin []byte, i int) bool {
	if i+diffWord <= len(frame) {
		return binary.LittleEndian.Uint64(frame[i:]) != binary.LittleEndian.Uint64(twin[i:])
	}
	return string(frame[i:]) != string(twin[i:])
}

// ApplyDiff merges a diff's runs into a page frame.
func ApplyDiff(frame []byte, runs []Run) {
	for _, r := range runs {
		copy(frame[r.Off:], r.Data)
	}
}
