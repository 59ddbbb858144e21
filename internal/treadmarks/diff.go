package treadmarks

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

// MakeDiff compares a page against its twin and returns the changed runs at
// word granularity. The data slices are copies, safe to retain after the
// page changes. Trailing bytes beyond the last whole word are compared as
// one short word.
func MakeDiff(frame, twin []byte) []Run {
	var runs []Run
	n := len(frame)
	wordDiffers := func(i int) bool {
		end := i + diffWord
		if end > n {
			end = n
		}
		for k := i; k < end; k++ {
			if frame[k] != twin[k] {
				return true
			}
		}
		return false
	}
	for i := 0; i < n; {
		if !wordDiffers(i) {
			i += diffWord
			continue
		}
		j := i + diffWord
		for j < n && wordDiffers(j) {
			j += diffWord
		}
		if j > n {
			j = n
		}
		runs = append(runs, Run{Off: int32(i), Data: append([]byte(nil), frame[i:j]...)})
		i = j
	}
	return runs
}

// ApplyDiff merges a diff's runs into a page frame.
func ApplyDiff(frame []byte, runs []Run) {
	for _, r := range runs {
		copy(frame[r.Off:], r.Data)
	}
}
