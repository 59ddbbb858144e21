// Package treadmarks implements the TreadMarks distributed shared memory
// protocol (paper §2.2): lazy release consistency with vector timestamps,
// intervals, write notices, twins, and diffs. Remote memory access is used
// only as a fast messaging layer, exactly as in the paper's MC port of
// TreadMarks 0.10.1 (§3.4).
package treadmarks

// VT is a vector timestamp: entry q is the most recent interval of processor
// q in the owner's logical past.
type VT []int32

// NewVT returns a zero vector of length n.
func NewVT(n int) VT { return make(VT, n) }

// Clone returns a copy of v.
func (v VT) Clone() VT { return append(VT(nil), v...) }

// MaxInto sets v to the pairwise maximum of v and o.
func (v VT) MaxInto(o VT) {
	for i, x := range o {
		if x > v[i] {
			v[i] = x
		}
	}
}

// Covers reports whether v dominates o pointwise (o's knowledge is contained
// in v's).
func (v VT) Covers(o VT) bool {
	for i, x := range o {
		if v[i] < x {
			return false
		}
	}
	return true
}

// Sum returns the total event count. Sums strictly increase along causality,
// so ordering by (Sum, proc) is a linear extension of the happens-before
// partial order — the order diffs are merged in (§2.2 "in the causal order
// defined by the timestamps of the write notices").
func (v VT) Sum() int64 {
	var s int64
	for _, x := range v {
		s += int64(x)
	}
	return s
}

// Interval is one processor's closed interval: the unit of write-notice
// propagation. Interval (Proc, ID) carries the pages the processor dirtied
// during it and the vector timestamp at its close (with VT[Proc] == ID).
//
// One writer's records, in id order, have strictly ascending VT sums: VT[Proc]
// == ID grows by one per record and the writer's other entries never shrink.
// That is the precondition of intervalsSince's merge: each writer's slice of
// the log is already a sorted run of the (Sum, Proc, ID) order, so the records
// a message ships are a k-way merge of at most one run per writer, not a sort.
type Interval struct {
	Proc  int32
	ID    int32
	VT    VT
	Pages []int32
}
