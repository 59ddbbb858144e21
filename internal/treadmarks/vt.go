// Package treadmarks implements the TreadMarks distributed shared memory
// protocol (paper §2.2): lazy release consistency with vector timestamps,
// intervals, write notices, twins, and diffs. Remote memory access is used
// only as a fast messaging layer, exactly as in the paper's MC port of
// TreadMarks 0.10.1 (§3.4).
package treadmarks

import "sort"

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
// so sorting by (Sum, proc) is a linear extension of the happens-before
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
type Interval struct {
	Proc  int32
	ID    int32
	VT    VT
	Pages []int32
}

// sortIntervals orders interval records so that, per creating processor, ids
// ascend (required for contiguous log appends) and across processors a
// causal linear extension holds. Each record's VT sum is computed once, not
// per comparison; (sum, Proc, ID) is a strict total order, so the result does
// not depend on the sort algorithm.
func sortIntervals(recs []Interval) {
	s := bySum{recs: recs, sums: make([]int64, len(recs))}
	for i, r := range recs {
		s.sums[i] = r.VT.Sum()
	}
	sort.Sort(s)
}

// bySum sorts recs by (sums[i], Proc, ID), keeping sums parallel to recs.
type bySum struct {
	recs []Interval
	sums []int64
}

func (s bySum) Len() int { return len(s.recs) }

func (s bySum) Less(i, j int) bool {
	if s.sums[i] != s.sums[j] {
		return s.sums[i] < s.sums[j]
	}
	a, b := &s.recs[i], &s.recs[j]
	if a.Proc != b.Proc {
		return a.Proc < b.Proc
	}
	return a.ID < b.ID
}

func (s bySum) Swap(i, j int) {
	s.recs[i], s.recs[j] = s.recs[j], s.recs[i]
	s.sums[i], s.sums[j] = s.sums[j], s.sums[i]
}
