package treadmarks

import (
	"sort"
	"testing"
)

// testRand is a splitmix64 stream, one per seed, so a failing case replays.
type testRand uint64

func (r *testRand) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// randomLog builds the shared log of a random causal history of the given
// writers, and a processor that has incorporated all of it. At each step a
// random writer first (half the time) joins another writer's vector time, as
// at an acquire, then closes an interval.
func randomLog(r *testRand, writers, steps int) (*Protocol, *pstate) {
	vts := make([]VT, writers)
	for i := range vts {
		vts[i] = NewVT(writers)
	}
	t := &Protocol{log: make([][]Interval, writers)}
	for s := 0; s < steps; s++ {
		p := int(r.next() % uint64(writers))
		if r.next()%2 == 0 {
			vts[p].MaxInto(vts[r.next()%uint64(writers)])
		}
		vts[p][p]++
		t.log[p] = append(t.log[p], newInterval(vts[p].Clone(), nil))
	}
	st := &pstate{vt: NewVT(writers)}
	for q, recs := range t.log {
		st.vt[q] = int32(len(recs))
	}
	return t, st
}

// TestIntervalsSinceMatchesSort: the merge ships exactly the records the
// requester lacks, in the order a sort by (VT.Sum, Proc, ID) gives, on random
// logs of 1–32 writers, for requests that lack nothing, everything, or a
// random suffix of each writer (including horizons past the owner's own). On
// odd seeds the owner knows only a prefix of each writer's shared log.
func TestIntervalsSinceMatchesSort(t *testing.T) {
	for seed := uint64(1); seed <= 400; seed++ {
		r := testRand(seed)
		writers := 1 + int(r.next()%32)
		tm, st := randomLog(&r, writers, int(r.next()%uint64(8*writers+1)))
		if seed%2 == 1 {
			for q := range st.vt {
				st.vt[q] = int32(r.next() % uint64(st.vt[q]+1))
			}
		}
		have := NewVT(writers)
		switch seed % 4 {
		case 0: // have == vt
			copy(have, st.vt)
		case 1: // all-zero
		default:
			for q := range have {
				have[q] = int32(r.next() % uint64(st.vt[q]+2))
			}
		}
		var want []intervalRef
		for q := range tm.log {
			for id := have[q] + 1; id <= st.vt[q]; id++ {
				want = append(want, intervalRef{int32(q), id})
			}
		}
		sort.Slice(want, func(i, j int) bool {
			a, b := want[i], want[j]
			if sa, sb := tm.rec(a.Proc, a.ID).VT.Sum(), tm.rec(b.Proc, b.ID).VT.Sum(); sa != sb {
				return sa < sb
			}
			if a.Proc != b.Proc {
				return a.Proc < b.Proc
			}
			return a.ID < b.ID
		})
		got := tm.intervalsSince(st, have)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d records, want %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i].Proc != want[i].Proc || got[i].ID != want[i].ID {
				t.Fatalf("seed %d: record %d is (%d, %d), want (%d, %d)",
					seed, i, got[i].Proc, got[i].ID, want[i].Proc, want[i].ID)
			}
		}
	}
}

// BenchmarkIntervalsSince is one call at the shape measured on sync_storm's
// TreadMarks jobs: 32 writers, 56 unseen records over 8 of them.
func BenchmarkIntervalsSince(b *testing.B) {
	r := testRand(1)
	tm, st := randomLog(&r, 32, 32*20)
	have := st.vt.Clone()
	for q := 0; q < 32; q += 4 {
		have[q] = max(0, have[q]-7)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shipped = tm.intervalsSince(st, have)
	}
}

var shipped []intervalRef
