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

// randomLog builds the log of a processor that has incorporated a random
// causal history of the given writers, and returns it with every writer's
// full history. At each step a random writer first (half the time) joins
// another writer's vector time, as at an acquire, then closes an interval.
func randomLog(r *testRand, writers, steps int) (*pstate, [][]Interval) {
	vts := make([]VT, writers)
	for i := range vts {
		vts[i] = NewVT(writers)
	}
	all := make([][]Interval, writers)
	for s := 0; s < steps; s++ {
		p := int(r.next() % uint64(writers))
		if r.next()%2 == 0 {
			vts[p].MaxInto(vts[r.next()%uint64(writers)])
		}
		vts[p][p]++
		all[p] = append(all[p], Interval{Proc: int32(p), ID: vts[p][p], VT: vts[p].Clone()})
	}
	st := &pstate{vt: NewVT(writers), log: all}
	for q, recs := range all {
		st.vt[q] = int32(len(recs))
	}
	return st, all
}

// TestIntervalsSinceMatchesSort: the merge ships exactly the records the
// requester lacks, in the order a sort by (VT.Sum, Proc, ID) gives, on random
// logs of 1–32 writers, for requests that lack nothing, everything, or a
// random suffix of each writer (including horizons past the owner's own).
func TestIntervalsSinceMatchesSort(t *testing.T) {
	for seed := uint64(1); seed <= 400; seed++ {
		r := testRand(seed)
		writers := 1 + int(r.next()%32)
		st, all := randomLog(&r, writers, int(r.next()%uint64(8*writers+1)))
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
		var want []Interval
		for q, recs := range all {
			for _, rec := range recs {
				if rec.ID > have[q] {
					want = append(want, rec)
				}
			}
		}
		sort.Slice(want, func(i, j int) bool {
			a, b := want[i], want[j]
			if sa, sb := a.VT.Sum(), b.VT.Sum(); sa != sb {
				return sa < sb
			}
			if a.Proc != b.Proc {
				return a.Proc < b.Proc
			}
			return a.ID < b.ID
		})
		got := st.intervalsSince(have)
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
	st, _ := randomLog(&r, 32, 32*20)
	have := st.vt.Clone()
	for q := 0; q < 32; q += 4 {
		have[q] = max(0, have[q]-7)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shipped = st.intervalsSince(have)
	}
}

var shipped []Interval
