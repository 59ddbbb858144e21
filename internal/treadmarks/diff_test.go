package treadmarks

import (
	"bytes"
	"testing"

	"repro/internal/vm"
)

// byteWiseDiff is MakeDiff as first written: every word compared one byte at
// a time, every run its own allocation. It is the reference the word-wise
// MakeDiff must reproduce run for run.
func byteWiseDiff(frame, twin []byte) []Run {
	var runs []Run
	n := len(frame)
	wordDiffers := func(i int) bool {
		end := min(i+diffWord, n)
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
		j = min(j, n)
		runs = append(runs, Run{Off: int32(i), Data: append([]byte(nil), frame[i:j]...)})
		i = j
	}
	return runs
}

func sameRuns(a, b []Run) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Off != b[i].Off || !bytes.Equal(a[i].Data, b[i].Data) {
			return false
		}
	}
	return true
}

// FuzzMakeDiff: on any twin (of any length, a multiple of the word or not)
// and any edits of it, MakeDiff returns exactly the byte-wise reference's
// runs, and they stay the same when the frame is written afterwards. An edit
// is three bytes: a big-endian position (modulo the length) and an XOR mask.
func FuzzMakeDiff(f *testing.F) {
	dense := make([]byte, 0, 3*512)
	for pos := 0; pos < 4096; pos += 8 {
		dense = append(dense, byte(pos>>8), byte(pos), 0xff)
	}
	f.Add(make([]byte, 4096), dense)                       // dense
	f.Add(make([]byte, 4096), []byte{0, 10, 1, 12, 34, 7}) // sparse
	f.Add(make([]byte, 64), []byte{0, 17, 0x80})           // one word
	f.Add(make([]byte, 21), []byte{0, 19, 1})              // trailing short word
	f.Add([]byte{}, []byte{})
	f.Fuzz(func(t *testing.T, twin, edits []byte) {
		frame := append([]byte(nil), twin...)
		if len(frame) > 0 {
			for k := 0; k+3 <= len(edits); k += 3 {
				pos := (int(edits[k])<<8 | int(edits[k+1])) % len(frame)
				frame[pos] ^= edits[k+2]
			}
		}
		want := byteWiseDiff(frame, twin)
		got := MakeDiff(frame, twin)
		if !sameRuns(got, want) {
			t.Fatalf("MakeDiff = %v, byte-wise reference = %v", got, want)
		}
		for i := range frame {
			frame[i] ^= 0x5a
		}
		if !sameRuns(got, want) {
			t.Fatalf("runs changed with the frame: %v, want %v", got, want)
		}
	})
}

// benchmarkMakeDiff times MakeDiff on a page whose every stride-th word
// differs from its twin (stride 0: none does).
func benchmarkMakeDiff(b *testing.B, stride int) {
	frame, twin := make([]byte, vm.PageSize), make([]byte, vm.PageSize)
	if stride > 0 {
		for i := 0; i < vm.PageSize; i += diffWord * stride {
			frame[i] = 1
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		madeRuns = MakeDiff(frame, twin)
	}
}

func BenchmarkMakeDiffDense(b *testing.B)  { benchmarkMakeDiff(b, 1) }
func BenchmarkMakeDiffSparse(b *testing.B) { benchmarkMakeDiff(b, 64) }
func BenchmarkMakeDiffClean(b *testing.B)  { benchmarkMakeDiff(b, 0) }

var madeRuns []Run

// randomDiffs returns a page's stored diffs as one writer (rank 0) makes
// them: tags strictly ascending, each diff born after the previous diff's tag
// and no later than its own.
func randomDiffs(r *testRand, n int) []Diff {
	ds := make([]Diff, n)
	var tag int32
	for i := range ds {
		birth := tag + 1 + int32(r.next()%3)
		tag = birth + int32(r.next()%3)
		runs := []Run{{Off: 0, Data: []byte{1}}, {Off: 8, Data: []byte{2}}}
		ds[i] = Diff{Tag: tag, VT: VT{birth, int32(r.next() % 5)}, Runs: runs[:1+r.next()%2]}
	}
	return ds
}

// TestServedWindowMatchesFilter: the served window is exactly what a linear
// filter of the stored diffs keeps (tag past Applied, birth no later than
// Known), on random diff lists and at the edges: Applied at or past the last
// tag, Known below the first birth, and empty lists.
func TestServedWindowMatchesFilter(t *testing.T) {
	for seed := uint64(1); seed <= 300; seed++ {
		r := testRand(seed)
		ds := randomDiffs(&r, int(r.next()%12))
		var last, first int32
		if len(ds) > 0 {
			last, first = ds[len(ds)-1].Tag, ds[0].VT[0]
		}
		reqs := []diffReqMsg{
			{Applied: last, Known: last + 2},
			{Applied: last + 1, Known: last + 2},
			{Applied: 0, Known: first - 1},
			{Applied: 0, Known: last},
		}
		for k := 0; k < 8; k++ {
			reqs = append(reqs, diffReqMsg{Applied: int32(r.next() % uint64(last+2)), Known: int32(r.next() % uint64(last+2))})
		}
		for _, dr := range reqs {
			var want []Diff
			var wantBytes int64
			for _, d := range ds {
				if d.Tag > dr.Applied && d.VT[0] <= dr.Known {
					want = append(want, d)
					wantBytes += d.WireBytes()
				}
			}
			got, gotBytes := (&Protocol{}).served(ds, 0, dr)
			if len(got) != len(want) || gotBytes != wantBytes {
				t.Fatalf("seed %d, %+v: served %d diffs (%d bytes), filter keeps %d (%d bytes)",
					seed, dr, len(got), gotBytes, len(want), wantBytes)
			}
			for i := range got {
				if got[i].Tag != want[i].Tag {
					t.Fatalf("seed %d, %+v: diff %d has tag %d, want %d", seed, dr, i, got[i].Tag, want[i].Tag)
				}
			}
			if cap(got) != len(got) {
				t.Fatalf("seed %d, %+v: window cap %d exceeds its length %d", seed, dr, cap(got), len(got))
			}
		}
	}
}

// TestDropDiffRunsSparesStoredDiffs: with the injected diff-loss bug armed on
// every diff, the replies lose runs but the stored diffs never do.
func TestDropDiffRunsSparesStoredDiffs(t *testing.T) {
	r := testRand(7)
	ds := randomDiffs(&r, 20)
	lens := make([]int, len(ds))
	for i, d := range ds {
		lens[i] = len(d.Runs)
	}
	tm := &Protocol{cfg: Config{TestDropDiffRuns: 1}}
	for applied := int32(0); applied <= ds[len(ds)-1].Tag; applied++ {
		tm.served(ds, 0, diffReqMsg{Applied: applied, Known: ds[len(ds)-1].Tag})
	}
	if tm.testRunsLost == 0 {
		t.Fatal("the armed bug dropped no run")
	}
	for i, d := range ds {
		if len(d.Runs) != lens[i] {
			t.Fatalf("stored diff %d has %d runs, had %d", i, len(d.Runs), lens[i])
		}
	}
}
