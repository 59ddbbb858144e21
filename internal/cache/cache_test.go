package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// newL1 returns a cold model of the paper's L1.
func newL1(tb testing.TB) *L1 {
	tb.Helper()
	c, err := New(Alpha21064A)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

func TestValidate(t *testing.T) {
	cases := []struct {
		cfg Config
		ok  bool
	}{
		{Alpha21064A, true},
		{Alpha21264, true},
		{Config{SizeBytes: 16384, LineBytes: 64}, true},
		{Config{SizeBytes: 0, LineBytes: 64}, false},
		{Config{SizeBytes: 1000, LineBytes: 64}, false}, // not power of two
		{Config{SizeBytes: 16384, LineBytes: 48}, false},
		{Config{SizeBytes: 64, LineBytes: 128}, false}, // line > cache
	}
	for _, c := range cases {
		if err := c.cfg.Validate(); (err == nil) != c.ok {
			t.Errorf("Validate(%+v) = %v, want ok=%v", c.cfg, err, c.ok)
		}
	}
}

func TestGeometry(t *testing.T) {
	if got := Alpha21064A.Lines(); got != 256 {
		t.Errorf("21064A lines = %d, want 256", got)
	}
}

func TestHitMissBasics(t *testing.T) {
	c := newL1(t)
	if c.Access(0x1000) {
		t.Error("cold access hit")
	}
	if !c.Access(0x1000) {
		t.Error("repeat access missed")
	}
	if !c.Access(0x103F) {
		t.Error("same-line access missed")
	}
	if c.Access(0x1040) {
		t.Error("next-line access hit cold")
	}
	if c.Hits() != 2 || c.Misses() != 2 {
		t.Errorf("hits=%d misses=%d, want 2/2", c.Hits(), c.Misses())
	}
}

func TestConflictEviction(t *testing.T) {
	c := newL1(t)
	a := uint64(0x0000)
	b := a + uint64(Alpha21064A.SizeBytes) // same index, different tag
	c.Access(a)
	c.Access(b) // evicts a
	if c.Access(a) {
		t.Error("evicted line still hit")
	}
	if c.Access(b) {
		t.Error("b evicted unexpectedly by a's refill... wait, a refilled so b must miss")
	}
}

// TestWriteDoublingPressure demonstrates the paper's §4.3 effect in
// miniature: a working set that fits the 16 KB cache exactly starts
// conflict-missing once every write also touches a doubled address with a
// flipped index bit.
func TestWriteDoublingPressure(t *testing.T) {
	undoubled := newL1(t)
	doubled := newL1(t)
	// The doubled write lands in the Memory Channel region: a distinct
	// address region (different tag) whose index differs from the local copy
	// by the flipped low offset bit (paper §3.3.1).
	const mcRegion = 1 << 40
	const doubleBit = 0x2000

	// Working set: 16 KB touched repeatedly.
	misses := func(c *L1, double bool) uint64 {
		for pass := 0; pass < 8; pass++ {
			for off := uint64(0); off < 16*1024; off += 8 {
				c.Access(off)
				if double {
					c.Access((off | mcRegion) ^ doubleBit)
				}
			}
		}
		return c.Misses()
	}
	mu := misses(undoubled, false)
	md := misses(doubled, true)
	if mu >= md {
		t.Errorf("undoubled misses %d not < doubled misses %d", mu, md)
	}
	// Undoubled: compulsory misses only on the first pass.
	if mu != 256 {
		t.Errorf("undoubled misses = %d, want 256 (compulsory only)", mu)
	}
}

// TestTagDisambiguation: two addresses mapping to the same index must never
// be confused, for arbitrary addresses.
func TestTagDisambiguation(t *testing.T) {
	f := func(a, b uint32) bool {
		c := newL1(t)
		aa := uint64(a) &^ 0x3F // align to line
		bb := uint64(b) &^ 0x3F
		c.Access(aa)
		hit := c.Access(bb)
		return hit == (aa>>6 == bb>>6) // hit iff same line
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestMissMatchesReference runs a seeded random address stream through Miss
// and Access and through a map-based direct-mapped reference: line = addr /
// LineBytes lives in set line mod Lines, and a set holds one line. Half the
// addresses fall in four times the cache size, so both hits and conflict
// misses are common, and the rest are arbitrary 64-bit addresses, so every
// tag bit is exercised.
func TestMissMatchesReference(t *testing.T) {
	for _, cfg := range []Config{Alpha21064A, Alpha21264} {
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		lines := uint64(cfg.Lines())
		ref := make(map[uint64]uint64) // set -> resident line
		var refMisses, n uint64
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 200000; i++ {
			addr := rng.Uint64()
			if i%2 == 0 {
				addr %= 4 * uint64(cfg.SizeBytes)
			}
			line := addr / uint64(cfg.LineBytes)
			resident, ok := ref[line%lines]
			hit := ok && resident == line
			ref[line%lines] = line
			if !hit {
				refMisses++
			}
			n++
			var got uint64
			if i%3 != 0 {
				got = c.Miss(addr)
			} else if !c.Access(addr) { // Access is Miss == 0 and fills alike
				got = 1
			}
			if got > 1 {
				t.Fatalf("%+v: Miss(%#x) = %d, want 0 or 1", cfg, addr, got)
			}
			if (got == 0) != hit {
				t.Fatalf("%+v: access %d to %#x: miss=%d, reference hit=%v", cfg, i, addr, got, hit)
			}
		}
		if c.Hits()+c.Misses() != n {
			t.Errorf("%+v: Hits %d + Misses %d != %d accesses", cfg, c.Hits(), c.Misses(), n)
		}
		if c.Misses() != refMisses || c.Hits() != n-refMisses {
			t.Errorf("%+v: hits/misses %d/%d, reference %d/%d", cfg, c.Hits(), c.Misses(), n-refMisses, refMisses)
		}
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	for _, bad := range []Config{{SizeBytes: 7, LineBytes: 3}, {}} {
		if _, err := New(bad); err == nil {
			t.Fatalf("New accepted %+v", bad)
		}
	}
}

func BenchmarkAccess(b *testing.B) {
	c := newL1(b)
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i) * 8)
	}
}
