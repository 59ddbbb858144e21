package vm

import (
	"testing"
	"testing/quick"
)

func TestAddressArithmetic(t *testing.T) {
	cases := []struct {
		addr uint64
		page int
		off  int
	}{
		{0, 0, 0},
		{1, 0, 1},
		{8191, 0, 8191},
		{8192, 1, 0},
		{8192*5 + 100, 5, 100},
	}
	for _, c := range cases {
		if got := PageOf(c.addr); got != c.page {
			t.Errorf("PageOf(%d) = %d, want %d", c.addr, got, c.page)
		}
		if got := Offset(c.addr); got != c.off {
			t.Errorf("Offset(%d) = %d, want %d", c.addr, got, c.off)
		}
	}
}

// Property: PageOf(a)*PageSize + Offset(a) == a for all addresses.
func TestAddressRoundTrip(t *testing.T) {
	f := func(a uint64) bool {
		a &= (1 << 40) - 1 // keep page index in int range
		return uint64(PageOf(a))*PageSize+uint64(Offset(a)) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestProtSemantics(t *testing.T) {
	if ProtNone.CanRead() || ProtNone.CanWrite() {
		t.Error("ProtNone allows access")
	}
	if !ProtRead.CanRead() || ProtRead.CanWrite() {
		t.Error("ProtRead wrong")
	}
	if !ProtReadWrite.CanRead() || !ProtReadWrite.CanWrite() {
		t.Error("ProtReadWrite wrong")
	}
	for p, want := range map[Prot]string{ProtNone: "none", ProtRead: "read", ProtReadWrite: "read-write", Prot(9): "invalid"} {
		if got := p.String(); got != want {
			t.Errorf("Prot(%d).String() = %q, want %q", p, got, want)
		}
	}
}

func TestSpaceLifecycle(t *testing.T) {
	s := NewSpace(4)
	for i := 0; i < 4; i++ {
		if s.Prot(i) != ProtNone {
			t.Errorf("page %d initial prot = %v", i, s.Prot(i))
		}
		if s.Frame(i) != nil {
			t.Errorf("page %d has initial frame", i)
		}
	}
	s.SetProt(2, ProtReadWrite)
	if s.Prot(2) != ProtReadWrite {
		t.Error("SetProt lost")
	}
	f := s.EnsureFrame(2)
	if len(f) != PageSize {
		t.Fatalf("frame size %d", len(f))
	}
	f[0] = 0xAB
	if g := s.EnsureFrame(2); &g[0] != &f[0] {
		t.Error("EnsureFrame reallocated an existing frame")
	}
	if g := s.EnsureFrame(3); g[0] != 0 {
		t.Error("new frame not zeroed")
	}
}

func TestSuperpageOf(t *testing.T) {
	if SuperpageOf(0, 4) != 0 || SuperpageOf(3, 4) != 0 || SuperpageOf(4, 4) != 1 || SuperpageOf(11, 4) != 2 {
		t.Error("SuperpageOf wrong grouping")
	}
	defer func() {
		if recover() == nil {
			t.Error("SuperpageOf(_, 0) did not panic")
		}
	}()
	SuperpageOf(1, 0)
}

func TestNewSpaceNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewSpace(-1) did not panic")
		}
	}()
	NewSpace(-1)
}

// Property: protection levels are totally ordered none < read < read-write
// in terms of allowed operations.
func TestProtMonotonicity(t *testing.T) {
	f := func(raw uint8) bool {
		p := Prot(raw % 3)
		if p.CanWrite() && !p.CanRead() {
			return false // write permission implies read permission
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestFrameTablesFollowProtAndFrame drives random SetProt/EnsureFrame
// sequences and checks after every step, on every page, that
// ReadFrame and WriteFrame are what a walk of Prot and Frame would decide:
// nil exactly when the access would fault or materialize, the frame's own
// backing array otherwise.
func TestFrameTablesFollowProtAndFrame(t *testing.T) {
	const pages = 5
	check := func(s *Space, step int) bool {
		for pg := 0; pg < pages; pg++ {
			fr, prot := s.Frame(pg), s.Prot(pg)
			for _, c := range []struct {
				name    string
				got     *[PageSize]byte
				allowed bool
			}{
				{"ReadFrame", s.ReadFrame(pg), prot.CanRead()},
				{"WriteFrame", s.WriteFrame(pg), prot.CanWrite()},
			} {
				want := c.allowed && fr != nil
				if (c.got != nil) != want {
					t.Errorf("step %d page %d (prot %v, frame %v): %s non-nil = %v, want %v",
						step, pg, prot, fr != nil, c.name, c.got != nil, want)
					return false
				}
				if want && &c.got[0] != &fr[0] {
					t.Errorf("step %d page %d: %s is not the page's frame", step, pg, c.name)
					return false
				}
			}
		}
		return true
	}
	f := func(ops []uint16) bool {
		s := NewSpace(pages)
		if !check(s, -1) {
			return false
		}
		for i, op := range ops {
			pg := int(op>>8) % pages
			switch op % 4 {
			case 0, 1, 2:
				s.SetProt(pg, Prot(op%4))
			case 3:
				s.EnsureFrame(pg)
			}
			if !check(s, i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
