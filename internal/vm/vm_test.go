package vm

import (
	"bytes"
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

// TestFrameTablesFollowProtAndFrame drives random sequences of SetProt,
// Share (of an image page or of nil, the zero page), EnsureFrame, Load (of an
// image page or of nil) and stores through WriteFrame, and checks after every
// step, on every page, that ReadFrame and WriteFrame are what a walk of Prot,
// Frame and Shared would decide: nil exactly when the access would fault, map
// or (for a write) copy a shared page, the frame's own backing array
// otherwise. A model of every page's bytes checks the contents: EnsureFrame
// of a shared page returns an equal private copy, Load a private frame
// holding its source (reusing a private frame), and no step writes a shared
// page or the zero page.
func TestFrameTablesFollowProtAndFrame(t *testing.T) {
	const pages = 5
	var src, pristine [2][]byte // the pages Share maps, and what they hold
	for k := range src {
		src[k], pristine[k] = make([]byte, PageSize), make([]byte, PageSize)
		for i := range src[k] {
			src[k][i] = byte(i*7 + k + 1)
		}
		copy(pristine[k], src[k])
	}
	check := func(s *Space, model [][]byte, step int) bool {
		for pg := 0; pg < pages; pg++ {
			fr, prot, shared := s.Frame(pg), s.Prot(pg), s.Shared(pg)
			for _, c := range []struct {
				name    string
				got     *[PageSize]byte
				allowed bool
			}{
				{"ReadFrame", s.ReadFrame(pg), prot.CanRead()},
				{"WriteFrame", s.WriteFrame(pg), prot.CanWrite() && !shared},
			} {
				want := c.allowed && fr != nil
				if (c.got != nil) != want {
					t.Errorf("step %d page %d (prot %v, frame %v, shared %v): %s non-nil = %v, want %v",
						step, pg, prot, fr != nil, shared, c.name, c.got != nil, want)
					return false
				}
				if want && &c.got[0] != &fr[0] {
					t.Errorf("step %d page %d: %s is not the page's frame", step, pg, c.name)
					return false
				}
			}
			if shared && fr == nil {
				t.Errorf("step %d page %d: shared without a frame", step, pg)
				return false
			}
			if (fr == nil) != (model[pg] == nil) || (fr != nil && !bytes.Equal(fr, model[pg])) {
				t.Errorf("step %d page %d: frame does not hold the page's bytes", step, pg)
				return false
			}
		}
		for k := range src {
			if !bytes.Equal(src[k], pristine[k]) {
				t.Errorf("step %d: shared page %d was written", step, k)
				return false
			}
		}
		if zeroPage != [PageSize]byte{} {
			t.Errorf("step %d: the zero page was written", step)
			return false
		}
		return true
	}
	f := func(ops []uint16) bool {
		s := NewSpace(pages)
		model := make([][]byte, pages)
		if !check(s, model, -1) {
			return false
		}
		for i, op := range ops {
			pg := int(op>>8) % pages
			// data is one of the image pages, or nil for zeros.
			var data []byte
			if k := int(op>>4) % (len(src) + 1); k < len(src) {
				data = src[k]
			}
			switch op % 7 {
			case 0, 1, 2:
				s.SetProt(pg, Prot(op%3))
			case 3:
				s.Share(pg, data)
				model[pg] = make([]byte, PageSize)
				copy(model[pg], data)
			case 4:
				wasShared, old := s.Shared(pg), s.Frame(pg)
				fr := s.EnsureFrame(pg)
				if s.Shared(pg) || (wasShared && &fr[0] == &old[0]) {
					t.Errorf("step %d page %d: EnsureFrame returned a shared frame", i, pg)
					return false
				}
				if model[pg] == nil {
					model[pg] = make([]byte, PageSize)
				}
			case 5:
				if fr := s.WriteFrame(pg); fr != nil {
					off := int(op>>3) % PageSize
					fr[off]++
					model[pg][off]++
				}
			case 6:
				wasShared, old := s.Shared(pg), s.Frame(pg)
				fr := s.Load(pg, data)
				if s.Shared(pg) || &fr[0] != &s.Frame(pg)[0] {
					t.Errorf("step %d page %d: Load did not leave the returned frame private", i, pg)
					return false
				}
				if old != nil && wasShared == (&fr[0] == &old[0]) {
					t.Errorf("step %d page %d: Load reused a shared frame or replaced a private one", i, pg)
					return false
				}
				model[pg] = make([]byte, PageSize)
				copy(model[pg], data)
			}
			if !check(s, model, i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestLoadOverSharedFrame loads a page over a frame that shares an image page
// (and, second, the zero page) with another space: the loader gets a private
// frame equal to its source, and the shared page keeps its bytes and its
// address, so the other space still maps it.
func TestLoadOverSharedFrame(t *testing.T) {
	img, src := make([]byte, PageSize), make([]byte, PageSize)
	for i := range img {
		img[i], src[i] = byte(i*3+1), byte(i*5+2)
	}
	pristine := bytes.Clone(img)
	for _, shared := range [][]byte{img, nil} {
		s, other := NewSpace(1), NewSpace(1)
		s.Share(0, shared)
		other.Share(0, shared)
		s.SetProt(0, ProtReadWrite)
		was := other.Frame(0)
		fr := s.Load(0, src)
		if s.Shared(0) || &fr[0] == &was[0] {
			t.Fatalf("shared %v: Load returned the shared frame", shared != nil)
		}
		if w := s.WriteFrame(0); w == nil || &w[0] != &fr[0] {
			t.Errorf("shared %v: the loaded frame is not the writable frame", shared != nil)
		}
		if !bytes.Equal(fr, src) {
			t.Errorf("shared %v: the loaded frame does not hold the source", shared != nil)
		}
		if g := other.Frame(0); &g[0] != &was[0] || !other.Shared(0) {
			t.Errorf("shared %v: the other space no longer maps the shared page", shared != nil)
		}
		if !bytes.Equal(img, pristine) || zeroPage != [PageSize]byte{} {
			t.Errorf("shared %v: Load wrote the shared page", shared != nil)
		}
	}
}

// firstTouch maps every page of a fresh 256-page space from one image page,
// as a processor's first touch of the initial image does: by sharing it, or
// by copying it into a private frame.
func firstTouch(b *testing.B, share bool) {
	const pages = 256
	img := make([]byte, PageSize)
	for i := range img {
		img[i] = byte(i)
	}
	b.SetBytes(pages * PageSize)
	b.ReportAllocs()
	for range b.N {
		s := NewSpace(pages)
		for pg := range pages {
			if share {
				s.Share(pg, img)
			} else {
				s.Load(pg, img)
			}
		}
	}
}

// BenchmarkFirstTouchShared is a first touch of 256 image pages that share
// the image.
func BenchmarkFirstTouchShared(b *testing.B) { firstTouch(b, true) }

// BenchmarkFirstTouchPrivate is the same first touch copying each page into
// a private frame, as every first touch did before frames could be shared.
func BenchmarkFirstTouchPrivate(b *testing.B) { firstTouch(b, false) }
