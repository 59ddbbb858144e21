// Package vm is a stand-in for the real internal/vm: the accessor analyzer
// matches the receiver type name (Space) and package name (vm), and exempts
// this package itself.
package vm

const PageSize = 8192

type Space struct {
	frames [][]byte
}

func NewSpace(pages int) *Space { return &Space{frames: make([][]byte, pages)} }

func (s *Space) Frame(page int) []byte { return s.frames[page] }

func (s *Space) EnsureFrame(page int) []byte {
	if s.frames[page] == nil {
		s.frames[page] = make([]byte, PageSize)
	}
	return s.frames[page]
}

// ReadFrame and WriteFrame stand in for the permission-split frame tables:
// the frame as an array pointer, nil when the access would fault.
func (s *Space) ReadFrame(page int) *[PageSize]byte { return (*[PageSize]byte)(s.frames[page]) }

func (s *Space) WriteFrame(page int) *[PageSize]byte { return s.ReadFrame(page) }
