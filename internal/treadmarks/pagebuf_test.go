package treadmarks

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/apps/em3d"
	"repro/internal/apps/tsp"
	"repro/internal/cashmere"
	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/vm"
)

// ownershipCheck wraps a protocol and, when the last compute processor
// finalizes, checks the run's page memory. Only recycled buffers move between
// owners, so a buffer released too early or twice shows up as a spare that is
// also a live twin, a stored diff run, a private frame (a processor's, or a
// Cashmere home copy), an initial-image page or the zero page, or as two
// spares sharing memory. And the initial image and the zero page are mapped
// by many spaces at once, so a write that reached one through a frame shows
// up as an image page that no longer holds what Init wrote, as a zero page
// that no longer holds zeros, or as a private frame aliasing one.
type ownershipCheck struct {
	core.Protocol
	rt    *core.Runtime
	image [][]byte // the initial image as Init left it
	left  int
	err   error
	// private counts the run's private page copies at the end: processor
	// frames and Cashmere home copies that share nothing.
	private int
}

func (o *ownershipCheck) Finalize(p *core.Proc) {
	o.Protocol.Finalize(p)
	if o.left--; o.left == 0 {
		o.private, o.err = o.check()
	}
}

// span is the memory a byte slice can reach: its array from the first
// element to its capacity.
type span struct {
	lo, hi uintptr
	what   string
}

func (s span) overlaps(o span) bool { return s.lo < o.hi && o.lo < s.hi }

func spanOf(b []byte, what string) span {
	v := reflect.ValueOf(b)
	return span{v.Pointer(), v.Pointer() + uintptr(v.Cap()), what}
}

// zeroPage returns the page vm.Space.Share maps for a nil page.
func zeroPage() []byte {
	s := vm.NewSpace(1)
	s.Share(0, nil)
	return s.Frame(0)
}

// homesOf returns Cashmere's home copies, a vm.Space the walk does not enter
// (the type is vm's), or nil if proto is not Cashmere.
func homesOf(proto core.Protocol) (*vm.Space, error) {
	if _, ok := proto.(*cashmere.Protocol); !ok {
		return nil, nil
	}
	f := reflect.ValueOf(proto).Elem().FieldByName("homes")
	if !f.IsValid() || f.Type() != reflect.TypeFor[*vm.Space]() {
		return nil, fmt.Errorf("cashmere.Protocol has no homes *vm.Space field")
	}
	return (*vm.Space)(f.UnsafePointer()), nil
}

// check returns the number of private page copies and an error naming the
// first image page that changed (or the zero page, if it holds a non-zero
// byte), the first shared frame that is not its page's image, the first
// private copy that shares memory with an image page or the zero page, or the
// first spare buffer that shares memory with another spare or with a buffer
// the run still uses.
func (o *ownershipCheck) check() (int, error) {
	rt := o.rt
	zero := zeroPage()
	if !bytes.Equal(zero, make([]byte, vm.PageSize)) {
		return 0, fmt.Errorf("the zero page no longer holds zeros")
	}
	images := []span{spanOf(zero, "zero page")}
	for pg := 0; pg < rt.NumPages(); pg++ {
		if img := rt.InitialPage(pg); img != nil {
			if !bytes.Equal(img, o.image[pg]) {
				return 0, fmt.Errorf("initial image of page %d no longer holds what Init wrote", pg)
			}
			images = append(images, spanOf(img, fmt.Sprintf("initial image of page %d", pg)))
		}
	}
	// A shared frame must be its own page's image, or the zero page where
	// Init wrote nothing; every other frame is a private copy.
	var private []span
	frames := func(s *vm.Space, owner string) error {
		for pg := 0; pg < rt.NumPages(); pg++ {
			fr := s.Frame(pg)
			switch {
			case fr == nil:
			case s.Shared(pg):
				want := rt.InitialPage(pg)
				if want == nil {
					want = zero
				}
				if &fr[0] != &want[0] {
					return fmt.Errorf("%s shared frame of page %d is not the page's image", owner, pg)
				}
			default:
				private = append(private, spanOf(fr, fmt.Sprintf("%s private frame of page %d", owner, pg)))
			}
		}
		return nil
	}
	for _, p := range rt.ComputeProcs() {
		if err := frames(p.Space(), fmt.Sprintf("rank %d's", p.Rank())); err != nil {
			return 0, err
		}
	}
	homes, err := homesOf(o.Protocol)
	if err != nil {
		return 0, err
	}
	if homes != nil {
		if err := frames(homes, "Cashmere's home"); err != nil {
			return 0, err
		}
	}
	// Twins and stored diff runs are the protocol's: every byte slice
	// reachable from its state. The sequential baseline holds none (its
	// state is the runtime), and Cashmere's pages are its home copies.
	var held []span
	if _, ok := o.Protocol.(*core.NullProtocol); !ok {
		v := reflect.ValueOf(o.Protocol)
		walkBytes(v, "", v.Elem().Type().PkgPath(), map[visit]bool{}, func(s span) {
			held = append(held, s)
		})
		if len(held) == 0 && homes == nil {
			// Every program here leaves TreadMarks stored diffs.
			return 0, fmt.Errorf("found no byte slice in the protocol's state: the walk missed it")
		}
	}
	for _, s := range append(private, held...) {
		for _, img := range images {
			if s.overlaps(img) {
				return 0, fmt.Errorf("%s shares memory with the %s", s.what, img.what)
			}
		}
	}

	live := append(append(images, private...), held...)
	spare := rt.SparePages()
	for i, b := range spare {
		s := spanOf(b, "")
		for j := range i {
			if s.overlaps(spanOf(spare[j], "")) {
				return 0, fmt.Errorf("spare buffers %d and %d share memory: one buffer was released twice", j, i)
			}
		}
		for _, l := range live {
			if s.overlaps(l) {
				return 0, fmt.Errorf("spare buffer %d of %d shares memory with %s", i, len(spare), l.what)
			}
		}
	}
	return len(private), nil
}

// visit is a pointer walkBytes has followed: a struct and its first field
// share an address, so the type is part of the key.
type visit struct {
	ptr uintptr
	typ reflect.Type
}

// walkBytes calls found for every non-empty byte slice reachable from v
// through values of package pkg's types and unnamed composites of them,
// naming each by its path from the protocol. It does not enter other
// packages' named types: the runtime, engine and network the protocol points
// at hold no page the protocol owns (frames and the initial image are checked
// directly).
func walkBytes(v reflect.Value, path, pkg string, seen map[visit]bool, found func(span)) {
	if t := v.Type(); t.Name() != "" && t.PkgPath() != "" && t.PkgPath() != pkg {
		return
	}
	switch v.Kind() {
	case reflect.Pointer:
		k := visit{v.Pointer(), v.Type()}
		if v.IsNil() || seen[k] {
			return
		}
		seen[k] = true
		walkBytes(v.Elem(), path, pkg, seen, found)
	case reflect.Interface:
		if !v.IsNil() {
			walkBytes(v.Elem(), path, pkg, seen, found)
		}
	case reflect.Struct:
		for i := range v.NumField() {
			walkBytes(v.Field(i), path+"."+v.Type().Field(i).Name, pkg, seen, found)
		}
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			if v.Cap() > 0 {
				found(span{v.Pointer(), v.Pointer() + uintptr(v.Cap()), "protocol state " + path})
			}
			return
		}
		fallthrough
	case reflect.Array:
		for i := range v.Len() {
			walkBytes(v.Index(i), fmt.Sprintf("%s[%d]", path, i), pkg, seen, found)
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			walkBytes(it.Value(), fmt.Sprintf("%s[%v]", path, it.Key()), pkg, seen, found)
		}
	}
}

// runOwned runs prog with the ownership check armed and returns the number
// of private page copies the run ended with.
func runOwned(cfg core.Config, prog *core.Program) (int, error) {
	var o *ownershipCheck
	mk := cfg.NewProtocol
	cfg.NewProtocol = func(rt *core.Runtime) core.Protocol {
		o = &ownershipCheck{Protocol: mk(rt), rt: rt, left: len(rt.ComputeProcs())}
		return o
	}
	wrapped := *prog
	wrapped.Init = func(w *core.ImageWriter) {
		if prog.Init != nil {
			prog.Init(w)
		}
		o.image = make([][]byte, o.rt.NumPages())
		for pg := range o.image {
			o.image[pg] = bytes.Clone(o.rt.InitialPage(pg))
		}
	}
	if _, err := core.Run(cfg, &wrapped); err != nil {
		return 0, err
	}
	if o.left != 0 {
		return 0, fmt.Errorf("%d compute processors never finalized", o.left)
	}
	return o.private, o.err
}

// seqConfig is the sequential baseline on one processor.
func seqConfig() core.Config {
	cfg := testConfig(1, 1, "tmk_udp_int")
	cfg.NewProtocol = core.NewNullProtocol
	cfg.Variant = "sequential"
	return cfg
}

// csmConfig is csm_poll or csm_int on nodes x ppn.
func csmConfig(nodes, ppn int, variant string) core.Config {
	cfg := testConfig(nodes, ppn, "tmk_mc_poll")
	cfg.NewProtocol = cashmere.New(cashmere.Config{})
	cfg.Variant = variant
	if variant == "csm_int" {
		cfg.Msg = msg.DefaultParams(msg.ModeInterrupt)
		cfg.PollingInstrumented = false
	}
	return cfg
}

// TestPageBufferOwnership runs the lock storm, the false-sharing program, TSP
// small and Em3d small at 8 processors on both protocols, and all but the
// false-sharing program (which needs several writers) on the sequential
// baseline. At the end of each run no recycled page buffer may still be in
// use (twins and page replies on TreadMarks, home-page snapshots on
// Cashmere), and the initial image and the zero page, which frames and
// Cashmere's home copies share, must be intact.
func TestPageBufferOwnership(t *testing.T) {
	programs := []struct {
		name string
		run  func(core.Config) error
	}{
		{"lockstorm", func(cfg core.Config) error {
			var lost error
			if _, err := runOwned(cfg, stormProgram(&lost)); err != nil {
				return err
			}
			return lost
		}},
		{"falsesharing", func(cfg core.Config) error {
			_, err := runOwned(cfg, falseSharing(8))
			return err
		}},
		{"tsp", func(cfg core.Config) error {
			_, err := runOwned(cfg, tsp.New(tsp.Small()))
			return err
		}},
		{"em3d", func(cfg core.Config) error {
			_, err := runOwned(cfg, em3d.New(em3d.Small()))
			return err
		}},
	}
	for _, cfg := range []core.Config{
		seqConfig(),
		testConfig(4, 2, "tmk_mc_poll"),
		testConfig(4, 2, "tmk_udp_int"),
		csmConfig(4, 2, "csm_poll"),
		csmConfig(4, 2, "csm_int"),
	} {
		for _, prog := range programs {
			if cfg.Variant == "sequential" && prog.name == "falsesharing" {
				continue
			}
			t.Run(cfg.Variant+"/"+prog.name, func(t *testing.T) {
				if err := prog.run(cfg); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

// TestEm3dSharesUnwrittenPages pins what sharing the initial image saves on
// Em3d small on one processor: it writes 4 of its 36 pages (the E and H
// values), and only those get a private frame (and, on Cashmere, a private
// home frame); the 32 pages of dependency tables stay mapped to the image.
// At the default size, 64 of 832 pages get one.
func TestEm3dSharesUnwrittenPages(t *testing.T) {
	for _, c := range []struct {
		cfg     core.Config
		private int
	}{
		{seqConfig(), 4},
		{testConfig(1, 1, "tmk_mc_poll"), 4},
		{testConfig(1, 1, "tmk_udp_int"), 4},
		{csmConfig(1, 1, "csm_poll"), 8},
		{csmConfig(1, 1, "csm_int"), 8},
	} {
		t.Run(c.cfg.Variant, func(t *testing.T) {
			private, err := runOwned(c.cfg, em3d.New(em3d.Small()))
			if err != nil {
				t.Fatal(err)
			}
			if private != c.private {
				t.Errorf("%d private page copies, want %d", private, c.private)
			}
		})
	}
}

// TestOwnershipCheckCatchesEarlyRelease arms the check against a run whose
// protocol releases a twin it still holds: a pin that cannot fail pins
// nothing. Every rank writes its own page last, so each one finishes with a
// live twin.
func TestOwnershipCheckCatchesEarlyRelease(t *testing.T) {
	cfg := testConfig(4, 2, "tmk_mc_poll")
	mk := cfg.NewProtocol
	cfg.NewProtocol = func(rt *core.Runtime) core.Protocol {
		return &leakyFinalize{Protocol: mk(rt).(*Protocol), rt: rt}
	}
	l := core.NewLayout()
	arr := l.I64Pages(8 * vm.PageSize / 8)
	prog := &core.Program{
		Name: "lastwrites", SharedBytes: l.Size(),
		Body: func(p *core.Proc) {
			arr.Set(p, p.Rank()*vm.PageSize/8, 1)
			p.Finish()
		},
	}
	_, err := runOwned(cfg, prog)
	if err == nil {
		t.Fatal("a live twin was on the spare stack, and the check passed")
	}
	t.Log(err)
}

// leakyFinalize releases one live twin of each processor as it finalizes,
// while the twin stays in the processor's state.
type leakyFinalize struct {
	*Protocol
	rt *core.Runtime
}

func (l *leakyFinalize) Finalize(p *core.Proc) {
	l.Protocol.Finalize(p)
	for _, tw := range l.state(p).twins {
		l.rt.ReleasePage(tw.data)
		return
	}
}
