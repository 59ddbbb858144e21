package treadmarks

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/apps/tsp"
	"repro/internal/cashmere"
	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/vm"
)

// ownershipCheck wraps a protocol and, when the last compute processor
// finalizes, checks the run's spare page buffers (core.Runtime.SparePages)
// against every buffer the run still uses. Only recycled buffers move between
// owners, so a buffer released too early or twice shows up here: as a spare
// that is also a live twin, a stored diff run, a Cashmere home frame, a
// processor frame or an initial-image page, or as two spares sharing memory.
type ownershipCheck struct {
	core.Protocol
	rt   *core.Runtime
	left int
	err  error
}

func (o *ownershipCheck) Finalize(p *core.Proc) {
	o.Protocol.Finalize(p)
	if o.left--; o.left == 0 {
		o.err = spareAliases(o.rt, o.Protocol)
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

// spareAliases returns an error naming the first spare buffer that shares
// memory with another spare or with a buffer the run still uses.
func spareAliases(rt *core.Runtime, proto core.Protocol) error {
	var live []span
	for _, p := range rt.ComputeProcs() {
		for pg := 0; pg < rt.NumPages(); pg++ {
			if fr := p.Space().Frame(pg); fr != nil {
				live = append(live, spanOf(fr, fmt.Sprintf("rank %d's frame of page %d", p.Rank(), pg)))
			}
		}
	}
	for pg := 0; pg < rt.NumPages(); pg++ {
		if img := rt.InitialPage(pg); img != nil {
			live = append(live, spanOf(img, fmt.Sprintf("initial image of page %d", pg)))
		}
	}
	// Twins, stored diff runs and Cashmere home frames are the protocol's:
	// every byte slice reachable from its state.
	v := reflect.ValueOf(proto)
	held := 0
	walkBytes(v, "", v.Elem().Type().PkgPath(), map[visit]bool{}, func(s span) {
		live = append(live, s)
		held++
	})
	if held == 0 {
		// Every program here leaves stored diffs or home frames.
		return fmt.Errorf("found no byte slice in the protocol's state: the walk missed it")
	}

	spare := rt.SparePages()
	for i, b := range spare {
		s := spanOf(b, "")
		for j := range i {
			if s.overlaps(spanOf(spare[j], "")) {
				return fmt.Errorf("spare buffers %d and %d share memory: one buffer was released twice", j, i)
			}
		}
		for _, l := range live {
			if s.overlaps(l) {
				return fmt.Errorf("spare buffer %d of %d shares memory with %s", i, len(spare), l.what)
			}
		}
	}
	return nil
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

// runOwned runs one program with the ownership check armed.
func runOwned(cfg core.Config, run func(core.Config) error) error {
	var o *ownershipCheck
	mk := cfg.NewProtocol
	cfg.NewProtocol = func(rt *core.Runtime) core.Protocol {
		o = &ownershipCheck{Protocol: mk(rt), rt: rt, left: len(rt.ComputeProcs())}
		return o
	}
	if err := run(cfg); err != nil {
		return err
	}
	if o.left != 0 {
		return fmt.Errorf("%d compute processors never finalized", o.left)
	}
	return o.err
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

// TestPageBufferOwnership runs the lock storm, the false-sharing program and
// TSP small at 8 processors on both protocols and checks at the end of each
// run that no recycled page buffer is still in use: twins and page replies
// on TreadMarks, home-page snapshots on Cashmere.
func TestPageBufferOwnership(t *testing.T) {
	programs := []struct {
		name string
		run  func(core.Config) error
	}{
		{"lockstorm", lockStorm},
		{"falsesharing", func(cfg core.Config) error {
			_, err := core.Run(cfg, falseSharing(8))
			return err
		}},
		{"tsp", func(cfg core.Config) error {
			_, err := core.Run(cfg, tsp.New(tsp.Small()))
			return err
		}},
	}
	for _, cfg := range []core.Config{
		testConfig(4, 2, "tmk_mc_poll"),
		testConfig(4, 2, "tmk_udp_int"),
		csmConfig(4, 2, "csm_poll"),
		csmConfig(4, 2, "csm_int"),
	} {
		for _, prog := range programs {
			t.Run(cfg.Variant+"/"+prog.name, func(t *testing.T) {
				if err := runOwned(cfg, prog.run); err != nil {
					t.Error(err)
				}
			})
		}
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
	err := runOwned(cfg, func(cfg core.Config) error {
		_, err := core.Run(cfg, prog)
		return err
	})
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
