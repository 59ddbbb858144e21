package core_test

import (
	"testing"

	"repro/internal/apps/tsp"
	"repro/internal/core"
	"repro/internal/variants"
	"repro/internal/vm"
)

// TestPageBufferStack pins the stack's contract: a released buffer is the
// next one handed out, a fresh one is allocated only when none is spare, and
// a buffer of the wrong size is refused.
func TestPageBufferStack(t *testing.T) {
	rt := &core.Runtime{}
	a, b := rt.PageBuffer(), rt.PageBuffer()
	if len(a) != vm.PageSize || len(b) != vm.PageSize || &a[0] == &b[0] {
		t.Fatalf("two fresh buffers: lengths %d and %d, shared %v", len(a), len(b), &a[0] == &b[0])
	}
	rt.ReleasePage(a)
	rt.ReleasePage(b)
	if got := rt.PageBuffer(); &got[0] != &b[0] {
		t.Error("PageBuffer did not return the last released buffer")
	}
	if got := rt.PageBuffer(); &got[0] != &a[0] {
		t.Error("PageBuffer did not return the first released buffer second")
	}
	if n := core.FreshPageBuffers(rt); n != 2 {
		t.Errorf("fresh buffers = %d, want 2", n)
	}
	defer func() {
		if recover() == nil {
			t.Error("ReleasePage accepted a short buffer")
		}
	}()
	rt.ReleasePage(make([]byte, 16))
}

// TestTSPRecyclesPageBuffers pins the stack's reach on the run it was built
// for: TSP small on tmk_mc_poll at 16 processors takes thousands of twins
// and page replies, and nearly all of them must be recycled.
func TestTSPRecyclesPageBuffers(t *testing.T) {
	const maxFresh = 16
	l, err := variants.LayoutFor(16)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := variants.Config("tmk_mc_poll", l.Nodes, l.PerNode, variants.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var rt *core.Runtime
	mk := cfg.NewProtocol
	cfg.NewProtocol = func(r *core.Runtime) core.Protocol { rt = r; return mk(r) }
	res, err := core.Run(cfg, tsp.New(tsp.Small()))
	if err != nil {
		t.Fatal(err)
	}
	taken := res.Total.Twins + res.Total.PageFetches
	if taken < 1000 {
		t.Fatalf("only %d twins and page fetches: the run no longer exercises the stack", taken)
	}
	if fresh := core.FreshPageBuffers(rt); fresh > maxFresh {
		t.Errorf("%d fresh page buffers for %d twins and page fetches, want at most %d", fresh, taken, maxFresh)
	} else {
		t.Logf("%d fresh page buffers for %d twins and page fetches", fresh, taken)
	}
}
