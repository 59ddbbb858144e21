package variants

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/interconnect"
)

func TestAllVariantsBuild(t *testing.T) {
	for _, name := range Names {
		cfg, err := Config(name, 2, 2, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: invalid config: %v", name, err)
		}
		if cfg.Variant != name {
			t.Errorf("%s: variant label %q", name, cfg.Variant)
		}
	}
}

func TestSequentialForcesSingleProc(t *testing.T) {
	cfg, err := Config(Sequential, 8, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Nodes != 1 || cfg.ProcsPerNode != 1 {
		t.Errorf("sequential shape %dx%d", cfg.Nodes, cfg.ProcsPerNode)
	}
}

func TestUnknownVariant(t *testing.T) {
	if _, err := Config("csm_magic", 1, 1, Options{}); err == nil {
		t.Error("unknown variant accepted")
	}
}

func TestIsCashmere(t *testing.T) {
	for _, n := range []string{"csm_pp", "csm_int", "csm_poll"} {
		if !IsCashmere(n) {
			t.Errorf("%s not recognized as Cashmere", n)
		}
	}
	for _, n := range []string{"tmk_udp_int", "tmk_mc_int", "tmk_mc_poll", Sequential} {
		if IsCashmere(n) {
			t.Errorf("%s recognized as Cashmere", n)
		}
	}
}

func TestPaperLayouts(t *testing.T) {
	for _, l := range PaperLayouts {
		if l.Nodes*l.PerNode != l.Procs {
			t.Errorf("layout %+v inconsistent", l)
		}
		if l.Nodes > 8 || l.PerNode > 4 {
			t.Errorf("layout %+v exceeds the 8x4 cluster", l)
		}
		got, err := LayoutFor(l.Procs)
		if err != nil || got != l {
			t.Errorf("LayoutFor(%d) = %+v, %v", l.Procs, got, err)
		}
	}
	if _, err := LayoutFor(7); err == nil {
		t.Error("LayoutFor(7) accepted")
	}
}

func TestFeasibility(t *testing.T) {
	l32, _ := LayoutFor(32)
	if Feasible("csm_pp", l32) {
		t.Error("csm_pp feasible at 32 (4 compute CPUs/node leaves no room for the protocol processor)")
	}
	l24, _ := LayoutFor(24)
	if !Feasible("csm_pp", l24) {
		t.Error("csm_pp infeasible at 24")
	}
	if !Feasible("tmk_mc_poll", l32) {
		t.Error("tmk infeasible at 32")
	}
}

func TestOptionsOverride(t *testing.T) {
	mc := interconnect.MCSecondGeneration()
	c := cache.Alpha21264
	cfg, err := Config("csm_poll", 2, 2, Options{MC: &mc, Cache: &c})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.MC.Latency != mc.Latency {
		t.Error("MC override ignored")
	}
	if cfg.Cache.SizeBytes != c.SizeBytes {
		t.Error("cache override ignored")
	}
	cfg, err = Config("csm_poll", 2, 2, Options{NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Cache != nil {
		t.Error("NoCache ignored")
	}
}
