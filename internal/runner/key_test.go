package runner

// Run-identity tests: a spec's key and its results record name the shape and
// size, plus one segment for each option that differs from the paper's
// platform, and both come from one canonical form.

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/cache"
	"repro/internal/cashmere"
	"repro/internal/interconnect"
	"repro/internal/sim"
	"repro/internal/treadmarks"
	"repro/internal/variants"
)

func TestPaperPlatformKeyIsBare(t *testing.T) {
	if got, want := smallSpec("csm_int", 1).Key(), "SOR|csm_int|1|0x0|small"; got != want {
		t.Errorf("paper-platform key = %s, want %s", got, want)
	}
}

// TestDefaultOptionsKeyAsBareSpec: every option, nil or set to the paper's
// value, keys as the bare spec, and Normalize clears the explicit defaults,
// so the spec that runs is the spec that is keyed.
func TestDefaultOptionsKeyAsBareSpec(t *testing.T) {
	mc, l1 := interconnect.MCFirstGeneration(), cache.Alpha21064A
	bare := smallSpec("csm_int", 1)
	for name, o := range map[string]variants.Options{
		"zero net":     {Net: &interconnect.Spec{}},
		"memchan net":  {Net: &interconnect.Spec{Kind: interconnect.MemoryChannel}},
		"first-gen MC": {MC: &mc},
		"21064A cache": {Cache: &l1},
		"all":          {MC: &mc, Net: &interconnect.Spec{Kind: interconnect.MemoryChannel}, Cache: &l1},
	} {
		s := bare
		s.Opts = o
		if s.Key() != bare.Key() {
			t.Errorf("%s: key %s, want the bare %s", name, s.Key(), bare.Key())
		}
		if n := s.Normalize().Opts; n != (variants.Options{}) {
			t.Errorf("%s: Normalize kept %+v", name, n)
		}
	}
}

// TestEachOptionAddsItsSegment: a non-default value adds exactly its own
// segment to the bare key, two different values key differently, and all
// segments together come in a fixed order.
func TestEachOptionAddsItsSegment(t *testing.T) {
	mc2, tuned := interconnect.MCSecondGeneration(), interconnect.MCSecondGeneration()
	tuned.Latency++
	big, wide := cache.Alpha21264, cache.Config{SizeBytes: 32 << 10, LineBytes: 64}
	bare := smallSpec("csm_poll", 4)
	for _, c := range []struct {
		segment string
		a, b    variants.Options
	}{
		{"|mc=", variants.Options{MC: &mc2}, variants.Options{MC: &tuned}},
		{"|net=", variants.Options{Net: &interconnect.Spec{Kind: interconnect.RDMA}}, variants.Options{Net: &interconnect.Spec{Kind: interconnect.Switched}}},
		{"|cache=", variants.Options{Cache: &big}, variants.Options{Cache: &wide}},
		{"|csm=", variants.Options{Cashmere: cashmere.Config{DisableExclusive: true}}, variants.Options{Cashmere: cashmere.Config{RoundRobinHomes: true}}},
		{"|tmk=", variants.Options{TreadMarks: treadmarks.Config{TestDropDiffRuns: 3}}, variants.Options{TreadMarks: treadmarks.Config{TestDropDiffRuns: 4}}},
		{"|sched=", variants.Options{Schedule: sim.Schedule{Seed: 1}}, variants.Options{Schedule: sim.Schedule{Seed: 2}}},
	} {
		a, b := bare, bare
		a.Opts, b.Opts = c.a, c.b
		for _, s := range []RunSpec{a, b} {
			rest, ok := strings.CutPrefix(s.Key(), bare.Key())
			if !ok || !strings.HasPrefix(rest, c.segment) || strings.Count(rest, "|") != 1 {
				t.Errorf("%s option: key %s, want %s plus one %s segment", c.segment, s.Key(), bare.Key(), c.segment)
			}
		}
		if a.Key() == b.Key() {
			t.Errorf("two different %s values share the key %s", c.segment, a.Key())
		}
	}
	all := bare
	all.Opts = variants.Options{MC: &mc2, Net: &interconnect.Spec{Kind: interconnect.RDMA}, Cache: &big,
		Cashmere: cashmere.Config{DummyDoubling: true}, TreadMarks: treadmarks.Config{TestDropDiffRuns: 1}, Schedule: sim.Schedule{Seed: 9}}
	key, last := all.Key(), -1
	for _, seg := range []string{"|mc=", "|net=rdma|", "|cache=", "|csm=", "|tmk=", "|sched="} {
		i := strings.Index(key, seg)
		if i <= last {
			t.Fatalf("segment %s out of order in %s", seg, key)
		}
		last = i
	}
}

// TestKeyMatchesJSONRecord: decoding a written record and re-keying its spec
// gives back the record's key, and a paper-platform record names no option.
func TestKeyMatchesJSONRecord(t *testing.T) {
	mc2, big := interconnect.MCSecondGeneration(), cache.Alpha21264
	base := RunSpec{App: "test:schedkey", Variant: "csm_poll", Nodes: 2, PPN: 1, Size: apps.SizeSmall}
	tmk := base
	tmk.Variant = "tmk_mc_poll"
	p := NewPlan()
	for _, o := range []variants.Options{
		{},
		{MC: &mc2},
		{Net: &interconnect.Spec{Kind: interconnect.Switched}},
		{Cache: &big},
		{Cashmere: cashmere.Config{RoundRobinHomes: true}},
		{Schedule: sim.Schedule{Seed: 4, FlipTies: true}},
	} {
		s := base
		s.Opts = o
		p.Add(s)
	}
	tmk.Opts.TreadMarks = treadmarks.Config{TestDropDiffRuns: 2}
	p.Add(tmk)
	rs, err := Execute(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rs.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	doc, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Results) != p.Len() {
		t.Fatalf("document holds %d records, want %d", len(doc.Results), p.Len())
	}
	for _, r := range doc.Results {
		if r.Error != "" {
			t.Errorf("%s: %s", r.Key, r.Error)
		}
		if got := r.Spec.key(); got != r.Key {
			t.Errorf("decoded spec re-keys as %s, record says %s", got, r.Key)
		}
	}
	if bare := jsonSpec(base); doc.Results[0].Spec != bare || bare.key() != "test:schedkey|csm_poll|2|2x1|small" {
		t.Errorf("paper-platform record spec %+v, want %+v", doc.Results[0].Spec, bare)
	}
}

func TestNonMCNetSpecChangesKey(t *testing.T) {
	base := smallSpec("csm_poll", 4)
	for _, kind := range []interconnect.Kind{interconnect.RDMA, interconnect.Switched} {
		s := base
		s.Opts.Net = &interconnect.Spec{Kind: kind}
		if got, want := s.Key(), base.Key()+"|net="+string(kind); got != want {
			t.Errorf("%s key = %s, want %s", kind, got, want)
		}
	}
}

// TestEqualKeysMeanEqualRuns: first-generation MC parameters beside an RDMA
// interconnect are the paper's default, not an override, so that spec keys
// and runs as the plain RDMA spec whichever of the two a plan adds first.
func TestEqualKeysMeanEqualRuns(t *testing.T) {
	mc := interconnect.MCFirstGeneration()
	rdma := RunSpec{App: "test:schedkey", Variant: "csm_poll", Nodes: 2, PPN: 1, Size: apps.SizeSmall,
		Opts: variants.Options{Net: &interconnect.Spec{Kind: interconnect.RDMA}}}
	withMC := rdma
	withMC.Opts.MC = &mc
	plain := rdma
	plain.Opts = variants.Options{}

	ResetCache()
	p := NewPlan()
	p.Add(withMC, rdma, plain)
	rs, err := Execute(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := rs.Get(rdma)
	if err != nil {
		t.Fatalf("rdma spec: %v", err)
	}
	got, err := rs.Get(withMC)
	if err != nil || got != want {
		t.Fatalf("rdma spec with first-generation MC params: %v, %v; want the rdma result", got, err)
	}
	if mcRes, err := rs.Get(plain); err != nil || mcRes.Time == want.Time {
		t.Fatalf("Memory Channel run: %v (time %d vs rdma %d); want a different simulation", err, mcRes.Time, want.Time)
	}
}

// TestDiskCacheExplicitMemoryChannelHits: a disk-cache entry written by a
// spec without Net is hit by the same spec with the Memory Channel spelled
// explicitly, while an RDMA run of the same app misses and caches separately.
func TestDiskCacheExplicitMemoryChannelHits(t *testing.T) {
	dir := t.TempDir()
	plain := smallSpec(variants.Sequential, 1)
	p := NewPlan()
	p.Add(plain)

	ResetCache()
	if _, err := Execute(p, Options{CacheDir: dir}); err != nil {
		t.Fatal(err)
	}
	if n := len(cacheFiles(t, dir)); n != 1 {
		t.Fatalf("cache holds %d files, want 1", n)
	}

	// New process, same disk cache, Memory Channel spelled explicitly.
	ResetCache()
	mcSpec := plain
	mcSpec.Opts.Net = &interconnect.Spec{Kind: interconnect.MemoryChannel}
	execBefore, hitsBefore := Executions(), DiskHits()
	p2 := NewPlan()
	p2.Add(mcSpec)
	if _, err := Execute(p2, Options{CacheDir: dir}); err != nil {
		t.Fatal(err)
	}
	if got := Executions() - execBefore; got != 0 {
		t.Fatalf("explicit-MC run executed %d simulations, want 0 (disk hit)", got)
	}
	if got := DiskHits() - hitsBefore; got != 1 {
		t.Fatalf("explicit-MC run reported %d disk hits, want 1", got)
	}

	// An RDMA run must not be served from the Memory Channel entry.
	ResetCache()
	rdmaSpec := plain
	rdmaSpec.Opts.Net = &interconnect.Spec{Kind: interconnect.RDMA}
	execBefore = Executions()
	p3 := NewPlan()
	p3.Add(rdmaSpec)
	if _, err := Execute(p3, Options{CacheDir: dir}); err != nil {
		t.Fatal(err)
	}
	if got := Executions() - execBefore; got != 1 {
		t.Fatalf("rdma run executed %d simulations, want 1 (must not hit the MC entry)", got)
	}
	if n := len(cacheFiles(t, dir)); n != 2 {
		t.Fatalf("cache holds %d files after the rdma run, want 2", n)
	}
}

// TestInterconnectInJSON: results JSON names the interconnect for non-MC
// runs and omits the field for Memory Channel runs.
func TestInterconnectInJSON(t *testing.T) {
	ResetCache()
	mc := smallSpec(variants.Sequential, 1)
	rdma := RunSpec{App: "SOR", Variant: "csm_poll", Procs: 2, Size: apps.SizeSmall,
		Opts: variants.Options{Net: &interconnect.Spec{Kind: interconnect.RDMA}}}
	p := NewPlan()
	p.Add(mc, rdma)
	rs, err := Execute(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rs.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	doc, err := ReadJSON(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range doc.Results {
		want := interconnect.Kind("")
		if strings.HasSuffix(r.Key, "|net=rdma") {
			want = interconnect.RDMA
		}
		if r.Spec.Interconnect != want {
			t.Errorf("%s: interconnect field %q, want %q", r.Key, r.Spec.Interconnect, want)
		}
	}
	if n := strings.Count(buf.String(), `"interconnect": "rdma"`); n != 1 {
		t.Errorf("serialized document names the rdma interconnect %d times, want 1", n)
	}
}
