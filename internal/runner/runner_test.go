package runner

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/interconnect"
	"repro/internal/sim"
	"repro/internal/treadmarks"
	"repro/internal/variants"
	"repro/internal/vm"
)

func smallSpec(variant string, procs int) RunSpec {
	return RunSpec{App: "SOR", Variant: variant, Procs: procs, Size: apps.SizeSmall}
}

func TestPlanDeduplicates(t *testing.T) {
	p := NewPlan()
	p.Add(smallSpec("csm_poll", 4), smallSpec("csm_poll", 4))
	if p.Len() != 1 {
		t.Fatalf("duplicate spec not deduplicated: plan has %d specs", p.Len())
	}

	// nil options and explicit defaults describe the same simulation.
	mc := interconnect.MCFirstGeneration()
	withDefault := smallSpec("csm_poll", 4)
	withDefault.Opts.MC = &mc
	p.Add(withDefault)
	if p.Len() != 1 {
		t.Fatalf("explicit-default MC params keyed differently from nil")
	}

	// Sequential runs normalize to one processor regardless of Procs.
	p2 := NewPlan()
	p2.Add(smallSpec(variants.Sequential, 1), smallSpec(variants.Sequential, 8))
	if p2.Len() != 1 {
		t.Fatalf("sequential specs with different Procs not normalized: %d specs", p2.Len())
	}
}

func TestKeyDistinguishesOptions(t *testing.T) {
	base := smallSpec("csm_poll", 4)
	mc2 := interconnect.MCSecondGeneration()
	changed := base
	changed.Opts.MC = &mc2
	if base.Key() == changed.Key() {
		t.Fatal("different MC params produced the same key")
	}
	bigger := base
	bigger.Procs = 8
	if base.Key() == bigger.Key() {
		t.Fatal("different processor counts produced the same key")
	}
}

// TestTreadMarksOptionsKeyed: non-zero TreadMarks options are part of a
// spec's identity, so a run with the injected diff-loss fault armed never
// shares a plan slot, a memo entry or a disk-cache file with the healthy run.
// Zero options add nothing to the key (TestPaperPlatformKeyIsBare).
func TestTreadMarksOptionsKeyed(t *testing.T) {
	healthy := smallSpec("tmk_mc_poll", 8)
	armed := healthy
	armed.Opts.TreadMarks = treadmarks.Config{TestDropDiffRuns: 3}
	if healthy.Key() == armed.Key() {
		t.Fatalf("armed and healthy specs share the key %s", healthy.Key())
	}
	if strings.Contains(healthy.Key(), "|tmk=") {
		t.Errorf("zero TreadMarks options appear in the key: %s", healthy.Key())
	}
	p := NewPlan()
	p.Add(healthy, armed)
	if p.Len() != 2 {
		t.Fatalf("plan kept %d of the 2 specs", p.Len())
	}
	rs, err := Execute(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		spec RunSpec
		lost bool
	}{{healthy, false}, {armed, true}} {
		res, err := rs.Get(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, lost := res.Counters["test_diff_runs_lost"]; lost != c.lost {
			t.Errorf("%s: test_diff_runs_lost present = %v, want %v", c.spec.Key(), lost, c.lost)
		}
	}
	for _, r := range rs.Document().Results {
		if strings.Contains(r.Key, "|tmk=") != (r.Spec.TreadMarks != nil) {
			t.Errorf("%s: JSON treadmarks field %+v", r.Key, r.Spec.TreadMarks)
		}
	}
}

// TestUnknownSizeIsAnError: a size other than small or default fails its
// spec with an error naming the spec, instead of running the default
// dataset. An empty size still normalizes to default.
func TestUnknownSizeIsAnError(t *testing.T) {
	bad := RunSpec{App: "SOR", Variant: variants.Sequential, Size: "smal"}
	p := NewPlan()
	p.Add(bad)
	rs, err := Execute(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Get(bad); err == nil || !strings.Contains(err.Error(), `SOR/sequential/p1: unknown size "smal"`) {
		t.Fatalf("size smal: err = %v, want an error naming the spec and the size", err)
	}
	if got := (RunSpec{App: "SOR", Variant: variants.Sequential}).Normalize().Size; got != apps.SizeDefault {
		t.Fatalf("empty size normalizes to %q, want %q", got, apps.SizeDefault)
	}
}

// TestNegativeShapeIsAnError: a negative processor, node or per-node count
// fails its spec instead of running a substituted shape, while a zero PPN
// beside Nodes still means one processor per node.
func TestNegativeShapeIsAnError(t *testing.T) {
	bad := []RunSpec{
		{App: "SOR", Variant: "csm_poll", Procs: -3, Size: apps.SizeSmall},
		{App: "SOR", Variant: "csm_poll", Nodes: 2, PPN: -1, Size: apps.SizeSmall},
		{App: "SOR", Variant: "csm_poll", Procs: 4, Nodes: -2, PPN: 1, Size: apps.SizeSmall},
	}
	p := NewPlan()
	p.Add(bad...)
	rs, err := Execute(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range bad {
		if _, err := rs.Get(s); err == nil || !strings.Contains(err.Error(), "SOR/csm_poll/p") || !strings.Contains(err.Error(), "negative shape") {
			t.Errorf("%+v: err = %v, want a negative-shape error naming the spec", s, err)
		}
	}
	zero := RunSpec{App: "SOR", Variant: "csm_poll", Nodes: 2, Size: apps.SizeSmall}
	one := zero
	one.PPN = 1
	if zero.Key() != one.Key() {
		t.Errorf("PPN 0 keys as %s, want the PPN 1 key %s", zero.Key(), one.Key())
	}
}

// TestCashmereAbove64IsAnError: Cashmere's sharing sets are 64-bit masks, so
// a larger Cashmere spec fails with an error naming its key before the engine
// starts, not with a recovered setup panic. TreadMarks has no such limit.
func TestCashmereAbove64IsAnError(t *testing.T) {
	csm := RunSpec{App: "SOR", Variant: "csm_poll", Nodes: 65, PPN: 1, Size: apps.SizeSmall}
	tmk := RunSpec{App: "SOR", Variant: "tmk_mc_poll", Nodes: 66, PPN: 1, Size: apps.SizeSmall}
	p := NewPlan()
	p.Add(csm, tmk)
	rs, err := Execute(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = rs.Get(csm)
	if err == nil || !strings.Contains(err.Error(), csm.Key()) || strings.Contains(err.Error(), "panic") {
		t.Errorf("csm_poll on 65 processors: err = %v, want an error naming the spec key and no panic", err)
	}
	if _, err := rs.Get(tmk); err != nil {
		t.Errorf("tmk_mc_poll on 66 processors: %v", err)
	}
}

func TestExecuteCachesAcrossCalls(t *testing.T) {
	ResetCache()
	p := NewPlan()
	p.Add(smallSpec(variants.Sequential, 1), smallSpec("csm_poll", 2))
	before := Executions()
	rs, err := Execute(p, Options{Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := Executions() - before; got != 2 {
		t.Fatalf("first execution ran %d simulations, want 2", got)
	}
	// Re-executing the same plan must be served entirely from cache.
	rs2, err := Execute(p, Options{Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := Executions() - before; got != 2 {
		t.Fatalf("cached re-execution ran %d extra simulations", got-2)
	}
	for _, s := range p.Specs() {
		r1, err1 := rs.Get(s)
		r2, err2 := rs2.Get(s)
		if err1 != nil || err2 != nil {
			t.Fatalf("get: %v %v", err1, err2)
		}
		if r1.Time != r2.Time || !reflect.DeepEqual(r1.Total, r2.Total) {
			t.Fatalf("cached result differs for %s", s.Key())
		}
	}
}

func TestInfeasibleSpec(t *testing.T) {
	ResetCache()
	p := NewPlan()
	p.Add(smallSpec("csm_pp", 32))
	before := Executions()
	rs, err := Execute(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Get(smallSpec("csm_pp", 32)); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("csm_pp at 32 procs: got %v, want ErrInfeasible", err)
	}
	if got := Executions() - before; got != 0 {
		t.Fatalf("infeasible spec counted as %d executions", got)
	}
}

// TestExecuteParallelMatchesSerial runs the same plan on one worker and on
// eight: concurrent runs share no state (each has its own engine, network
// and page-buffer stack), so every result must be identical. CI repeats it
// under the race detector at several GOMAXPROCS settings.
func TestExecuteParallelMatchesSerial(t *testing.T) {
	p := NewPlan()
	for _, v := range []string{"csm_poll", "tmk_mc_poll", "csm_int", "tmk_udp_int"} {
		p.Add(smallSpec(v, 2), smallSpec(v, 4), smallSpec(v, 8))
	}
	p.Add(smallSpec(variants.Sequential, 1))

	ResetCache()
	serial, err := Execute(p, Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	ResetCache()
	parallel, err := Execute(p, Options{Jobs: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range p.Specs() {
		r1, err1 := serial.Get(s)
		r2, err2 := parallel.Get(s)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: %v %v", s.Key(), err1, err2)
		}
		if r1.Time != r2.Time {
			t.Errorf("%s: Jobs=1 time %d != Jobs=8 time %d", s.Key(), r1.Time, r2.Time)
		}
		if !reflect.DeepEqual(r1.Total, r2.Total) {
			t.Errorf("%s: aggregate stats differ between Jobs=1 and Jobs=8", s.Key())
		}
		if !reflect.DeepEqual(r1.PerProc, r2.PerProc) {
			t.Errorf("%s: per-processor stats differ between Jobs=1 and Jobs=8", s.Key())
		}
		if !reflect.DeepEqual(r1.Traffic, r2.Traffic) {
			t.Errorf("%s: traffic differs between Jobs=1 and Jobs=8", s.Key())
		}
		if !reflect.DeepEqual(r1.Checks, r2.Checks) {
			t.Errorf("%s: checks differ between Jobs=1 and Jobs=8: %v vs %v", s.Key(), r1.Checks, r2.Checks)
		}
	}
}

func TestProgress(t *testing.T) {
	ResetCache()
	p := NewPlan()
	p.Add(smallSpec(variants.Sequential, 1), smallSpec("csm_poll", 2), smallSpec("csm_pp", 32))
	var calls, last, total int
	_, err := Execute(p, Options{Jobs: 4, OnProgress: func(done, tot int, _ RunSpec, _ RunInfo) {
		calls++
		last, total = done, tot
	}})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 || last != 3 || total != 3 {
		t.Fatalf("progress: %d calls, last %d/%d, want 3 calls reaching 3/3", calls, last, total)
	}
}

func TestRegisteredProgram(t *testing.T) {
	RegisterProgram("test:noop", func(apps.Size) *core.Program {
		return &core.Program{
			Name:        "test-noop",
			SharedBytes: vm.PageSize,
			Body: func(p *core.Proc) {
				p.Compute(5 * sim.Microsecond)
				p.Finish()
				if p.Rank() == 0 {
					p.ReportCheck("ok", 1)
				}
			},
		}
	})
	p := NewPlan()
	spec := RunSpec{App: "test:noop", Variant: "csm_poll", Procs: 2, Size: apps.SizeSmall}
	p.Add(spec)
	rs, err := Execute(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rs.Get(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Checks["ok"] != 1 || res.Time <= 0 {
		t.Fatalf("registered program result: checks=%v time=%d", res.Checks, res.Time)
	}
}

func TestExplicitShape(t *testing.T) {
	spec := RunSpec{App: "SOR", Variant: "csm_poll", Nodes: 3, PPN: 2, Size: apps.SizeSmall}
	if n := spec.Normalize(); n.Procs != 6 {
		t.Fatalf("Normalize with explicit shape: procs %d, want 6", n.Procs)
	}
	p := NewPlan()
	p.Add(spec)
	rs, err := Execute(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rs.Get(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Procs != 6 {
		t.Fatalf("explicit 3x2 shape ran %d procs, want 6", res.Procs)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	p := NewPlan()
	p.Add(smallSpec(variants.Sequential, 1), smallSpec("csm_poll", 2), smallSpec("csm_pp", 32))
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
	if doc.Schema != SchemaVersion {
		t.Fatalf("schema %q", doc.Schema)
	}
	if len(doc.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(doc.Results))
	}
	var infeasible, withResult int
	for _, r := range doc.Results {
		if r.Infeasible {
			infeasible++
			continue
		}
		if r.Result == nil {
			t.Fatalf("feasible spec %s has no result", r.Key)
		}
		if r.Result.Time <= 0 {
			t.Fatalf("spec %s has non-positive time", r.Key)
		}
		withResult++
	}
	if infeasible != 1 || withResult != 2 {
		t.Fatalf("infeasible=%d withResult=%d, want 1 and 2", infeasible, withResult)
	}

	// Unknown schema versions are rejected.
	if _, err := ReadJSON(bytes.NewReader([]byte(`{"schema":"bogus/v9","results":[]}`))); err == nil {
		t.Fatal("bogus schema accepted")
	}
}
