package bench

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/interconnect"
	"repro/internal/msg"
	"repro/internal/runner"
	"repro/internal/variants"
)

// plan is the combined, deduplicated plan of the given sections, the plan
// cmd/dsmbench builds from the sections it draws.
func plan(opts Options, secs ...Section) *runner.Plan {
	p := runner.NewPlan()
	for _, s := range secs {
		p.Add(s.Specs(opts)...)
	}
	return p
}

// render writes the given sections, in order, from one result set.
func render(w io.Writer, opts Options, rs *runner.ResultSet, secs ...Section) error {
	for _, s := range secs {
		if err := s.Render(w, opts, rs); err != nil {
			return err
		}
	}
	return nil
}

// run plans, executes and renders the given sections, the path cmd/dsmbench
// takes, and returns the result set (nil if the sections plan no run).
func run(t *testing.T, w io.Writer, opts Options, secs ...Section) *runner.ResultSet {
	t.Helper()
	var rs *runner.ResultSet
	if p := plan(opts, secs...); p.Len() > 0 {
		var err error
		if rs, err = runner.Execute(p, runner.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := render(w, opts, rs, secs...); err != nil {
		t.Fatal(err)
	}
	return rs
}

// TestCostTableCoversModel: the cost table has a row for every field of the
// three cost structs (msg.Params' Mode is a mechanism, not a cost) and no
// other, and every row carries a provenance tag and the paper's wording, so a
// new constant cannot land without saying where its number came from. A map
// cannot hold two rows for one field.
func TestCostTableCoversModel(t *testing.T) {
	fields := map[string]bool{}
	for prefix, typ := range map[string]reflect.Type{
		"":     reflect.TypeOf(core.CostModel{}),
		"MC.":  reflect.TypeOf(interconnect.MCParams{}),
		"msg.": reflect.TypeOf(msg.Params{}),
	} {
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.Type != reflect.TypeOf(msg.Mode(0)) {
				fields[prefix+f.Name] = true
			}
		}
	}
	var buf bytes.Buffer
	run(t, &buf, Options{}, costs)
	for name := range fields {
		if _, ok := costRows[name]; !ok {
			t.Errorf("%s has no row in the cost table", name)
		}
	}
	for name, r := range costRows {
		if !fields[name] {
			t.Errorf("row %s names no field of a cost struct", name)
		}
		switch r.prov {
		case "measured", "reconstructed", "calibrated", "assumed":
		default:
			t.Errorf("row %s: provenance %q is not one of the four tags", name, r.prov)
		}
		if r.paper == "" {
			t.Errorf("row %s has no paper wording (\"—\" where the paper gives none)", name)
		}
		if !strings.Contains(buf.String(), "\n  "+name+" ") {
			t.Errorf("Costs printed no row for %s:\n%s", name, buf.String())
		}
	}
}

// TestSectionsRenderFromOwnPlan: every section renders from a plan of its own
// Specs alone, byte-identical to its rendering from the combined plan of all
// sections. A renderer that read a run only another section plans would pass
// the goldens, whose plan is combined, and panic here.
func TestSectionsRenderFromOwnPlan(t *testing.T) {
	opts := Options{Size: apps.SizeSmall, Apps: []string{"SOR"}, Procs: []int{1, 4}}
	combined, err := runner.Execute(plan(opts, Sections...), runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range Sections {
		t.Run(s.Name, func(t *testing.T) {
			var own, all bytes.Buffer
			run(t, &own, opts, s)
			if err := s.Render(&all, opts, combined); err != nil {
				t.Fatal(err)
			}
			if own.Len() == 0 {
				t.Fatal("rendered nothing")
			}
			if !bytes.Equal(own.Bytes(), all.Bytes()) {
				t.Errorf("own plan renders differently from the combined plan:\n%s", diffHint(own.Bytes(), all.Bytes()))
			}
		})
	}
}

// TestFailedRunPrintsNothing: a section whose result set lacks one of its runs
// returns an error naming that run's key and writes nothing, not the part of
// the table before the missing cell.
func TestFailedRunPrintsNothing(t *testing.T) {
	opts := Options{Size: apps.SizeSmall, Apps: []string{"SOR"}, Procs: []int{1, 4}, Variants: []string{"csm_poll"}}
	specs := fig5.Specs(opts)
	missing := specs[len(specs)-1]
	p := runner.NewPlan()
	p.Add(specs[:len(specs)-1]...)
	rs, err := runner.Execute(p, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err = fig5.Render(&buf, opts, rs)
	if err == nil || !strings.Contains(err.Error(), missing.Key()) {
		t.Errorf("Render error %v does not name the missing run %s", err, missing.Key())
	}
	if buf.Len() != 0 {
		t.Errorf("Render wrote %d bytes before failing:\n%s", buf.Len(), buf.String())
	}
}

func TestTable2Small(t *testing.T) {
	var buf bytes.Buffer
	opts := Options{Size: apps.SizeSmall, Apps: []string{"SOR", "Water"}}
	run(t, &buf, opts, table2)
	out := buf.String()
	for _, want := range []string{"SOR", "Water", "Problem Size"} {
		if !strings.Contains(out, want) {
			t.Errorf("table 2 missing %q:\n%s", want, out)
		}
	}
}

func TestFig5SmallSubset(t *testing.T) {
	var buf bytes.Buffer
	opts := Options{
		Size:     apps.SizeSmall,
		Apps:     []string{"SOR"},
		Procs:    []int{1, 4},
		Variants: []string{"csm_poll", "tmk_mc_poll"},
	}
	run(t, &buf, opts, fig5)
	if !strings.Contains(buf.String(), "SOR speedups") {
		t.Errorf("fig5 output:\n%s", buf.String())
	}
}

func TestFig5InfeasibleMarked(t *testing.T) {
	var buf bytes.Buffer
	opts := Options{
		Size:     apps.SizeSmall,
		Apps:     []string{"Water"},
		Procs:    []int{32},
		Variants: []string{"csm_pp"},
	}
	run(t, &buf, opts, fig5)
	if !strings.Contains(buf.String(), "-") {
		t.Error("csm_pp at 32 not marked infeasible")
	}
}

func TestTable3AndFig6Small(t *testing.T) {
	opts := Options{Size: apps.SizeSmall, Apps: []string{"Water"}}
	var buf bytes.Buffer
	run(t, &buf, opts, table3)
	if !strings.Contains(buf.String(), "Page transfers") {
		t.Errorf("table 3 output:\n%s", buf.String())
	}
	buf.Reset()
	run(t, &buf, opts, fig6)
	out := buf.String()
	for _, want := range []string{"Water", "CSM", "TMK", "Comm&Wait"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig6 missing %q:\n%s", want, out)
		}
	}
}

func TestTable3ProcsRule(t *testing.T) {
	if table3Procs("Barnes") != 16 || table3Procs("SOR") != 32 {
		t.Error("Table 3 processor rule wrong")
	}
}

// micro executes microbenchmark specs and returns each one's measurement,
// read from the result set as Table 1 reads it.
func micro(t *testing.T, specs ...runner.RunSpec) []float64 {
	t.Helper()
	p := runner.NewPlan()
	p.Add(specs...)
	rs, err := runner.Execute(p, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, len(specs))
	for i, s := range specs {
		res, err := rs.Get(s)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = res.Checks["us"]
	}
	return out
}

func TestMicrobenchmarksRun(t *testing.T) {
	vo := variants.Options{}
	for i, v := range micro(t,
		microSpec(microLock, "csm_poll", 2, vo),
		microSpec(microBarrier, "tmk_mc_poll", 2, vo),
		microSpec(microPage, "csm_poll", 2, vo)) {
		if v <= 0 {
			t.Errorf("microbenchmark %d measured %v us", i, v)
		}
	}
}

// TestTable1Shape checks the paper's qualitative Table 1 relationships.
func TestTable1Shape(t *testing.T) {
	vo := variants.Options{}
	us := micro(t,
		microSpec(microLock, "csm_poll", 2, vo),
		microSpec(microLock, "tmk_mc_int", 2, vo),
		microSpec(microLock, "tmk_mc_poll", 2, vo))
	csmLock, tmkIntLock, tmkPollLock := us[0], us[1], us[2]
	// Cashmere locks are MC-word operations (~tens of us); interrupt-based
	// TreadMarks locks pay ~1 ms signal latency; polling TMK locks are
	// message round trips (tens of us).
	if csmLock > 60 {
		t.Errorf("csm lock acquire %v us, want tens of us", csmLock)
	}
	if tmkIntLock < 900 {
		t.Errorf("tmk_mc_int lock acquire %v us, want ~1 ms", tmkIntLock)
	}
	if tmkPollLock > 200 {
		t.Errorf("tmk_mc_poll lock acquire %v us, want well below interrupts", tmkPollLock)
	}
}

// TestPaperSpecsKeyBare: every run of the paper's tables and figures is on
// the paper's platform, so its key names the shape and size and no model
// value (MC, cost, cache, protocol or schedule).
func TestPaperSpecsKeyBare(t *testing.T) {
	for _, s := range plan(Options{Size: apps.SizeSmall}, table1, table2, fig5, fig6, table3).Specs() {
		if n := strings.Count(s.Key(), "|"); n != 4 {
			t.Errorf("paper-platform key %s has %d segments, want 5", s.Key(), n+1)
		}
	}
}
