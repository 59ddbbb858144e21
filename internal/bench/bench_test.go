package bench

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/runner"
	"repro/internal/variants"
)

// section executes one table's or figure's specs and renders it from the
// result set, the path cmd/dsmbench takes for each section.
func section(t *testing.T, w io.Writer, opts Options, specs func(Options) []runner.RunSpec, render func(io.Writer, Options, *runner.ResultSet) error) {
	t.Helper()
	rs, err := execute(specs(opts))
	if err != nil {
		t.Fatal(err)
	}
	if err := render(w, opts, rs); err != nil {
		t.Fatal(err)
	}
}

func TestCostsPrints(t *testing.T) {
	var buf bytes.Buffer
	Costs(&buf)
	for _, want := range []string{"5.2 us", "62 us", "30 MB/s", "362 us"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("costs output missing %q", want)
		}
	}
}

func TestTable2Small(t *testing.T) {
	var buf bytes.Buffer
	opts := Options{Size: apps.SizeSmall, Apps: []string{"SOR", "Water"}}
	section(t, &buf, opts, Table2Specs, Table2Render)
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
	section(t, &buf, opts, Fig5Specs, Fig5Render)
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
	section(t, &buf, opts, Fig5Specs, Fig5Render)
	if !strings.Contains(buf.String(), "-") {
		t.Error("csm_pp at 32 not marked infeasible")
	}
}

func TestTable3AndFig6Small(t *testing.T) {
	opts := Options{Size: apps.SizeSmall, Apps: []string{"Water"}}
	var buf bytes.Buffer
	section(t, &buf, opts, Table3Specs, Table3Render)
	if !strings.Contains(buf.String(), "Page transfers") {
		t.Errorf("table 3 output:\n%s", buf.String())
	}
	buf.Reset()
	section(t, &buf, opts, Fig6Specs, Fig6Render)
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
// read from the result set as Table1Render reads it.
func micro(t *testing.T, specs ...runner.RunSpec) []float64 {
	t.Helper()
	rs, err := execute(specs)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, len(specs))
	for i, s := range specs {
		if out[i], err = microCheck(rs, s); err != nil {
			t.Fatal(err)
		}
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
