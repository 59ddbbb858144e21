package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/variants"
)

// TestOracleLine: agreement within the registry tolerance prints "ok"; a
// check outside it names the check, the run's value and the oracle's.
func TestOracleLine(t *testing.T) {
	entry := apps.Entry{CheckTolerance: 1e-6}
	seq := &core.Result{Checks: map[string]float64{"sum": 10}}
	for _, c := range []struct {
		got  float64
		want string
	}{
		{10 + 1e-9, "oracle: ok"},
		{11, `oracle: MISMATCH check "sum" = 11, oracle 10 (tol 1e-06)`},
	} {
		if line := oracleLine(entry, &core.Result{Checks: map[string]float64{"sum": c.got}}, seq); line != c.want {
			t.Errorf("sum=%v: %q, want %q", c.got, line, c.want)
		}
	}
}

// TestGoldenOutput pins dsmrun's printed report byte for byte: the detailed
// single-variant report of dsmrun -app SOR -size small -procs 8 -variant
// csm_poll, and the side-by-side comparison of -variant csm_poll,tmk_mc_poll.
// scripts/repin.sh regenerates both.
func TestGoldenOutput(t *testing.T) {
	for _, c := range []struct{ variant, golden string }{
		{"csm_poll", "detailed.txt"},
		{"csm_poll,tmk_mc_poll", "comparison.txt"},
	} {
		var buf bytes.Buffer
		if err := run(&buf, "SOR", strings.Split(c.variant, ","), 8, 1, 1, apps.SizeSmall, 0, variants.Options{}); err != nil {
			t.Fatalf("%s: %v", c.variant, err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", c.golden))
		if err != nil {
			t.Fatal(err)
		}
		if got := buf.String(); got != string(want) {
			t.Errorf("-variant %s differs from %s:\n got:\n%s\n want:\n%s", c.variant, c.golden, got, want)
		}
	}
}

// TestUnknownSizeRejected: a misspelled -size is an error before any
// simulation runs, not a silent run of the default dataset.
func TestUnknownSizeRejected(t *testing.T) {
	before := runner.Executions()
	var buf bytes.Buffer
	err := run(&buf, "SOR", []string{variants.Sequential}, 0, 1, 1, apps.Size("smal"), 0, variants.Options{})
	if err == nil || !strings.Contains(err.Error(), `"smal"`) {
		t.Fatalf("-size smal: err = %v, want an error naming the size", err)
	}
	if n := runner.Executions() - before; n != 0 || buf.Len() != 0 {
		t.Fatalf("-size smal ran %d simulations and printed %d bytes, want none", n, buf.Len())
	}
}

// TestNegativeShapeRejected: a negative -procs, -nodes or -ppn is an error
// before any simulation runs, not a silent run of some other shape (-procs -3
// used to run 1x1, -nodes 2 -ppn -1 ran 2x1).
func TestNegativeShapeRejected(t *testing.T) {
	for _, shape := range [][3]int{{-3, 1, 1}, {0, 2, -1}, {0, -2, 1}} {
		before := runner.Executions()
		var buf bytes.Buffer
		err := run(&buf, "SOR", []string{"csm_poll"}, shape[0], shape[1], shape[2], apps.SizeSmall, 0, variants.Options{})
		if err == nil || !strings.Contains(err.Error(), "negative") {
			t.Errorf("procs, nodes, ppn %v: err = %v, want a negative-shape error", shape, err)
		}
		if n := runner.Executions() - before; n != 0 || buf.Len() != 0 {
			t.Errorf("procs, nodes, ppn %v ran %d simulations and printed %d bytes, want none", shape, n, buf.Len())
		}
	}
}
