package main

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
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
