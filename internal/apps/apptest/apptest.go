// Package apptest provides the shared cross-protocol validation harness for
// the benchmark applications: every application must produce the same answer
// under the sequential baseline, Cashmere, and TreadMarks.
package apptest

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/variants"
)

// RunVariant runs the program under the named variant on the given cluster
// shape and returns the result.
func RunVariant(t *testing.T, mk func() *core.Program, variant string, nodes, ppn int) *core.Result {
	t.Helper()
	cfg, err := variants.Config(variant, nodes, ppn, variants.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(cfg, mk())
	if err != nil {
		t.Fatalf("%s: %v", variant, err)
	}
	return res
}

// CrossCheck runs the program sequentially and under both polling protocol
// variants on nodes x ppn processors, and requires every reported check
// value to agree within relTol (0 = exact).
func CrossCheck(t *testing.T, mk func() *core.Program, nodes, ppn int, relTol float64) map[string]*core.Result {
	t.Helper()
	results := map[string]*core.Result{
		"sequential":  RunVariant(t, mk, "sequential", 1, 1),
		"csm_poll":    RunVariant(t, mk, "csm_poll", nodes, ppn),
		"tmk_mc_poll": RunVariant(t, mk, "tmk_mc_poll", nodes, ppn),
	}
	base := results["sequential"].Checks
	if len(base) == 0 {
		t.Fatal("program reported no checks")
	}
	for name, res := range results {
		checksAgree(t, name, res.Checks, base, relTol)
	}
	return results
}

// checksAgree requires every check in want to appear in got within relTol
// (0 = exact).
func checksAgree(t *testing.T, label string, got, want map[string]float64, relTol float64) {
	t.Helper()
	if why := core.ChecksDisagree(got, want, relTol); why != "" {
		t.Errorf("%s: %s", label, why)
	}
}

// PerturbCheck runs the program under the named variant on nodes x ppn
// processors once with the canonical schedule and once per seed with a
// perturbed schedule, and requires every reported check to agree within
// relTol (0 = exact). The benchmark applications are data-race-free, so a
// legal schedule perturbation may move events in virtual time but must not
// change any computed answer — any drift beyond the app's declared rounding
// tolerance is a protocol bug flushed out by the altered timing.
func PerturbCheck(t *testing.T, mk func() *core.Program, variant string, nodes, ppn int, relTol float64, seeds ...uint64) {
	t.Helper()
	base := RunVariant(t, mk, variant, nodes, ppn)
	if len(base.Checks) == 0 {
		t.Fatal("program reported no checks")
	}
	for _, seed := range seeds {
		cfg, err := variants.Config(variant, nodes, ppn, variants.Options{
			Schedule: sim.Schedule{Seed: seed, CostJitter: 0.5, FlipTies: true, Stagger: sim.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Run(cfg, mk())
		if err != nil {
			t.Fatalf("%s schedule seed %d: %v", variant, seed, err)
		}
		checksAgree(t, fmt.Sprintf("%s/seed%d", variant, seed), res.Checks, base.Checks, relTol)
		if len(res.Checks) != len(base.Checks) {
			t.Errorf("%s/seed%d: reported %d checks, canonical run reported %d",
				variant, seed, len(res.Checks), len(base.Checks))
		}
	}
}
