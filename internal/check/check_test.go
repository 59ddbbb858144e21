package check

import (
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/apps/fuzz"
	"repro/internal/sim"
	"repro/internal/variants"
)

// perturbed is a sweep of the given schedule count at dsmcheck's default
// jitter and stagger.
func perturbed(schedules int) Params {
	return Params{Schedules: schedules, Jitter: 0.75, Stagger: 3 * sim.Millisecond}
}

// TestLitmusAcceptance is the tentpole acceptance bar: across at least 200
// perturbed schedules per (test, protocol), every forbidden outcome is
// absent and every permitted-with-sync must-observe outcome appears at
// least once.
func TestLitmusAcceptance(t *testing.T) {
	report, err := RunLitmus(perturbed(200))
	if err != nil {
		t.Fatal(err)
	}
	if want := 8 * len(variants.Names) * 200; report.Runs != want {
		t.Fatalf("ran %d simulations, want %d", report.Runs, want)
	}
	for _, row := range report.Rows {
		for _, v := range row.Violations {
			t.Errorf("%s/%s: %s", row.Test, row.Variant, v)
		}
		for _, m := range row.Missing {
			t.Errorf("%s/%s: %s", row.Test, row.Variant, m)
		}
	}
	if report.FirstViolation != nil {
		t.Errorf("violation repro recorded for a healthy sweep: %s", report.FirstViolation)
	}
}

// TestLitmusDeterministicReport: the sweep aggregation must not depend on
// worker interleaving — same parameters, same report, including with a
// single-threaded pool.
func TestLitmusDeterministicReport(t *testing.T) {
	p := perturbed(12)
	p.Jobs = 4
	a, err := RunLitmus(p)
	if err != nil {
		t.Fatal(err)
	}
	p.Jobs = 1
	b, err := RunLitmus(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("reports differ across worker counts:\n%+v\nvs\n%+v", a, b)
	}
}

// TestSuiteShape: the suite is the advertised eight tests — each of the four
// shapes in a synchronized and an unsynchronized variant.
func TestSuiteShape(t *testing.T) {
	suite := Suite()
	if len(suite) != 8 {
		t.Fatalf("suite has %d tests, want 8", len(suite))
	}
	seen := map[string]bool{}
	for _, test := range suite {
		if seen[test.Name] {
			t.Errorf("duplicate test name %q", test.Name)
		}
		seen[test.Name] = true
		if test.Roles != len(test.Registers) && test.Roles != 2 {
			t.Errorf("%s: %d roles with %d registers", test.Name, test.Roles, len(test.Registers))
		}
		if !test.Sync && len(test.MustObserve) > 0 {
			t.Errorf("%s: racy variant with must-observe outcomes (protocol-dependent visibility makes them unreliable)", test.Name)
		}
		if test.Sync && len(test.MustObserve) == 0 {
			t.Errorf("%s: synchronized variant without must-observe outcomes proves nothing about schedule diversity", test.Name)
		}
		for _, must := range test.MustObserve {
			if test.Forbidden(must) {
				t.Errorf("%s: must-observe outcome %s is also forbidden", test.Name, test.Format(must))
			}
		}
	}
}

// TestZeroJitterAndStaggerKept: a zero Jitter or Stagger asks for a schedule
// without jitter or without stagger; neither is replaced by a default.
func TestZeroJitterAndStaggerKept(t *testing.T) {
	s := Params{Schedules: 1}.withDefaults().schedule(0)
	if s.CostJitter != 0 || s.Stagger != 0 {
		t.Errorf("zero Jitter and Stagger gave CostJitter %v, Stagger %v; want 0 and 0", s.CostJitter, s.Stagger)
	}
	if s := perturbed(1).withDefaults().schedule(0); s.CostJitter != 0.75 || s.Stagger != 3*sim.Millisecond {
		t.Errorf("Jitter 0.75 and Stagger 3ms gave CostJitter %v, Stagger %v", s.CostJitter, s.Stagger)
	}
}

// TestDifferentialClean: the real protocols pass the differential checker —
// every corpus program, every schedule, oracle-exact results.
func TestDifferentialClean(t *testing.T) {
	report, err := RunDifferential(perturbed(12))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range report.Failures {
		t.Errorf("%s on %s %+v schedule seed %d: %s", f.Variant, f.Shape, f.Fuzz, f.Schedule.Seed, f.Reason)
	}
	// Every corpus config x every variant x (2 canonical + 12 perturbed).
	if want := len(fuzz.Corpus()) * len(variants.Names) * 14; report.Runs != want {
		t.Errorf("ran %d simulations, want %d", report.Runs, want)
	}
}

// TestInjectedBugCaughtAndShrunk is the self-test acceptance bar: with the
// TreadMarks diff-loss bug armed, the differential checker must fail and the
// shrinker must reduce the failure to at most 2 rounds on at most 2
// processors.
func TestInjectedBugCaughtAndShrunk(t *testing.T) {
	p := perturbed(8)
	p.Variants = []string{"tmk_mc_poll"}
	p.InjectDropDiffRuns = 3
	report, err := RunDifferential(p)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Failed() {
		t.Fatalf("injected diff-loss bug survived %d differential runs undetected", report.Runs)
	}
	min, spent, err := Shrink(report.Failures[0].Repro(3), 0)
	if err != nil {
		t.Fatal(err)
	}
	if min.Fuzz.Rounds > 2 {
		t.Errorf("shrunk repro still has %d rounds, want <= 2", min.Fuzz.Rounds)
	}
	if procs := min.Nodes * min.PPN; procs > 2 {
		t.Errorf("shrunk repro still uses %d processors, want <= 2", procs)
	}
	if min.Reason == "" {
		t.Error("shrunk repro lost its failure reason")
	}
	t.Logf("shrunk to %s in %d replays: %s", min, spent, min.Reason)

	// The minimized repro must reproduce deterministically...
	reason, err := Replay(min)
	if err != nil {
		t.Fatal(err)
	}
	if reason != min.Reason {
		t.Errorf("replay reason %q, recorded reason %q", reason, min.Reason)
	}
	// ...and the same run with the bug disarmed must pass: the failure is
	// the injected fault, not the harness.
	fixed := min
	fixed.InjectDropDiffRuns = 0
	if reason, err := Replay(fixed); err != nil || reason != "" {
		t.Errorf("disarmed replay: reason %q, err %v; want a passing run", reason, err)
	}
}

// TestShrinkRejectsPassingRepro: shrinking a healthy run is an error, not a
// silent no-op.
func TestShrinkRejectsPassingRepro(t *testing.T) {
	healthy := Repro{
		Kind: KindDifferential, Variant: "csm_poll", Nodes: 2, PPN: 1,
		Fuzz: fuzz.Corpus()[0],
	}
	if _, _, err := Shrink(healthy, 0); err == nil {
		t.Error("Shrink accepted a repro that does not reproduce")
	}
}

// TestReproRoundTrip: WriteFile and LoadRepro preserve every field.
func TestReproRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "repro.json")
	orig := Repro{
		Kind: KindLitmus, Litmus: "MP+sync", Perm: 1, Variant: "tmk_mc_poll",
		Nodes: 2, PPN: 2,
		Schedule:           perturbed(0).withDefaults().schedule(4),
		InjectDropDiffRuns: 2, Reason: "because",
	}
	if err := orig.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadRepro(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != orig {
		t.Errorf("round trip changed the repro:\n%+v\nvs\n%+v", got, orig)
	}
}

// TestLitmusReplay: a litmus repro replays through the same code path as the
// sweep; on a healthy protocol a permitted outcome replays as passing.
func TestLitmusReplay(t *testing.T) {
	r := Repro{
		Kind: KindLitmus, Litmus: "SB+sync", Variant: "csm_poll",
		Nodes: 2, PPN: 1, Schedule: perturbed(0).withDefaults().schedule(0),
	}
	reason, err := Replay(r)
	if err != nil {
		t.Fatal(err)
	}
	if reason != "" {
		t.Errorf("healthy litmus replay failed: %s", reason)
	}
	r.Litmus = "no-such-test"
	if _, err := Replay(r); err == nil {
		t.Error("unknown litmus name accepted")
	}
}
