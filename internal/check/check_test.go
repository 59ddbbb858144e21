package check

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/apps/fuzz"
	"repro/internal/variants"
)

// TestLitmusAcceptance is the tentpole acceptance bar: across at least 200
// perturbed schedules per (test, protocol), every forbidden outcome is
// absent and every permitted-with-sync must-observe outcome appears at
// least once.
func TestLitmusAcceptance(t *testing.T) {
	report, err := RunLitmus(Params{Schedules: 200})
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
}

// TestLitmusDeterministicReport: the sweep aggregation must not depend on
// worker interleaving — same parameters, same report, including with a
// single-threaded pool.
func TestLitmusDeterministicReport(t *testing.T) {
	p := Params{Schedules: 12, Jobs: 4}
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

// TestLitmusViolationNamesJob: a violation line is the only repro a failed
// sweep leaves, so what it prints after the outcome (litmusJob.at) must
// parse back into the job that produced it; its row gives test and variant.
func TestLitmusViolationNamesJob(t *testing.T) {
	for _, job := range litmusJobs(Params{Schedules: 200}) {
		line := job.at()
		var back litmusJob
		var seed uint64
		if _, err := fmt.Sscanf(line, "shape %dx%d, schedule seed %d, perm %d",
			&back.shape.Nodes, &back.shape.PPN, &seed, &back.perm); err != nil {
			t.Fatalf("%s/%s: %q: %v", job.test.Name, job.variant, line, err)
		}
		back.sched = schedule(int(seed - baseSeed))
		if back.shape != job.shape || back.sched != job.sched || back.perm != job.perm {
			t.Fatalf("%s/%s: %q parses back to %+v", job.test.Name, job.variant, line, back)
		}
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

// TestShrinkRejectsPassingRepro: shrinking a healthy run is an error, not a
// silent no-op.
func TestShrinkRejectsPassingRepro(t *testing.T) {
	healthy := Repro{Fuzz: fuzz.Corpus()[0], Variant: "csm_poll", Shape: Shape{2, 1}}
	if _, _, err := Shrink(healthy, 0); err == nil {
		t.Error("Shrink accepted a repro that does not reproduce")
	}
}
