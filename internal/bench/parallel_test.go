package bench

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/apps"
	"repro/internal/runner"
	"repro/internal/variants"
)

// TestSequentialBaselineRunsOnce: Table 2 and Figure 5 key the sequential
// baseline on the same canonical spec, so across any number of tables it
// executes exactly once per (app, size).
func TestSequentialBaselineRunsOnce(t *testing.T) {
	runner.ResetCache()
	opts := Options{
		Size:     apps.SizeSmall,
		Apps:     []string{"SOR"},
		Procs:    []int{1, 4},
		Variants: []string{"csm_poll"},
	}

	// The baseline and Fig5's parallel cells all share one plan: the
	// combined plan must contain the sequential spec exactly once.
	seqCount := 0
	for _, s := range plan(opts, table2, fig5).Specs() {
		if s.Variant == variants.Sequential {
			seqCount++
		}
	}
	if seqCount != 1 {
		t.Fatalf("combined Table2+Fig5 plan holds %d sequential specs, want 1", seqCount)
	}

	// Table 2 executes the baseline (1 simulation).
	run(t, io.Discard, opts, table2)
	after2 := runner.Executions()

	// Figure 5 needs the same baseline plus 2 parallel cells: only the
	// cells may execute.
	run(t, io.Discard, opts, fig5)
	if delta := runner.Executions() - after2; delta != 2 {
		t.Fatalf("Fig5 after Table2 ran %d simulations, want 2 (baseline must come from cache)", delta)
	}

	// Re-rendering Table 2 must execute nothing at all.
	run(t, io.Discard, opts, table2)
	if delta := runner.Executions() - after2; delta != 2 {
		t.Fatalf("repeat Table2 re-ran %d baseline simulations, want 0", delta-2)
	}
}

// TestAblationsShareCacheWithSweep proves the ablations' unmodified-model
// runs hit the same cache entries as a prior sweep at the same
// configuration rather than re-simulating.
func TestAblationsShareCacheWithSweep(t *testing.T) {
	runner.ResetCache()
	opts := Options{Size: apps.SizeSmall}

	// Prime the cache with the ablation baseline configuration (SOR,
	// csm_poll at 8 processors — ablation (a)'s "on" leg).
	warm := runner.NewPlan()
	warm.Add(runner.RunSpec{App: "SOR", Variant: "csm_poll", Procs: 8, Size: apps.SizeSmall})
	if _, err := runner.Execute(warm, runner.Options{}); err != nil {
		t.Fatal(err)
	}
	before := runner.Executions()

	abl := plan(opts, ablations)
	if _, err := runner.Execute(abl, runner.Options{}); err != nil {
		t.Fatal(err)
	}
	ran := runner.Executions() - before
	if want := int64(abl.Len() - 1); ran != want {
		t.Fatalf("ablations ran %d simulations, want %d (SOR csm_poll@8 must come from cache)", ran, want)
	}
}

// TestParallelRenderingIsDeterministic runs the same plan at Jobs=1 and
// Jobs=8 and asserts the rendered tables are byte-identical and every
// result's virtual time and statistics match exactly: host-level
// parallelism must not perturb the deterministic simulations.
func TestParallelRenderingIsDeterministic(t *testing.T) {
	opts := Options{
		Size:  apps.SizeSmall,
		Apps:  []string{"SOR", "Water"},
		Procs: []int{1, 4},
	}
	both := plan(opts, table2, fig5)
	draw := func(rs *runner.ResultSet) ([]byte, error) {
		var buf bytes.Buffer
		err := render(&buf, opts, rs, table2, fig5)
		return buf.Bytes(), err
	}

	runner.ResetCache()
	serialRS, err := runner.Execute(both, runner.Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	serialOut, err := draw(serialRS)
	if err != nil {
		t.Fatal(err)
	}

	runner.ResetCache()
	parallelRS, err := runner.Execute(both, runner.Options{Jobs: 8})
	if err != nil {
		t.Fatal(err)
	}
	parallelOut, err := draw(parallelRS)
	if err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(serialOut, parallelOut) {
		t.Fatalf("rendered tables differ between Jobs=1 and Jobs=8:\n%s", diffHint(parallelOut, serialOut))
	}
	for _, s := range both.Specs() {
		r1, err1 := serialRS.Get(s)
		r2, err2 := parallelRS.Get(s)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: %v %v", s.Key(), err1, err2)
		}
		if r1.Time != r2.Time {
			t.Errorf("%s: time %d (Jobs=1) != %d (Jobs=8)", s.Key(), r1.Time, r2.Time)
		}
		if r1.Total != r2.Total {
			t.Errorf("%s: aggregate stats differ between Jobs=1 and Jobs=8", s.Key())
		}
	}
}
