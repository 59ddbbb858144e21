package bench

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/runner"
	"repro/internal/variants"
)

// allSections are the sections dsmbench -all draws: every section but the
// last, the interconnect sweep.
var allSections = Sections[:len(Sections)-1]

// fullSmallSweep executes the complete small-size sweep (all eight
// applications, the full processor ladder: 430 specs, ~10 s) once per test
// binary. Both full goldens read it, whatever the tests between them do to the
// runner's memo cache.
var fullSmallSweep = sync.OnceValues(func() (*runner.ResultSet, error) {
	return runner.Execute(plan(Options{Size: apps.SizeSmall}, allSections...), runner.Options{})
})

// TestGoldenSmallSubset pins the harness's rendered output byte for byte: the
// golden file is dsmbench -all -size small -apps SOR,Water -procs 1,4,8
// -progress=false. It was generated by the old interleaved implementation
// before the runner existed; scripts/repin.sh regenerates it, with
// golden_small.txt, after a deliberate model change.
func TestGoldenSmallSubset(t *testing.T) {
	opts := Options{
		Size:  apps.SizeSmall,
		Apps:  []string{"SOR", "Water"},
		Procs: []int{1, 4, 8},
	}
	rs, err := runner.Execute(plan(opts, allSections...), runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := render(&buf, opts, rs, allSections...); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "golden_small_subset.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("output differs from the golden:\n%s", diffHint(buf.Bytes(), want))
	}
}

// TestGoldenSmallFull compares the complete small-size sweep (dsmbench -all
// -size small -progress=false) against its golden.
func TestGoldenSmallFull(t *testing.T) {
	if testing.Short() {
		t.Skip("full small sweep; skipped with -short")
	}
	rs, err := fullSmallSweep()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := render(&buf, Options{Size: apps.SizeSmall}, rs, allSections...); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "golden_small.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("output differs from the golden:\n%s", diffHint(buf.Bytes(), want))
	}
}

// TestSmallSweepAgreesWithOracle is the oracle gate: every non-sequential
// cell of a registered application in the full small sweep reports its
// application's sequential checks within the registry's CheckTolerance. The
// goldens pin what the tables say; this pins that the executions behind the
// cells computed the right answer (23 TreadMarks cells once did not, and the
// goldens pinned them). It rides on fullSmallSweep, so it adds no simulation.
func TestSmallSweepAgreesWithOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("full small sweep; skipped with -short")
	}
	rs, err := fullSmallSweep()
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, s := range rs.Specs() {
		entry, err := apps.Get(s.App)
		if err != nil || s.Variant == variants.Sequential {
			continue // Table 1's microbenchmarks have no oracle; the oracle is not its own cell
		}
		res, err := rs.Get(s)
		if errors.Is(err, runner.ErrInfeasible) {
			continue
		}
		if err != nil {
			t.Errorf("%s/%s/%d: %v", s.App, s.Variant, s.Procs, err)
			continue
		}
		oracle, err := rs.Get(spec(s.App, variants.Sequential, 1, Options{Size: s.Size}))
		if err != nil {
			t.Fatalf("%s: no sequential run in the sweep: %v", s.App, err)
		}
		checked++
		if why := entry.Disagreement(res.Checks, oracle.Checks); why != "" {
			t.Errorf("%s/%s/%d: %s", s.App, s.Variant, s.Procs, why)
		}
	}
	t.Logf("%d cells compared with their oracle", checked)
	if checked < 300 {
		t.Errorf("only %d cells were compared with an oracle; the sweep has about 390", checked)
	}
}

// diffHint locates the first differing line for a readable failure message.
func diffHint(got, want []byte) string {
	gl := bytes.Split(got, []byte("\n"))
	wl := bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			return fmt.Sprintf("line %d:\n  got:  %s\n  want: %s", i+1, gl[i], wl[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(gl), len(wl))
}
