package bench

// Interconnect-equivalence tests: the results JSON of the small sweep is
// pinned byte for byte, so a refactor (the pluggable Interconnect interface
// was the first) cannot move a simulated number unnoticed. Both artifacts are
// dsmbench output:
//
//	testdata/equiv_small_subset.json  -fig5 -fig6 -size small -apps SOR,Water -procs 1,4,8 -json
//	testdata/equiv_small_full.sha256  sha256 of -all -size small -json
//
// They were generated before the interconnect API existed and held through
// every refactor since. They have been regenerated twice: once, with the
// goldens of golden_test.go, when the TreadMarks wait-window fix deliberately
// moved TreadMarks cells (EXPERIMENTS.md lists each); and once when TreadMarks'
// metadata GC was deleted, which removed its three always-zero counters from
// every TreadMarks cell and moved no number or golden. perfbench reads the subset file too, so it stays
// a full document.
import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/runner"
)

func TestInterconnectEquivalenceSubset(t *testing.T) {
	opts := Options{
		Size:  apps.SizeSmall,
		Apps:  []string{"SOR", "Water"},
		Procs: []int{1, 4, 8},
	}
	plan := runner.NewPlan()
	plan.Add(Fig5Specs(opts)...)
	plan.Add(Fig6Specs(opts)...)
	rs, err := runner.Execute(plan, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rs.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "equiv_small_subset.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("results JSON differs from the pinned document:\n%s",
			diffHint(buf.Bytes(), want))
	}
}

// TestInterconnectEquivalenceFull covers the complete small-size sweep; the
// golden is pinned as a hash because the document is over 4 MB.
func TestInterconnectEquivalenceFull(t *testing.T) {
	if testing.Short() {
		t.Skip("full small sweep; skipped with -short")
	}
	rs, err := fullSmallSweep()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rs.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
	raw, err := os.ReadFile(filepath.Join("testdata", "equiv_small_full.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.TrimSpace(string(raw))
	if got != want {
		t.Fatalf("full-sweep results hash %s differs from the pinned %s; a deliberate re-pin of testdata also bumps modelRevision in internal/runner/diskcache.go, so disk caches written before it miss", got, want)
	}
}
