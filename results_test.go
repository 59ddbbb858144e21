package repro

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/bench"
	"repro/internal/runner"
)

// TestCommittedResultsFile pins the interconnect sweep, the only committed
// results that cover the RDMA and switched fabrics: it re-runs the plan of
// `dsmbench -netsweep -size small -json` and compares both the JSON and the
// rendered table with results/netsweep_small.{json,txt} byte for byte.
// Simulations are bit-deterministic, so any difference is a model change;
// scripts/repin.sh regenerates both files with every other pin.
func TestCommittedResultsFile(t *testing.T) {
	opts := bench.Options{Size: apps.SizeSmall}
	netsweep := bench.Sections[len(bench.Sections)-1] // the last section, outside -all
	plan := runner.NewPlan()
	plan.Add(netsweep.Specs(opts)...)
	rs, err := runner.Execute(plan, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var doc, table bytes.Buffer
	if err := rs.WriteJSON(&doc); err != nil {
		t.Fatal(err)
	}
	if err := netsweep.Render(&table, opts, rs); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		path string
		got  []byte
	}{
		{"results/netsweep_small.json", doc.Bytes()},
		{"results/netsweep_small.txt", table.Bytes()},
	} {
		want, err := os.ReadFile(c.path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(c.got, want) {
			t.Errorf("%s differs from the interconnect sweep (a deliberate model change re-pins it with scripts/repin.sh):\n%s",
				c.path, diffHint(c.got, want))
		}
	}
}

// TestExperimentsQuoteResults: EXPERIMENTS.md quotes every committed table
// under results/ verbatim, so the prose cannot drift from what the code
// produces. scripts/repin.sh re-splices a table that moved.
func TestExperimentsQuoteResults(t *testing.T) {
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	tables, err := filepath.Glob("results/*.txt")
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) == 0 {
		t.Fatal("no tables under results/")
	}
	for _, path := range tables {
		table, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(doc), string(table)) {
			t.Errorf("EXPERIMENTS.md does not quote %s verbatim (scripts/repin.sh re-splices it)", path)
		}
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
