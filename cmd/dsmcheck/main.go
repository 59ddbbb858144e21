// Command dsmcheck explores the simulator's schedule space: it runs the
// memory-model litmus suite and the fuzz-corpus differential checker under
// many perturbed — but individually bit-reproducible — event schedules, on
// both DSM protocols. Forbidden litmus outcomes must never appear, key
// permitted outcomes must each appear at least once, and the data-race-free
// corpus programs must produce oracle-exact results under every schedule.
//
// On a differential or litmus failure, the first failing (program, schedule)
// pair is shrunk to a minimal repro and written as JSON (-repro); replay it
// with -replay. -selftest arms a deliberate TreadMarks diff-loss bug and
// verifies the harness catches and shrinks it.
//
// Exit status: 0 all checks pass (or -selftest caught the bug), 1 a check
// failed (repro written), 2 usage or internal error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/check"
	"repro/internal/sim"
	"repro/internal/variants"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		schedules     = flag.Int("schedules", 200, "perturbed schedules per litmus (test, variant)")
		diffSchedules = flag.Int("diff-schedules", 25, "perturbed schedules per differential (program, variant)")
		seed          = flag.Uint64("seed", 1, "base schedule seed (schedule i uses seed+i)")
		jitter        = flag.Float64("jitter", 0.75, "per-event cost jitter fraction, in [0, 1.0]")
		staggerUS     = flag.Int64("stagger-us", 3000, "max seed-derived per-processor start offset, microseconds")
		variantsCSV   = flag.String("variants", strings.Join(variants.Names, ","), "comma-separated protocol variants to sweep")
		jobs          = flag.Int("jobs", 0, "parallel simulations (0 = GOMAXPROCS)")
		jsonOut       = flag.Bool("json", false, "emit the full report as JSON instead of tables")
		reproPath     = flag.String("repro", "dsmcheck_repro.json", "file to write the minimized repro to on failure")
		replayPath    = flag.String("replay", "", "replay a repro JSON file and exit")
		selftest      = flag.Bool("selftest", false, "arm the injected TreadMarks diff-loss bug and verify it is caught and shrunk")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "dsmcheck: unexpected arguments %q\n", flag.Args())
		return 2
	}

	params := check.Params{
		Schedules: *schedules,
		BaseSeed:  *seed,
		Jitter:    *jitter,
		Stagger:   sim.Time(*staggerUS) * sim.Microsecond,
		Variants:  splitCSV(*variantsCSV),
		Jobs:      *jobs,
	}

	if *replayPath != "" {
		return replay(*replayPath)
	}
	if *selftest {
		return selfTest(params, *diffSchedules, *reproPath)
	}
	return sweep(params, *diffSchedules, *jsonOut, *reproPath)
}

// sweep is the default mode: litmus suite plus differential checker.
func sweep(params check.Params, diffSchedules int, jsonOut bool, reproPath string) int {
	litmus, err := check.RunLitmus(params)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsmcheck: litmus sweep:", err)
		return 2
	}
	diffParams := params
	diffParams.Schedules = diffSchedules
	diff, err := check.RunDifferential(diffParams)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsmcheck: differential sweep:", err)
		return 2
	}

	if jsonOut {
		payload := struct {
			Litmus       *check.LitmusReport
			Differential *check.DiffReport
		}{litmus, diff}
		data, err := json.MarshalIndent(payload, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "dsmcheck:", err)
			return 2
		}
		fmt.Println(string(data))
	} else {
		printLitmus(litmus)
		fmt.Printf("differential: %d runs, %d failures\n", diff.Runs, len(diff.Failures))
	}

	if !litmus.Failed() && !diff.Failed() {
		if !jsonOut {
			fmt.Println("dsmcheck: all checks passed")
		}
		return 0
	}

	// Pick the repro to shrink: a concrete differential failure first (it
	// carries a full program configuration), else the litmus violation.
	var repro check.Repro
	switch {
	case diff.Failed():
		repro = diff.Failures[0].Repro(0)
	case litmus.FirstViolation != nil:
		repro = *litmus.FirstViolation
	default:
		// Litmus "failed" on missing coverage only — nothing to replay.
		fmt.Fprintln(os.Stderr, "dsmcheck: FAIL (missing litmus coverage; see tables above)")
		return 1
	}
	min, spent, err := check.Shrink(repro, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsmcheck: shrink:", err)
		min = repro // fall back to the unshrunk repro
	} else {
		fmt.Fprintf(os.Stderr, "dsmcheck: shrunk repro in %d replays\n", spent)
	}
	if err := min.WriteFile(reproPath); err != nil {
		fmt.Fprintln(os.Stderr, "dsmcheck: write repro:", err)
		return 2
	}
	fmt.Fprintf(os.Stderr, "dsmcheck: FAIL: %s\n  reason: %s\n  repro written to %s\n", min, min.Reason, reproPath)
	return 1
}

// replay re-runs a repro file.
func replay(path string) int {
	repro, err := check.LoadRepro(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsmcheck:", err)
		return 2
	}
	reason, err := check.Replay(repro)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsmcheck:", err)
		return 2
	}
	if reason == "" {
		fmt.Printf("%s: does not reproduce (run passes)\n", repro)
		return 0
	}
	fmt.Printf("%s: reproduces\n  reason: %s\n", repro, reason)
	return 1
}

// selfTest proves the harness end to end: with the injected TreadMarks
// diff-loss bug armed, the differential checker must fail and the shrinker
// must reduce the failure to a tiny configuration.
func selfTest(params check.Params, diffSchedules int, reproPath string) int {
	params.Schedules = diffSchedules
	params.Variants = []string{"tmk_mc_poll"}
	params.InjectDropDiffRuns = 3
	diff, err := check.RunDifferential(params)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsmcheck: selftest sweep:", err)
		return 2
	}
	if !diff.Failed() {
		fmt.Fprintf(os.Stderr, "dsmcheck: selftest FAILED: injected diff-loss bug survived %d runs undetected\n", diff.Runs)
		return 1
	}
	min, spent, err := check.Shrink(diff.Failures[0].Repro(params.InjectDropDiffRuns), 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsmcheck: selftest shrink:", err)
		return 1
	}
	if err := min.WriteFile(reproPath); err != nil {
		fmt.Fprintln(os.Stderr, "dsmcheck: write repro:", err)
		return 2
	}
	procs := min.Nodes * min.PPN
	if min.Fuzz.Rounds > 2 || procs > 2 {
		fmt.Fprintf(os.Stderr, "dsmcheck: selftest FAILED: shrink stopped at %d rounds on %d processors (want <=2 and <=2)\n",
			min.Fuzz.Rounds, procs)
		return 1
	}
	fmt.Printf("selftest OK: injected bug caught in %d/%d runs, shrunk to %d round(s) on %d processors in %d replays\n",
		len(diff.Failures), diff.Runs, min.Fuzz.Rounds, procs, spent)
	fmt.Printf("  minimized: %s\n  reason: %s\n  repro written to %s\n", min, min.Reason, reproPath)
	return 0
}

// printLitmus renders the outcome tables.
func printLitmus(r *check.LitmusReport) {
	fmt.Printf("litmus: %d runs\n", r.Runs)
	for _, row := range r.Rows {
		status := "ok"
		if row.Failed() {
			status = "FAIL"
		}
		fmt.Printf("%-10s %-12s runs=%-4d %s  (%s)\n", row.Test, row.Variant, row.Runs, status, row.Doc)
		for _, o := range row.Outcomes {
			mark := ""
			if o.Forbidden {
				mark = "  << FORBIDDEN"
			}
			fmt.Printf("    %-28s %5d%s\n", o.Outcome, o.Count, mark)
		}
		for _, v := range row.Violations {
			fmt.Println("    VIOLATION:", v)
		}
		for _, m := range row.Missing {
			fmt.Println("    MISSING:", m)
		}
	}
}

func splitCSV(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
