package check

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/apps/fuzz"
	"repro/internal/sim"
	"repro/internal/variants"
	"repro/internal/vm"
)

// FuzzSchedule explores the differential check: a generated data-race-free
// program on one variant, cluster shape and perturbed schedule must report
// its sequential-consistency oracle exactly (diffReason). Each argument is
// mapped onto its legal domain by modulo, and a value already inside the
// domain maps to itself, so a corpus file reads as the run it names:
//
//   - fuzz.Config: any seed, 1-4 rounds, 64 elements to 8 pages, 1-6 locks;
//   - shapes up to 8x4 with at least 2 processors;
//   - all six variants.Names (index), skipping the layouts
//     variants.Feasible rejects;
//   - a schedule seed (0: canonical), jitter in [0, sim.MaxCostJitter], tie
//     flips, and a stagger of at most 3 ms.
//
// The seed corpus is the differential sweep the target replaced
// (seedCorpus), and plain go test replays it with every file under
// testdata/fuzz/FuzzSchedule. A failure is shrunk and printed as a corpus
// file; saved there, it is a regression every go test replays. Explore with
//
//	go test -run '^$' -fuzz FuzzSchedule -fuzztime 10m ./internal/check
func FuzzSchedule(f *testing.F) {
	for _, r := range seedCorpus() {
		a := argsOf(r)
		f.Add(a.Seed, a.Rounds, a.Elems, a.Locks, a.Nodes, a.PPN, a.Variant, a.SchedSeed, a.Jitter, a.FlipTies, a.Stagger)
	}
	f.Fuzz(func(t *testing.T, seed int64, rounds, elems, locks, nodes, ppn, variant int,
		schedSeed uint64, jitter float64, flipTies bool, stagger int64) {
		r := fuzzArgs{seed, rounds, elems, locks, nodes, ppn, variant, schedSeed, jitter, flipTies, stagger}.repro()
		layout := variants.Layout{Procs: r.Shape.Procs(), Nodes: r.Shape.Nodes, PerNode: r.Shape.PPN}
		if r.Shape.Procs() < 2 || !variants.Feasible(r.Variant, layout) {
			t.Skipf("%s cannot run %s", r.Variant, r.Shape)
		}
		if r.Reason = diffReason(r.Fuzz, r.Variant, r.Shape, r.Schedule, 0); r.Reason != "" {
			t.Fatal(failure(r))
		}
	})
}

// fuzzArgs are FuzzSchedule's arguments, in order.
type fuzzArgs struct {
	Seed      int64
	Rounds    int
	Elems     int
	Locks     int
	Nodes     int
	PPN       int
	Variant   int
	SchedSeed uint64
	Jitter    float64
	FlipTies  bool
	Stagger   int64
}

// maxElems is 8 pages of float64 elements.
const maxElems = 8 * vm.PageSize / 8

// repro maps the arguments onto the run they name.
func (a fuzzArgs) repro() Repro {
	jitter := a.Jitter
	if !(jitter >= 0 && jitter <= sim.MaxCostJitter) {
		if jitter = math.Mod(math.Abs(jitter), sim.MaxCostJitter); math.IsNaN(jitter) {
			jitter = 0
		}
	}
	return Repro{
		Fuzz: fuzz.Config{
			Seed: a.Seed, Rounds: wrap(a.Rounds, 1, 4),
			Elems: wrap(a.Elems, 64, maxElems), Locks: wrap(a.Locks, 1, 6),
		},
		Variant: variants.Names[wrap(a.Variant, 0, len(variants.Names)-1)],
		Shape:   Shape{wrap(a.Nodes, 1, 8), wrap(a.PPN, 1, 4)},
		Schedule: sim.Schedule{
			Seed: a.SchedSeed, CostJitter: jitter, FlipTies: a.FlipTies,
			Stagger: wrap(a.Stagger, 0, 3*sim.Millisecond),
		},
	}
}

// wrap maps v into [lo, hi] by modulo, leaving values inside it unchanged.
func wrap[T int | int64](v, lo, hi T) T {
	n := hi - lo + 1
	return lo + ((v-lo)%n+n)%n
}

// argsOf is the FuzzSchedule input that runs r.
func argsOf(r Repro) fuzzArgs {
	return fuzzArgs{
		r.Fuzz.Seed, r.Fuzz.Rounds, r.Fuzz.Elems, r.Fuzz.Locks,
		r.Shape.Nodes, r.Shape.PPN, slices.Index(variants.Names, r.Variant),
		r.Schedule.Seed, r.Schedule.CostJitter, r.Schedule.FlipTies, r.Schedule.Stagger,
	}
}

// seedCorpus is the differential sweep FuzzSchedule replaced: every
// fuzz.Corpus program on every variant, canonical on 2x1 and on 2x2, then
// under perturbed schedules 0-24 alternating between those shapes.
func seedCorpus() []Repro {
	shapes := []Shape{{2, 1}, {2, 2}}
	var out []Repro
	for _, c := range fuzz.Corpus() {
		for _, v := range variants.Names {
			for _, s := range shapes {
				out = append(out, Repro{Fuzz: c, Variant: v, Shape: s})
			}
			for i := 0; i < 25; i++ {
				out = append(out, Repro{Fuzz: c, Variant: v, Shape: shapes[i%2], Schedule: schedule(i)})
			}
		}
	}
	return out
}

// failure is FuzzSchedule's report of a failing run: the reason, then the
// shrunk run as the corpus file that replays it.
func failure(r Repro) string {
	shrunk, spent, err := Shrink(r, 0)
	if err != nil {
		return fmt.Sprintf("%s: %s\n%v", r, r.Reason, err)
	}
	return fmt.Sprintf("%s: %s\nshrunk in %d replays to %s: %s\n"+
		"save this as testdata/fuzz/FuzzSchedule/<name> to replay it in every go test:\n%s",
		r, r.Reason, spent, shrunk, shrunk.Reason, corpusFile(shrunk))
}

// corpusFile prints r as the FuzzSchedule corpus file that runs it, in the
// encoding go test writes ("go test fuzz v1", then one typed value a line).
func corpusFile(r Repro) string {
	var b strings.Builder
	b.WriteString("go test fuzz v1\n")
	args := reflect.ValueOf(argsOf(r))
	for i := 0; i < args.NumField(); i++ {
		v := args.Field(i).Interface()
		fmt.Fprintf(&b, "%T(%v)\n", v, v)
	}
	return b.String()
}

// TestSeedCorpusIsTheSweep: the seed corpus is the 810 runs of the
// differential sweep it replaced (5 programs x 6 variants x 27 runs), and
// FuzzSchedule runs each entry as written: its arguments lie inside their
// domains, so the modulo maps leave them unchanged.
func TestSeedCorpusIsTheSweep(t *testing.T) {
	corpus := seedCorpus()
	if len(corpus) != 810 {
		t.Errorf("seed corpus has %d entries, want 810", len(corpus))
	}
	for _, r := range corpus {
		if got := argsOf(r).repro(); got != r {
			t.Fatalf("seed entry %s runs as %s", r, got)
		}
	}
}

// TestInjectedBugCaughtAndShrunk is the self-test: with the TreadMarks
// diff-loss fault armed (treadmarks.Config.TestDropDiffRuns 3), the seed
// corpus must fail; Shrink must reduce the failure to at most 2 rounds on at
// most 2 processors; the shrunk run must fail again with the same reason
// and pass once disarmed; and the corpus file FuzzSchedule prints for it is
// the committed testdata/fuzz/FuzzSchedule/selftest, which plain go test
// replays (disarmed) as a passing input.
func TestInjectedBugCaughtAndShrunk(t *testing.T) {
	var failing Repro
	for _, r := range seedCorpus() {
		r.InjectDropDiffRuns = 3
		if r.Reason = diffReason(r.Fuzz, r.Variant, r.Shape, r.Schedule, r.InjectDropDiffRuns); r.Reason != "" {
			failing = r
			break
		}
	}
	if failing.Reason == "" {
		t.Fatal("injected diff-loss fault survived the seed corpus undetected")
	}
	shrunk, spent, err := Shrink(failing, 0)
	if err != nil {
		t.Fatal(err)
	}
	if shrunk.Fuzz.Rounds > 2 {
		t.Errorf("shrunk repro still has %d rounds, want <= 2", shrunk.Fuzz.Rounds)
	}
	if procs := shrunk.Shape.Procs(); procs > 2 {
		t.Errorf("shrunk repro still uses %d processors, want <= 2", procs)
	}
	t.Logf("shrunk %s to %s in %d replays: %s", failing, shrunk, spent, shrunk.Reason)

	// The minimized repro must reproduce deterministically...
	if reason, err := Replay(shrunk); err != nil || reason != shrunk.Reason {
		t.Errorf("replay: reason %q, err %v; recorded reason %q", reason, err, shrunk.Reason)
	}
	// ...and the same run with the fault disarmed must pass: the failure is
	// the injected fault, not the harness.
	fixed := shrunk
	fixed.InjectDropDiffRuns = 0
	if reason, err := Replay(fixed); err != nil || reason != "" {
		t.Errorf("disarmed replay: reason %q, err %v; want a passing run", reason, err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzSchedule", "selftest"))
	if err != nil {
		t.Fatal(err)
	}
	if report := failure(failing); !strings.HasSuffix(report, ":\n"+string(want)) {
		t.Errorf("FuzzSchedule's report does not end in testdata/fuzz/FuzzSchedule/selftest:\n%s\nwant:\n%s", report, want)
	}
}
