package main

import (
	"os"
	"reflect"
	"regexp"
	"testing"

	"repro/internal/core"
	"repro/internal/variants"
)

// TestPatternShapesAgree walks the whole shape space of the seeded pattern
// programs: under every variant protocol_mix uses, on its 8x4 layout, each
// shape must reproduce the checksum of its one-processor sequential run.
func TestPatternShapesAgree(t *testing.T) {
	var progs []program
	add := func(name string, build func() *core.Program) { progs = append(progs, program{name, build, 0}) }
	for _, pages := range pcPages {
		for _, producers := range pcProducers {
			for _, stride := range pcStrides {
				add(producerConsumer(pages, producers, stride))
			}
		}
	}
	for _, locks := range migLocks {
		for _, width := range migWidths {
			add(migratory(locks, width))
		}
	}
	for _, pages := range fsPages {
		for _, writers := range fsWriters {
			add(falseSharing(pages, writers))
		}
	}
	for _, pr := range progs {
		seq, err := runJob(job{build: pr.build, variant: variants.Sequential, nodes: 1, ppn: 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range clusterJobs([]program{pr}, mixVariants, 32) {
			res, err := runJob(j, nil)
			if err != nil {
				t.Errorf("%s: %v", j.key, err)
				continue
			}
			if why := checksAgree(res.Checks, seq.Checks, 0); why != "" {
				t.Errorf("%s: %s", j.key, why)
			}
		}
	}
}

// TestRunsEmitDeclaredMetrics runs every workload once at the shortest
// length, traced, and holds the output against BENCHMARK.json: every declared
// name appears exactly once with its unit and nothing undeclared does, the
// run is correct (which includes the traced passes reproducing the untraced
// results_sha256), and the layers are quiet where the README predicts.
func TestRunsEmitDeclaredMetrics(t *testing.T) {
	if err := os.Chdir(".."); err != nil { // the checkout's root, as run.sh does
		t.Fatal(err)
	}
	defer os.Chdir("perfbench")
	spec, err := loadBenchmarkSpec()
	if err != nil {
		t.Fatal(err)
	}
	minSetupReps, maxSetupReps, probeReps = 1, 1, 1
	defer func() { minSetupReps, maxSetupReps, probeReps = 5, 60, 5 }()

	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, perfbench has %d", len(spec.Workloads), len(workloads))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, decl := range spec.Workloads {
		w, ok := findWorkload(decl.Name)
		if !ok {
			t.Errorf("BENCHMARK.json declares unknown workload %q", decl.Name)
			continue
		}
		m, err := measure(w, 1, 0, true)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if len(m.failures) != 0 {
			t.Errorf("%s: failures: %v", w.name, m.failures)
		}
		for _, c := range []struct {
			declared []metricSpec
			got      map[string]metric
		}{{spec.EndToEnd, m.endToEnd}, {spec.PerLayer, m.perLayer}} {
			seen := map[string]bool{}
			for _, d := range c.declared {
				if seen[d.Name] {
					t.Errorf("%s declared twice", d.Name)
				}
				seen[d.Name] = true
				if !nameRE.MatchString(d.Name) {
					t.Errorf("metric name %q is malformed", d.Name)
				}
				g, ok := c.got[d.Name]
				if !ok {
					t.Errorf("%s: declared metric %s not emitted", w.name, d.Name)
				} else if g.Unit != d.Unit {
					t.Errorf("%s: %s emitted in %q, declared in %q", w.name, d.Name, g.Unit, d.Unit)
				}
			}
			for n := range c.got {
				if !seen[n] {
					t.Errorf("%s: emitted metric %s is not declared", w.name, n)
				}
			}
		}
		for n, v := range m.endToEnd {
			if v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, n, v.Value)
			}
		}
		if w.name == "access_path" {
			for _, n := range []string{"sim.handoffs", "msg.messages"} {
				if v := m.perLayer[n].Value; v != 0 {
					t.Errorf("access_path: %s = %v, predicted exactly 0", n, v)
				}
			}
		}
		if got := m.perLayer["runner.executions"].Value != 0; got != w.parallel {
			t.Errorf("%s: runner metrics reported = %v, want only on sweep_parallel", w.name, got)
		}
		if m.run.strictOracle() && len(m.run.mismatches) != 0 {
			t.Errorf("%s: oracle mismatches on a strict workload: %v", w.name, m.run.mismatches)
		}
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		keys := func(seed int64) []string {
			p := w.prepare(seed)
			var ks []string
			for _, j := range p.jobs {
				ks = append(ks, j.key)
			}
			for _, s := range p.specs {
				ks = append(ks, s.Key())
			}
			return ks
		}
		a, b, c := keys(7), keys(7), keys(8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different inputs", w.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs in the same order", w.name)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "host_s", Better: "lower", Bound: 0.08}
	higher := metricSpec{Name: "sim_us_per_host_us", Better: "higher", Bound: 0.08}
	for _, c := range []struct {
		name string
		m    metricSpec
		a, b []float64
		want string
	}{
		{"every reading lower", lower, []float64{10, 10.1, 10.2}, []float64{9, 9.1, 9.2}, "better"},
		{"small shift inside the bound", lower, []float64{10, 10.1, 10.2}, []float64{10.1, 10.3, 10.4}, "within"},
		{"median beyond the bound, tight readings", lower, []float64{10, 10.1, 10.2}, []float64{11.5, 11.6, 11.7}, "worse"},
		{"median beyond the bound, every reading worse despite a wide side", lower, []float64{10, 10.1, 11}, []float64{11.5, 11.6, 13}, "worse"},
		{"overlapping wide ranges", lower, []float64{10, 10.1, 12}, []float64{9.5, 11.2, 11.3}, "unresolved"},
		{"higher is better: drop beyond the bound", higher, []float64{5, 5.05, 5.1}, []float64{4.4, 4.45, 4.5}, "worse"},
		{"higher is better: every reading higher", higher, []float64{5, 5.05, 5.1}, []float64{5.2, 5.3, 5.4}, "better"},
	} {
		if got, _ := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestExactDiffs(t *testing.T) {
	spec := benchmarkSpec{PerLayer: []metricSpec{{Name: "sim.handoffs", Unit: "count"}, {Name: "sim.handoff_ns", Unit: "ns"}}}
	set := func(sha string, handoffs, ns float64) runSet {
		return runSet{Runs: []suiteRun{
			{Workload: "w", SHA: sha, SimMSTotal: 1},
			{Workload: "w", Trace: true, SHA: sha, SimMSTotal: 1, Report: report{Metrics: map[string]metric{
				"sim.handoffs": {handoffs, "count"}, "sim.handoff_ns": {ns, "ns"},
			}}},
		}}
	}
	if d := exactDiffs(spec, set("x", 5, 100), set("x", 5, 130), "w"); len(d) != 0 {
		t.Errorf("a probe time differing is not an exact difference: %v", d)
	}
	if d := exactDiffs(spec, set("x", 5, 100), set("y", 6, 100), "w"); len(d) != 2 {
		t.Errorf("want the sha and the count reported, got %v", d)
	}
}
