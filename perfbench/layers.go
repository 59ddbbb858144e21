package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/runner"
)

// layerMetrics fills the per-layer ledger of a traced run: exact counts from
// the simulator's own statistics and the decorator, host times at the
// core.Protocol boundary, the probes, and the est_share attributions
// (count x probe cost / host time; estimates that need not sum to 1).
func (r *run) layerMetrics(m map[string]metric, hostS float64) error {
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	last := r.untraced[len(r.untraced)-1]
	all, fam, counters := totals(last)
	tr := r.tr
	// CPU-seconds one pass had available: the est_share denominators.
	workers := float64(r.w.gomaxprocs())
	budgetNS := hostS * 1e9 * workers

	prevProcs := runtime.GOMAXPROCS(1)
	err := runProbes(m)
	runtime.GOMAXPROCS(prevProcs)
	if err != nil {
		return err
	}
	ratio, err := idlePRatio()
	if err != nil {
		return err
	}

	set("sim.handoffs", float64(tr.handoffs), "count")
	set("sim.elided_yields", float64(tr.elided), "count")
	set("sim.inline_polls", float64(tr.inlinePolls), "count")
	set("sim.elide_ratio", div(float64(tr.elided), float64(tr.elided+tr.handoffs)), "ratio")
	set("sim.est_share", (float64(tr.handoffs)*m["sim.handoff_ns"].Value+float64(tr.inlinePolls)*m["sim.pollwait_ns"].Value)/budgetNS, "ratio")
	set("sim.idle_p_ratio", ratio, "ratio")

	accesses := float64(all.CacheHits + all.CacheMisses)
	set("cache.accesses", accesses, "count")
	set("cache.hit_ratio", div(float64(all.CacheHits), accesses), "ratio")
	set("cache.est_share", accesses*m["cache.access_ns.stream"].Value/budgetNS, "ratio")

	set("core.accesses_per_host_us", accesses/(hostS*1e6), "1/us")
	set("core.faults", float64(all.ReadFaults+all.WriteFaults), "count")
	// core.read_ns is the whole accessor, translation and L1 model included.
	set("core.est_share", accesses*m["core.read_ns"].Value/budgetNS, "ratio")

	for f := 0; f < numFamilies; f++ {
		for op := opKind(0); op < numOps; op++ {
			set(opMetric(f, op, "count"), float64(tr.ops[f][op].count), "count")
			set(opMetric(f, op, "host_us"), float64(tr.ops[f][op].ns)/1e3, "us")
		}
	}
	set("cashmere.page_transfers", float64(fam[famCashmere].PageTransfers), "count")
	set("cashmere.write_notices", float64(fam[famCashmere].WriteNotices), "count")
	set("cashmere.remote_page_reads", float64(counters[famCashmere]["remote_page_reads"]), "count")
	set("treadmarks.twins", float64(fam[famTreadmarks].Twins), "count")
	set("treadmarks.diffs_created", float64(fam[famTreadmarks].DiffsCreated), "count")
	set("treadmarks.diffs_applied", float64(fam[famTreadmarks].DiffsApplied), "count")
	set("treadmarks.page_fetches", float64(fam[famTreadmarks].PageFetches), "count")

	set("msg.messages", float64(all.Messages), "count")
	set("msg.data_bytes", float64(all.DataBytes), "bytes")
	set("interconnect.transfers", float64(tr.transfers), "count")
	set("interconnect.traffic_bytes", float64(tr.trafficBytes), "bytes")

	set("apps.build_ms", median(r.buildMS), "ms")
	set("apps.oracle_mismatches", float64(len(r.mismatches)), "count")
	set("trace.overhead_ratio", median(hostSeconds(r.traced))/hostS, "ratio")

	if err := r.runnerMetrics(set, last); err != nil {
		return err
	}
	// One file per workload, overwritten by the next traced run.
	return r.tr.writeSpans(filepath.Join(scratchDir, "spans-"+r.w.name+".jsonl"))
}

// runnerMetrics are measured on sweep_parallel, the only workload that goes
// through the runner; elsewhere they read 0.
func (r *run) runnerMetrics(set func(string, float64, string), last passResult) error {
	if r.p.specs == nil {
		for _, m := range [][2]string{
			{"runner.plan_build_ms", "ms"}, {"runner.dedup_ratio", "ratio"}, {"runner.executions", "count"},
			{"runner.memo_replay_ms", "ms"}, {"runner.disk_write_ms", "ms"}, {"runner.disk_replay_ms", "ms"},
			{"runner.spec_host_ms.p50", "ms"}, {"runner.spec_host_ms.p95", "ms"}, {"runner.cpu_s_per_host_s", "ratio"},
		} {
			set(m[0], 0, m[1])
		}
		return nil
	}
	set("runner.plan_build_ms", median(r.planMS), "ms")
	set("runner.dedup_ratio", float64(len(r.p.specs))/float64(r.p.specsSeen), "ratio")
	set("runner.cpu_s_per_host_s", last.cpu.Seconds()/last.host.Seconds(), "ratio")
	var took []float64
	for _, d := range r.specTook {
		took = append(took, ms(d))
	}
	set("runner.spec_host_ms.p50", median(took), "ms")
	set("runner.spec_host_ms.p95", quantile(took, 0.95), "ms")

	// One cold pass fills the memo cache and, through CacheDir, the disk
	// cache. Its time over a plain pass is what storing every result costs;
	// replaying the plan then reads the memo cache, and after emptying that,
	// the disk cache.
	dir, err := os.MkdirTemp(scratchDir, "cache-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	before := runner.Executions()
	cold, err := runSweep(r.p.specs, dir)
	if err != nil {
		return err
	}
	set("runner.executions", float64(runner.Executions()-before), "count")
	set("runner.disk_write_ms", ms(cold.host)-median(hostSeconds(r.untraced))*1e3, "ms")

	plan := runner.NewPlan()
	plan.Add(r.p.specs...)
	t0 := time.Now()
	if _, err := runner.Execute(plan, runner.Options{Jobs: runtime.NumCPU()}); err != nil {
		return err
	}
	set("runner.memo_replay_ms", ms(time.Since(t0)), "ms")

	warm, err := runSweep(r.p.specs, dir)
	if err != nil {
		return err
	}
	set("runner.disk_replay_ms", ms(warm.host), "ms")
	if sha := resultsHash(warm.outcomes); sha != r.sha {
		r.errs = append(r.errs, fmt.Sprintf("disk-cache replay: results_sha256 %s differs from the executed %s", sha, r.sha))
	}
	return nil
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
