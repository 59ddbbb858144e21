package main

import (
	"fmt"
	"math/rand"
	"runtime"

	"repro/internal/apps"
	"repro/internal/apps/barnes"
	"repro/internal/apps/em3d"
	"repro/internal/apps/gauss"
	"repro/internal/apps/ilink"
	"repro/internal/apps/lu"
	"repro/internal/apps/sor"
	"repro/internal/apps/tsp"
	"repro/internal/apps/water"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/variants"
)

// job is one simulation a single-stream workload owns: a program and the
// cluster it runs on.
type job struct {
	key        string // unique within the workload, e.g. "SOR/csm_poll/16"
	prog       string // jobs with the same prog share one sequential oracle run
	build      func() *core.Program
	variant    string
	nodes, ppn int
	opts       variants.Options
	tol        float64 // relative tolerance of the oracle comparison (0 = exact)
}

// program is one application instance at the benchmark's own scale.
type program struct {
	name  string
	build func() *core.Program
	tol   float64
}

// workload is one named set of inputs. Exactly one of jobs and specs is
// filled by prepare: single-stream workloads call core.Run themselves (which
// lets the traced pass wrap Config.NewProtocol); sweep_parallel goes through
// runner.Execute, the layer it exists to measure.
type workload struct {
	name string
	// parallel workloads run with GOMAXPROCS = Jobs = the host's CPU count;
	// the others pin GOMAXPROCS to 1 so that the baton-passing goroutines of
	// one simulation are never stolen by an idle P (see README).
	parallel bool
	prepare  func(seed int64) prepared
}

type prepared struct {
	jobs      []job
	specs     []runner.RunSpec // deduplicated, in seeded execution order
	specsSeen int              // specs offered to the plan before deduplication
}

func (w workload) gomaxprocs() int {
	if w.parallel {
		return runtime.NumCPU()
	}
	return 1
}

var workloads = []workload{
	{
		name: "access_path",
		prepare: func(seed int64) prepared {
			rng := rand.New(rand.NewSource(seed))
			var jobs []job
			for _, pr := range accessPrograms(rng) {
				for _, v := range []string{variants.Sequential, "csm_poll", "tmk_mc_poll"} {
					jobs = append(jobs, job{
						key: fmt.Sprintf("%s/%s/1", pr.name, v), prog: pr.name, build: pr.build,
						variant: v, nodes: 1, ppn: 1, tol: pr.tol,
					})
				}
			}
			return prepared{jobs: shuffled(rng, jobs)}
		},
	},
	{
		name: "sync_storm",
		prepare: func(seed int64) prepared {
			rng := rand.New(rand.NewSource(seed))
			// The registry's small configurations with their own data seeds,
			// which the pinned results cover at every layout; the seed only
			// sets the order of execution.
			tspP := program{"TSP", func() *core.Program { return tsp.New(tsp.Small()) }, 0}
			gaussP := program{"Gauss", func() *core.Program { return gauss.New(gauss.Small()) }, 0}
			// Every variant and both processor counts appear once; the full
			// cross product would take 13 s a pass.
			jobs := clusterJobs([]program{tspP}, []string{"csm_poll", "tmk_mc_poll", "tmk_udp_int"}, 16)
			jobs = append(jobs, clusterJobs([]program{gaussP}, []string{"csm_pp", "csm_int", "tmk_mc_int"}, 16)...)
			jobs = append(jobs, clusterJobs([]program{gaussP}, []string{"tmk_mc_poll"}, 32)...)
			return prepared{jobs: shuffled(rng, jobs)}
		},
	},
	{
		name: "protocol_mix",
		prepare: func(seed int64) prepared {
			rng := rand.New(rand.NewSource(seed))
			vs := mixVariants
			ilinkP, em3dP, waterP, barnesP := mixPrograms()
			jobs := clusterJobs([]program{ilinkP, em3dP, waterP}, vs, 16, 32)
			jobs = append(jobs, clusterJobs([]program{barnesP}, vs, 32)...)
			jobs = append(jobs, clusterJobs(patternPrograms(rng), vs, 32)...)
			return prepared{jobs: shuffled(rng, jobs)}
		},
	},
	{
		name:     "sweep_parallel",
		parallel: true,
		prepare: func(seed int64) prepared {
			rng := rand.New(rand.NewSource(seed))
			all := sweepSpecs()
			rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
			plan := runner.NewPlan()
			plan.Add(all...)
			return prepared{specs: plan.Specs(), specsSeen: len(all)}
		},
	},
}

// sweepApps are the applications of the sweep. TSP and Gauss make up 86 % of
// the full plan's CPU time at small size and are exactly sync_storm's
// programs; without them one pass is a few seconds of ~340 short runs, which
// is where the runner and the per-run fixed cost show.
var sweepApps = []string{"SOR", "LU", "Water", "Ilink", "Em3d", "Barnes"}

// sweepSpecs lists, before deduplication, the specs dsmbench -all -netsweep
// -size small plans for sweepApps.
func sweepSpecs() []runner.RunSpec {
	opts := bench.Options{Size: apps.SizeSmall, Apps: sweepApps}
	var all []runner.RunSpec
	all = append(all, bench.Table1Specs(opts.VariantOpts)...)
	all = append(all, bench.Table2Specs(opts)...)
	all = append(all, bench.Fig5Specs(opts)...)
	all = append(all, bench.Fig6Specs(opts)...)
	all = append(all, bench.Table3Specs(opts)...)
	all = append(all, bench.AblationSpecs(opts)...)
	all = append(all, bench.NetSweepSpecs(bench.Options{Size: apps.SizeSmall})...)
	return all
}

// pinnedSubsetSpecs is the plan behind internal/bench/testdata/
// equiv_small_subset.json; every spec in it is also in sweepSpecs.
func pinnedSubsetSpecs() []runner.RunSpec {
	opts := bench.Options{Size: apps.SizeSmall, Apps: []string{"SOR", "Water"}, Procs: []int{1, 4, 8}}
	return append(bench.Fig5Specs(opts), bench.Fig6Specs(opts)...)
}

func shuffled(rng *rand.Rand, jobs []job) []job {
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs
}

// clusterJobs crosses programs with variants and processor counts on the
// paper's layouts, skipping the layouts a variant cannot run.
func clusterJobs(progs []program, vs []string, procs ...int) []job {
	var jobs []job
	for _, pr := range progs {
		for _, n := range procs {
			l, err := variants.LayoutFor(n)
			if err != nil {
				panic(err) // the counts above are all paper layouts
			}
			for _, v := range vs {
				if !variants.Feasible(v, l) {
					continue
				}
				jobs = append(jobs, job{
					key: fmt.Sprintf("%s/%s/%d", pr.name, v, n), prog: pr.name, build: pr.build,
					variant: v, nodes: l.Nodes, ppn: l.PerNode, tol: pr.tol,
				})
			}
		}
	}
	return jobs
}

// accessPrograms keep each app's default-size footprint where the run time
// allows (SOR, Em3d, Water, Barnes) and cut iterations instead, so that the
// working set relative to the host's caches is the one a default-size sweep
// has; LU and Gauss are O(n^3) and shrink their matrices. Data seeds come
// from the benchmark seed where the amount of work does not depend on them.
func accessPrograms(rng *rand.Rand) []program {
	em := em3d.Default()
	em.Iters, em.Seed = 2, rng.Int63()
	bn := barnes.Default()
	bn.Steps, bn.Seed = 1, rng.Int63()
	gs := gauss.Config{N: 160, Seed: rng.Int63()}
	return []program{
		{"SOR", func() *core.Program { return sor.New(sor.Config{Rows: 384, Cols: 2048, Iters: 1}) }, 0},
		{"LU", func() *core.Program { return lu.New(lu.Config{N: 224, B: 32}) }, 0},
		{"Gauss", func() *core.Program { return gauss.New(gs) }, 0},
		{"Em3d", func() *core.Program { return em3d.New(em) }, 0},
		{"Water", func() *core.Program { return water.New(water.Config{Mols: 1024, Steps: 1}) }, 1e-6},
		{"Barnes", func() *core.Program { return barnes.New(bn) }, 0},
	}
}

// mixVariants are protocol_mix's variants: both protocols, polled and
// interrupt-driven, over the Memory Channel and over kernel UDP.
var mixVariants = []string{"csm_poll", "csm_int", "tmk_mc_poll", "tmk_udp_int"}

// mixPrograms are the four apps whose parallel runs are dominated by
// coherence traffic. Their data seeds are the registry's and their sizes are
// fixed: TreadMarks under kernel UDP disagrees with the oracle on some other
// sizes (Em3d 16384 nodes at 32 processors, Water 512 molecules x 2 steps and
// Barnes 1024 bodies at 16), and a workload must not fail, so every
// configuration here was checked under all four variants at 16 and 32.
func mixPrograms() (ilinkP, em3dP, waterP, barnesP program) {
	il := ilink.Default()
	il.Iters = 2
	em := em3d.Default()
	em.Nodes, em.Iters = 8192, 3
	bn := barnes.Default()
	bn.Steps = 1
	return program{"Ilink", func() *core.Program { return ilink.New(il) }, 0},
		program{"Em3d", func() *core.Program { return em3d.New(em) }, 0},
		program{"Water", func() *core.Program { return water.New(water.Config{Mols: 512, Steps: 1}) }, 1e-6},
		program{"Barnes", func() *core.Program { return barnes.New(bn) }, 0}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
