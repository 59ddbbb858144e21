package check

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/variants"
)

// litmusShapes returns the cluster shapes a test sweeps: cross-node placement
// and (for the protocols' SMP paths) co-located placement of the roles.
func litmusShapes(roles int) []Shape {
	if roles <= 2 {
		return []Shape{{2, 1}, {2, 2}}
	}
	return []Shape{{4, 1}, {2, 2}}
}

// OutcomeCount is one observed register assignment and how often it appeared.
type OutcomeCount struct {
	Outcome   string
	Count     int
	Forbidden bool
}

// LitmusRow aggregates one (test, variant) cell of the sweep.
type LitmusRow struct {
	Test    string
	Doc     string
	Sync    bool
	Variant string
	Runs    int
	// Outcomes is sorted by outcome string for deterministic reports.
	Outcomes []OutcomeCount
	// Violations describe forbidden outcomes that appeared (empty = healthy).
	Violations []string
	// Missing lists must-observe outcomes that never appeared.
	Missing []string
}

// LitmusReport is the full litmus sweep outcome.
type LitmusReport struct {
	Rows []LitmusRow
	Runs int
}

// litmusJob is one simulation of the sweep.
type litmusJob struct {
	test    Litmus
	variant string
	shape   Shape
	sched   sim.Schedule
	perm    int
}

// at names the job within its (test, variant) row: with the row, everything
// needed to re-run it.
func (j litmusJob) at() string {
	return fmt.Sprintf("shape %s, schedule seed %d, perm %d", j.shape, j.sched.Seed, j.perm)
}

// litmusJobs lists the sweep's simulations: every litmus test on every
// variant under p.Schedules perturbed schedules.
func litmusJobs(p Params) []litmusJob {
	var jobs []litmusJob
	for _, test := range Suite() {
		for _, variant := range variants.Names {
			shapes := litmusShapes(test.Roles)
			for i := 0; i < p.Schedules; i++ {
				// Rotate the shape fastest and the role permutation slowest
				// so the sweep covers every (shape, rotation) combination.
				perm := (i / len(shapes)) % test.Roles
				jobs = append(jobs, litmusJob{test, variant, shapes[i%len(shapes)], schedule(i), perm})
			}
		}
	}
	return jobs
}

// RunLitmus sweeps every litmus test across all six variants, its shapes,
// and perturbed schedules. Each individual run is deterministic given its
// (test, variant, shape, schedule seed, perm); the report aggregation is
// deterministic too, independent of worker interleaving.
func RunLitmus(p Params) (*LitmusReport, error) {
	jobs := litmusJobs(p)
	regs := make([][]int64, len(jobs))
	errs := make([]error, len(jobs))
	runPool(p.Jobs, len(jobs), func(j int) { regs[j], errs[j] = runLitmusJob(jobs[j]) })
	for j, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%s/%s (%s): %w", jobs[j].test.Name, jobs[j].variant, jobs[j].at(), err)
		}
	}

	// Aggregate in job order (deterministic), then sort outcome tables.
	type cell struct {
		test     Litmus
		row      LitmusRow
		outcomes map[string]int
		forb     map[string]bool
	}
	var order []string
	cells := map[string]*cell{}
	for j, job := range jobs {
		key := job.test.Name + "/" + job.variant
		c, ok := cells[key]
		if !ok {
			c = &cell{
				test: job.test,
				row: LitmusRow{
					Test: job.test.Name, Doc: job.test.Doc,
					Sync: job.test.Sync, Variant: job.variant,
				},
				outcomes: map[string]int{},
				forb:     map[string]bool{},
			}
			cells[key] = c
			order = append(order, key)
		}
		out := job.test.Format(regs[j])
		c.row.Runs++
		c.outcomes[out]++
		if job.test.Forbidden(regs[j]) {
			c.forb[out] = true
			if len(c.row.Violations) < 8 {
				c.row.Violations = append(c.row.Violations, fmt.Sprintf("forbidden outcome %s (%s)", out, job.at()))
			}
		}
	}
	report := &LitmusReport{Runs: len(jobs)}
	for _, key := range order {
		c := cells[key]
		names := make([]string, 0, len(c.outcomes))
		for out := range c.outcomes {
			names = append(names, out)
		}
		sort.Strings(names)
		for _, out := range names {
			c.row.Outcomes = append(c.row.Outcomes, OutcomeCount{
				Outcome: out, Count: c.outcomes[out], Forbidden: c.forb[out],
			})
		}
		for _, must := range c.test.MustObserve {
			if c.outcomes[c.test.Format(must)] == 0 {
				c.row.Missing = append(c.row.Missing,
					fmt.Sprintf("required outcome %s never observed in %d schedules", c.test.Format(must), c.row.Runs))
			}
		}
		report.Rows = append(report.Rows, c.row)
	}
	return report, nil
}

// runLitmusJob executes one litmus simulation and extracts its registers.
func runLitmusJob(job litmusJob) ([]int64, error) {
	cfg, err := variants.Config(job.variant, job.shape.Nodes, job.shape.PPN, variants.Options{Schedule: job.sched})
	if err != nil {
		return nil, err
	}
	res, err := core.Run(cfg, job.test.New(job.perm))
	if err != nil {
		return nil, fmt.Errorf("run failed: %w", err)
	}
	return job.test.outcome(res.Checks)
}

// runPool runs fn(0..n-1) on a fixed-width worker pool (GOMAXPROCS wide
// when workers <= 0).
func runPool(workers, n int, fn func(int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
