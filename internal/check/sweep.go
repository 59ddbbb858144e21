package check

import (
	"errors"
	"fmt"
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

// Failed reports whether the row violates the memory model or lacks coverage.
func (r LitmusRow) Failed() bool { return len(r.Violations) > 0 || len(r.Missing) > 0 }

// LitmusReport is the full litmus sweep outcome.
type LitmusReport struct {
	Rows []LitmusRow
	Runs int
	// FirstViolation replays the first forbidden outcome (nil when healthy).
	FirstViolation *Repro `json:",omitempty"`
}

// Failed reports whether any row failed.
func (r *LitmusReport) Failed() bool {
	for _, row := range r.Rows {
		if row.Failed() {
			return true
		}
	}
	return false
}

// litmusJob is one simulation of the sweep.
type litmusJob struct {
	test    Litmus
	variant string
	shape   Shape
	sched   sim.Schedule
	perm    int
}

// RunLitmus sweeps every litmus test across the configured variants, shapes,
// and perturbed schedules. Each individual run is deterministic given its
// (test, variant, shape, schedule seed); the report aggregation is
// deterministic too, independent of worker interleaving.
func RunLitmus(p Params) (*LitmusReport, error) {
	p = p.withDefaults()
	var jobs []litmusJob
	for _, test := range Suite() {
		for _, variant := range p.Variants {
			shapes := litmusShapes(test.Roles)
			for i := 0; i < p.Schedules; i++ {
				// Rotate the shape fastest and the role permutation slowest
				// so the sweep covers every (shape, rotation) combination.
				perm := (i / len(shapes)) % test.Roles
				jobs = append(jobs, litmusJob{test, variant, shapes[i%len(shapes)], p.schedule(i), perm})
			}
		}
	}
	regs := make([][]int64, len(jobs))
	errs := make([]error, len(jobs))
	runPool(p.Jobs, len(jobs), func(j int) {
		var reason string
		if regs[j], reason, errs[j] = runLitmusJob(jobs[j]); reason != "" {
			errs[j] = errors.New(reason)
		}
	})
	for j, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%s/%s/%s seed %d: %w",
				jobs[j].test.Name, jobs[j].variant, jobs[j].shape, jobs[j].sched.Seed, err)
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
	var firstViolation *Repro
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
				c.row.Violations = append(c.row.Violations,
					fmt.Sprintf("forbidden outcome %s (shape %s, schedule seed %d)",
						out, job.shape, job.sched.Seed))
			}
			if firstViolation == nil {
				firstViolation = &Repro{
					Kind: KindLitmus, Litmus: job.test.Name, Perm: job.perm,
					Variant: job.variant, Nodes: job.shape.Nodes, PPN: job.shape.PPN,
					Schedule: job.sched,
					Reason:   fmt.Sprintf("forbidden outcome %s", out),
				}
			}
		}
	}
	report := &LitmusReport{Runs: len(jobs), FirstViolation: firstViolation}
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
// Replay shares it, so a repro re-runs the sweep's exact simulation. The
// error is a variant that cannot be configured (a malformed job); a run that
// fails or leaves a register unreported is the reason.
func runLitmusJob(job litmusJob) (regs []int64, reason string, err error) {
	cfg, err := variants.Config(job.variant, job.shape.Nodes, job.shape.PPN, variants.Options{Schedule: job.sched})
	if err != nil {
		return nil, "", err
	}
	res, err := core.Run(cfg, job.test.New(job.perm))
	if err != nil {
		return nil, fmt.Sprintf("run failed: %v", err), nil
	}
	if regs, err = job.test.outcome(res.Checks); err != nil {
		return nil, err.Error(), nil
	}
	return regs, "", nil
}

// runPool runs fn(0..n-1) on a fixed-width worker pool.
func runPool(workers, n int, fn func(int)) {
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
