package runner

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/variants"
)

// ErrInfeasible marks a spec whose variant cannot run at the requested
// layout (csm_pp dedicates one processor per node, so it cannot use all
// four, §4.3). Renderers print such cells as "-".
var ErrInfeasible = errors.New("runner: variant infeasible at this layout")

// Options configure one Execute call.
type Options struct {
	// Jobs bounds the number of simulations running concurrently on the
	// host. Zero or negative means runtime.NumCPU().
	Jobs int
	// OnProgress, if set, is called after each spec resolves (executed or
	// served from cache) with the number done so far, the plan total, and
	// how the run executed. Calls are serialized; done reaches total
	// exactly once.
	OnProgress func(done, total int, spec RunSpec, info RunInfo)
	// CacheDir, if non-empty, enables a persistent on-disk result cache:
	// successful results are written there after execution and reused by
	// later processes. Entries are keyed by the spec's canonical key and
	// the results schema version, so a schema bump invalidates the whole
	// cache. Failed and infeasible runs are never cached.
	CacheDir string
}

// RunInfo describes how one spec's run was satisfied, for progress display.
type RunInfo struct {
	// DiskCached marks a result loaded from Options.CacheDir rather than
	// executed (or memoized) in this process.
	DiskCached bool
}

// ResultSet holds the outcome of every spec in an executed plan, keyed by
// the spec's canonical key.
type ResultSet struct {
	order   []RunSpec
	results map[string]*outcome
}

type outcome struct {
	spec RunSpec
	res  *core.Result
	err  error
}

// Get returns the result for a spec (matched by canonical key). It returns
// ErrInfeasible for infeasible layouts, the run's error if it failed, or an
// error if the spec was not part of the executed plan.
func (rs *ResultSet) Get(spec RunSpec) (*core.Result, error) {
	o, ok := rs.results[spec.Key()]
	if !ok {
		return nil, fmt.Errorf("runner: spec %s/%s/p%d not in result set", spec.App, spec.Variant, spec.Procs)
	}
	return o.res, o.err
}

// Specs returns the executed specs in plan order.
func (rs *ResultSet) Specs() []RunSpec {
	out := make([]RunSpec, len(rs.order))
	copy(out, rs.order)
	return out
}

// Len returns the number of specs in the set.
func (rs *ResultSet) Len() int { return len(rs.order) }

// memo is the process-wide result cache. Entries are created under mu; the
// simulation itself runs inside the entry's once so concurrent Execute
// calls cannot duplicate work.
var memo = struct {
	mu sync.Mutex
	m  map[string]*memoEntry
}{m: map[string]*memoEntry{}}

type memoEntry struct {
	once     sync.Once
	res      *core.Result
	err      error
	fromDisk bool
}

// executions counts actual simulations run (cache misses) process-wide.
var executions atomic.Int64

// Executions returns the number of simulations actually executed by this
// process so far. The difference across calls proves cache behavior in
// tests: replaying a cached plan leaves it unchanged.
func Executions() int64 { return executions.Load() }

// ResetCache empties the memoization cache (for tests and benchmarks that
// need to measure or force re-execution).
func ResetCache() {
	memo.mu.Lock()
	memo.m = map[string]*memoEntry{}
	memo.mu.Unlock()
}

func lookup(key string) *memoEntry {
	memo.mu.Lock()
	e, ok := memo.m[key]
	if !ok {
		e = &memoEntry{}
		memo.m[key] = e
	}
	memo.mu.Unlock()
	return e
}

// run executes one spec's simulation (no caching).
func run(s RunSpec) (*core.Result, error) {
	if s.Size != apps.SizeSmall && s.Size != apps.SizeDefault {
		return nil, fmt.Errorf("runner: %s/%s/p%d: unknown size %q (want small or default)", s.App, s.Variant, s.Procs, s.Size)
	}
	nodes, ppn, err := layoutFor(s)
	if err != nil {
		return nil, err
	}
	cfg, err := variants.Config(s.Variant, nodes, ppn, s.Opts)
	if err != nil {
		return nil, err
	}
	prog, err := buildProgram(s)
	if err != nil {
		return nil, err
	}
	return core.Run(cfg, prog)
}

// Execute runs every spec in the plan, fanning out over a bounded worker
// pool. Each worker owns one whole deterministic simulation, so results are
// bit-identical at any Jobs setting. Specs already in the process-wide
// cache are served without re-executing. Execute itself only fails on an
// empty plan; per-spec failures (including ErrInfeasible) are reported
// through ResultSet.Get so renderers can decide what a failed cell means.
func Execute(plan *Plan, opts Options) (*ResultSet, error) {
	specs := plan.Specs()
	if len(specs) == 0 {
		return nil, errors.New("runner: empty plan")
	}
	jobs := opts.Jobs
	if jobs <= 0 {
		jobs = runtime.NumCPU()
	}
	if jobs > len(specs) {
		jobs = len(specs)
	}

	rs := &ResultSet{order: specs, results: make(map[string]*outcome, len(specs))}
	outcomes := make([]*outcome, len(specs))

	var (
		progressMu sync.Mutex
		done       int
	)
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				s := specs[i]
				e := lookup(s.Key())
				e.once.Do(func() {
					if opts.CacheDir != "" {
						if res, ok := loadDiskResult(opts.CacheDir, s.Key()); ok {
							e.res, e.fromDisk = res, true
							diskHits.Add(1)
							return
						}
					}
					e.res, e.err = run(s)
					if e.err == nil || !errors.Is(e.err, ErrInfeasible) {
						executions.Add(1)
					}
					if e.err == nil && opts.CacheDir != "" {
						// The disk cache is advisory: a write failure
						// (read-only dir, disk full) must not fail the run.
						_ = storeDiskResult(opts.CacheDir, s.Key(), e.res)
					}
				})
				outcomes[i] = &outcome{spec: s, res: e.res, err: e.err}
				if opts.OnProgress != nil {
					progressMu.Lock()
					done++
					opts.OnProgress(done, len(specs), s, RunInfo{DiskCached: e.fromDisk})
					progressMu.Unlock()
				}
			}
		}()
	}
	for i := range specs {
		work <- i
	}
	close(work)
	wg.Wait()

	for i, s := range specs {
		rs.results[s.Key()] = outcomes[i]
	}
	return rs, nil
}
