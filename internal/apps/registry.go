// Package apps registers the paper's eight benchmark applications (§4.2) so
// the harness and tools can construct them by name.
package apps

import (
	"fmt"
	"sort"

	"repro/internal/apps/barnes"
	"repro/internal/apps/em3d"
	"repro/internal/apps/gauss"
	"repro/internal/apps/ilink"
	"repro/internal/apps/lu"
	"repro/internal/apps/sor"
	"repro/internal/apps/tsp"
	"repro/internal/apps/water"
	"repro/internal/core"
)

// Size selects a dataset scale.
type Size string

// Dataset scales. Default approximates the paper's workload shape at a size
// a simulation sweep can complete; Small is for tests.
const (
	SizeSmall   Size = "small"
	SizeDefault Size = "default"
)

// Entry describes one registered application.
type Entry struct {
	// Name as reported in the paper's tables.
	Name string
	// Problem returns a human-readable problem-size string for the given
	// scale (Table 2's "Problem Size" column).
	Problem func(Size) string
	// New builds the program at the given scale.
	New func(Size) *core.Program
	// CheckTolerance is the relative tolerance for cross-protocol
	// validation of reported checks (0 = exact).
	CheckTolerance float64
}

// Disagreement returns the first way a run's reported checks disagree with the
// checks of the application's sequential run, the oracle, beyond
// CheckTolerance, or "" when they agree.
func (e Entry) Disagreement(got, oracle map[string]float64) string {
	return core.ChecksDisagree(got, oracle, e.CheckTolerance)
}

var registry = map[string]Entry{}

func register(e Entry) { registry[e.Name] = e }

// Get returns the application entry by (case-sensitive) name.
func Get(name string) (Entry, error) {
	e, ok := registry[name]
	if !ok {
		return Entry{}, fmt.Errorf("apps: unknown application %q (have %v)", name, Names())
	}
	return e, nil
}

// Names returns all registered application names, sorted in the paper's
// presentation order where possible.
func Names() []string {
	order := map[string]int{
		"SOR": 0, "LU": 1, "Water": 2, "TSP": 3,
		"Gauss": 4, "Ilink": 5, "Em3d": 6, "Barnes": 7,
	}
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		oi, iok := order[names[i]]
		oj, jok := order[names[j]]
		if iok && jok {
			return oi < oj
		}
		if iok != jok {
			return iok
		}
		return names[i] < names[j]
	})
	return names
}

func init() {
	register(Entry{
		Name: "SOR",
		Problem: func(s Size) string {
			c := sized(s, sor.Small, sor.Default)
			return fmt.Sprintf("%dx%d, %d iters", c.Rows, c.Cols, c.Iters)
		},
		New:            func(s Size) *core.Program { return sor.New(sized(s, sor.Small, sor.Default)) },
		CheckTolerance: 0,
	})
	register(Entry{
		Name: "LU",
		Problem: func(s Size) string {
			c := sized(s, lu.Small, lu.Default)
			return fmt.Sprintf("%dx%d, block %d", c.N, c.N, c.B)
		},
		New:            func(s Size) *core.Program { return lu.New(sized(s, lu.Small, lu.Default)) },
		CheckTolerance: 0,
	})
	register(Entry{
		Name: "Water",
		Problem: func(s Size) string {
			c := sized(s, water.Small, water.Default)
			return fmt.Sprintf("%d mols, %d steps", c.Mols, c.Steps)
		},
		New: func(s Size) *core.Program { return water.New(sized(s, water.Small, water.Default)) },
		// Force merge order depends on lock timing: tolerate rounding drift.
		CheckTolerance: 1e-6,
	})
	register(Entry{
		Name: "TSP",
		Problem: func(s Size) string {
			return fmt.Sprintf("%d cities", sized(s, tsp.Small, tsp.Default).Cities)
		},
		New:            func(s Size) *core.Program { return tsp.New(sized(s, tsp.Small, tsp.Default)) },
		CheckTolerance: 0,
	})
	register(Entry{
		Name: "Gauss",
		Problem: func(s Size) string {
			c := sized(s, gauss.Small, gauss.Default)
			return fmt.Sprintf("%dx%d", c.N, c.N)
		},
		New:            func(s Size) *core.Program { return gauss.New(sized(s, gauss.Small, gauss.Default)) },
		CheckTolerance: 0,
	})
	register(Entry{
		Name: "Ilink",
		Problem: func(s Size) string {
			c := sized(s, ilink.Small, ilink.Default)
			return fmt.Sprintf("%dK elems, %.0f%% dense, %d iters", c.Elements/1024, c.Density*100, c.Iters)
		},
		New:            func(s Size) *core.Program { return ilink.New(sized(s, ilink.Small, ilink.Default)) },
		CheckTolerance: 0,
	})
	register(Entry{
		Name: "Em3d",
		Problem: func(s Size) string {
			c := sized(s, em3d.Small, em3d.Default)
			return fmt.Sprintf("%d nodes, deg %d, %d iters", 2*c.Nodes, c.Degree, c.Iters)
		},
		New:            func(s Size) *core.Program { return em3d.New(sized(s, em3d.Small, em3d.Default)) },
		CheckTolerance: 0,
	})
	register(Entry{
		Name: "Barnes",
		Problem: func(s Size) string {
			c := sized(s, barnes.Small, barnes.Default)
			return fmt.Sprintf("%d bodies, %d steps", c.Bodies, c.Steps)
		},
		New:            func(s Size) *core.Program { return barnes.New(sized(s, barnes.Small, barnes.Default)) },
		CheckTolerance: 0,
	})
}

// sized returns an application's small configuration for SizeSmall and its
// default one otherwise; the runner and the CLIs reject every size but the
// two before a program is built.
func sized[C any](s Size, small, def func() C) C {
	if s == SizeSmall {
		return small()
	}
	return def()
}
