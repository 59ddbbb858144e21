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
			c := sorConfig(s)
			return fmt.Sprintf("%dx%d, %d iters", c.Rows, c.Cols, c.Iters)
		},
		New:            func(s Size) *core.Program { return sor.New(sorConfig(s)) },
		CheckTolerance: 0,
	})
	register(Entry{
		Name: "LU",
		Problem: func(s Size) string {
			c := luConfig(s)
			return fmt.Sprintf("%dx%d, block %d", c.N, c.N, c.B)
		},
		New:            func(s Size) *core.Program { return lu.New(luConfig(s)) },
		CheckTolerance: 0,
	})
	register(Entry{
		Name: "Water",
		Problem: func(s Size) string {
			c := waterConfig(s)
			return fmt.Sprintf("%d mols, %d steps", c.Mols, c.Steps)
		},
		New: func(s Size) *core.Program { return water.New(waterConfig(s)) },
		// Force merge order depends on lock timing: tolerate rounding drift.
		CheckTolerance: 1e-6,
	})
	register(Entry{
		Name: "TSP",
		Problem: func(s Size) string {
			return fmt.Sprintf("%d cities", tspConfig(s).Cities)
		},
		New:            func(s Size) *core.Program { return tsp.New(tspConfig(s)) },
		CheckTolerance: 0,
	})
	register(Entry{
		Name: "Gauss",
		Problem: func(s Size) string {
			c := gaussConfig(s)
			return fmt.Sprintf("%dx%d", c.N, c.N)
		},
		New:            func(s Size) *core.Program { return gauss.New(gaussConfig(s)) },
		CheckTolerance: 0,
	})
	register(Entry{
		Name: "Ilink",
		Problem: func(s Size) string {
			c := ilinkConfig(s)
			return fmt.Sprintf("%dK elems, %.0f%% dense, %d iters", c.Elements/1024, c.Density*100, c.Iters)
		},
		New:            func(s Size) *core.Program { return ilink.New(ilinkConfig(s)) },
		CheckTolerance: 0,
	})
	register(Entry{
		Name: "Em3d",
		Problem: func(s Size) string {
			c := em3dConfig(s)
			return fmt.Sprintf("%d nodes, deg %d, %d iters", 2*c.Nodes, c.Degree, c.Iters)
		},
		New:            func(s Size) *core.Program { return em3d.New(em3dConfig(s)) },
		CheckTolerance: 0,
	})
	register(Entry{
		Name: "Barnes",
		Problem: func(s Size) string {
			c := barnesConfig(s)
			return fmt.Sprintf("%d bodies, %d steps", c.Bodies, c.Steps)
		},
		New:            func(s Size) *core.Program { return barnes.New(barnesConfig(s)) },
		CheckTolerance: 0,
	})
}

func sorConfig(s Size) sor.Config {
	if s == SizeSmall {
		return sor.Small()
	}
	return sor.Default()
}

func luConfig(s Size) lu.Config {
	if s == SizeSmall {
		return lu.Small()
	}
	return lu.Default()
}

func waterConfig(s Size) water.Config {
	if s == SizeSmall {
		return water.Small()
	}
	return water.Default()
}

func tspConfig(s Size) tsp.Config {
	if s == SizeSmall {
		return tsp.Small()
	}
	return tsp.Default()
}

func gaussConfig(s Size) gauss.Config {
	if s == SizeSmall {
		return gauss.Small()
	}
	return gauss.Default()
}

func ilinkConfig(s Size) ilink.Config {
	if s == SizeSmall {
		return ilink.Small()
	}
	return ilink.Default()
}

func em3dConfig(s Size) em3d.Config {
	if s == SizeSmall {
		return em3d.Small()
	}
	return em3d.Default()
}

func barnesConfig(s Size) barnes.Config {
	if s == SizeSmall {
		return barnes.Small()
	}
	return barnes.Default()
}
