package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// EnvSwitchMarker annotates a function as a declared environment switch
// site: it may read a single SIM_*-prefixed variable (the documented
// SIM_NO_FASTPATH toggle). Everywhere else in a measured
// package, environment reads are flagged — a run's result must be a pure
// function of its RunSpec, never of ambient process state.
const EnvSwitchMarker = "dsmvet:env-switch"

// Nondeterminism flags host-level nondeterminism sources inside the
// measured packages (internal/{sim,core,cashmere,treadmarks,interconnect,vm} and
// internal/apps/...): wall-clock reads, the globally seeded math/rand
// top-level functions (only apputil.Rng's seeded rand.New(rand.NewSource)
// is allowed), crypto/rand, environment reads outside the declared SIM_*
// switch sites, and select statements with more than one communication case
// (the runtime chooses among ready cases pseudorandomly).
var Nondeterminism = &Analyzer{
	Name: "nondeterminism",
	Doc: "forbid wall clocks, unseeded randomness, undeclared env reads, " +
		"and runtime-randomized selects in measured packages",
	Run: runNondeterminism,
}

// wallClockFuncs are time-package functions that read the host clock or
// create wall-clock-driven channels/timers.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"After": true, "Tick": true, "NewTicker": true, "NewTimer": true,
}

// globalRandOK are the math/rand package-level functions that do NOT touch
// the global, randomly-seeded source: explicit-source constructors.
var globalRandOK = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
}

func runNondeterminism(pass *Pass) error {
	if !MeasuredPackage(pass.Path) {
		return nil
	}
	apputil := pathLeaf(pass.Path) == "apputil"
	for _, file := range pass.Files {
		if isTestFile(pass, file) {
			continue
		}
		for _, imp := range file.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			switch path {
			case "math/rand", "math/rand/v2":
				// apputil.Rng(seed) is the one sanctioned constructor of
				// application randomness; everything else must take a
				// *rand.Rand (or derived values) from it.
				if !apputil {
					pass.Reportf(imp.Pos(), "import of %s in measured package %s: derive randomness from apputil.Rng(seed) so every stream is seeded and reproducible", path, pass.Path)
				}
			case "crypto/rand":
				pass.Reportf(imp.Pos(), "import of crypto/rand in measured package %s: cryptographic randomness is inherently nondeterministic", pass.Path)
			}
		}
		inspectWithFunc(file, func(n ast.Node, fn *ast.FuncDecl) {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkNondetCall(pass, n, fn)
			case *ast.SelectStmt:
				comm := 0
				for _, clause := range n.Body.List {
					if c, ok := clause.(*ast.CommClause); ok && c.Comm != nil {
						comm++
					}
				}
				if comm >= 2 {
					pass.Reportf(n.Pos(), "select with %d communication cases: the runtime picks among ready cases pseudorandomly, so event order would depend on host scheduling; poll the channels in a fixed order instead", comm)
				}
			}
		})
	}
	return nil
}

func checkNondetCall(pass *Pass, call *ast.CallExpr, fn *ast.FuncDecl) {
	f := funcObj(pass.Info, call)
	if f == nil {
		return
	}
	pkgPath := objPkgPath(f)
	switch pkgPath {
	case "time":
		if f.Type().(*types.Signature).Recv() == nil && wallClockFuncs[f.Name()] {
			pass.Reportf(call.Pos(), "wall-clock time.%s in measured package %s: virtual time (sim.Time via Proc clocks) is the only clock allowed on measured paths", f.Name(), pass.Path)
		}
	case "math/rand", "math/rand/v2":
		if f.Type().(*types.Signature).Recv() == nil && !globalRandOK[f.Name()] {
			pass.Reportf(call.Pos(), "global rand.%s uses the shared, randomly-seeded source: derive a seeded stream from apputil.Rng(seed) instead", f.Name())
		}
	case "os":
		switch f.Name() {
		case "Getenv", "LookupEnv":
			if !envSwitchAllowed(pass, call, fn) {
				pass.Reportf(call.Pos(), "os.%s outside a declared %s site: environment reads make results depend on ambient process state; route new toggles through an annotated SIM_* switch function", f.Name(), EnvSwitchMarker)
			}
		case "Environ":
			pass.Reportf(call.Pos(), "os.Environ in measured package %s: environment reads make results depend on ambient process state", pass.Path)
		}
	}
}

// envSwitchAllowed reports whether an os.Getenv/os.LookupEnv call is a
// declared switch site: the enclosing function's doc comment carries the
// dsmvet:env-switch marker and the argument is a SIM_*-prefixed string
// constant.
func envSwitchAllowed(pass *Pass, call *ast.CallExpr, fn *ast.FuncDecl) bool {
	if fn == nil || !commentHasMarker(fn.Doc, EnvSwitchMarker) {
		return false
	}
	if len(call.Args) != 1 {
		return false
	}
	tv, ok := pass.Info.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return false
	}
	return strings.HasPrefix(constant.StringVal(tv.Value), "SIM_")
}

// isTestFile reports whether the file is a _test.go file. The loaders never
// parse test files, but analyzers guard anyway so a caller feeding its own
// files gets the documented exemption.
func isTestFile(pass *Pass, file *ast.File) bool {
	return strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go")
}
