// Package analysis is test-only: TestMeasuredImports is the repository's one
// static check (DESIGN.md §7a). Everything else a static check could catch
// changes a pinned output (the goldens, the full-sweep sha256, the oracle
// gate) and fails there.
package analysis

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// measuredImports is what a measured package may import: nothing that reads
// a wall clock, a global random source, or the process environment, so a
// run's result stays a pure function of its RunSpec. Two files need one
// import more: sim.go reads SIM_NO_FASTPATH (sim.FastPathEnabled), and
// apputil seeds every application stream (apputil.Rng).
var measuredImports = map[string]bool{
	"fmt": true, "math": true, "sort": true, "strings": true, "iter": true, "encoding/binary": true,
}

var measuredImportExceptions = map[string]string{
	"os":        "internal/sim/sim.go",
	"math/rand": "internal/apps/apputil/apputil.go",
}

// TestMeasuredImports checks every non-test file of the measured packages
// (internal/{sim,core,cashmere,treadmarks,interconnect,vm,msg,cache} and
// internal/apps/... except the apptest harness) against measuredImports.
func TestMeasuredImports(t *testing.T) {
	fset := token.NewFileSet()
	for _, dir := range []string{"sim", "core", "cashmere", "treadmarks", "interconnect", "vm", "msg", "cache", "apps"} {
		files := 0
		err := filepath.WalkDir(filepath.Join("..", dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && (d.Name() == "apptest" || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				return err
			}
			files++
			rel := "internal/" + filepath.ToSlash(strings.TrimPrefix(path, ".."+string(filepath.Separator)))
			for _, imp := range f.Imports {
				p, _ := strconv.Unquote(imp.Path.Value)
				if !measuredImports[p] && !strings.HasPrefix(p, "repro/") && measuredImportExceptions[p] != rel {
					t.Errorf("%s imports %q: a measured package must not read a wall clock, a global random source or the environment", rel, p)
				}
			}
			return nil
		})
		if err != nil || files == 0 {
			t.Fatalf("internal/%s: %d Go files (%v); the package layout moved", dir, files, err)
		}
	}
}
