// Package analysis holds the repository's one static analyzer, maporder: no
// map iteration whose body leaks the host's randomized iteration order into
// slices, channels, struct fields, or formatted output (DESIGN.md §7a).
// TestRepositoryIsClean runs it over the whole module; `go test
// ./internal/analysis` is the gate. The same package's TestMeasuredImports
// pins the measured packages' imports, which is what keeps wall clocks,
// global randomness and environment reads off measured paths.
//
// The framework mirrors the golang.org/x/tools/go/analysis API shape — an
// Analyzer holding a Run function over a per-package Pass — but is
// self-contained: the module deliberately has no external dependencies, so
// the package loader (load.go) and the fixture harness (atest_test.go) are
// built here on go/parser, go/types, and go/importer alone.
//
// Test files (*_test.go) are exempt: they never run on a measured path, and
// the loader does not even parse them.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer is one named check. Run inspects a single type-checked package
// and reports findings through the Pass.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// A Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Path     string // package import path
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, located in resolved file:line:col form.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Analyzers returns the suite TestRepositoryIsClean runs.
func Analyzers() []*Analyzer {
	return []*Analyzer{MapOrder}
}

// Run applies each analyzer to each package and returns all findings sorted
// by position (file, line, column, analyzer). The diagnostics of a broken
// invariant are the product; an analyzer's own error (a nil Info, an
// unresolvable object) aborts the run.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Path:     pkg.Path,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				diags:    &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// funcObj resolves a call expression to the *types.Func it invokes (package
// functions and methods), or nil for builtins, conversions, and calls of
// function-typed values.
func funcObj(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fn
	case *ast.SelectorExpr:
		id = fn.Sel
	default:
		return nil
	}
	f, _ := info.Uses[id].(*types.Func)
	return f
}

// objPkgPath returns the import path of the package an object belongs to,
// or "" for builtins and universe-scope objects.
func objPkgPath(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}
