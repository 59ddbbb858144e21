package analysis

import (
	"go/ast"
	"go/types"
)

// accessorLayers are the package-path leaves allowed to touch vm.Space page
// frames directly: the VM substrate itself and the layers that implement
// the charged accessor API on top of it (core's accessors, the two
// protocols' page-transfer and diff machinery). Everywhere else — the
// applications, examples, tools — every shared access must route through
// core.Proc accessors so fault, mprotect, cache, and traffic costs are
// charged (DESIGN.md §1).
var accessorLayers = map[string]bool{
	"vm":         true,
	"core":       true,
	"cashmere":   true,
	"treadmarks": true,
}

// frameMethods are the (*vm.Space) methods whose result is a page frame:
// Frame/EnsureFrame return it as a slice, ReadFrame/WriteFrame (the
// permission-split tables core's accessors test) as an array pointer.
var frameMethods = map[string]bool{
	"Frame":       true,
	"EnsureFrame": true,
	"ReadFrame":   true,
	"WriteFrame":  true,
}

// Accessor flags direct element access to vm.Space-backed page frames
// (indexing, slicing, dereferencing, or copy/append consumption of the
// results of frameMethods) outside the accessor layers.
var Accessor = &Analyzer{
	Name: "accessor",
	Doc: "forbid direct vm.Space frame access outside the layers that " +
		"charge fault and mprotect costs",
	Run: runAccessor,
}

func runAccessor(pass *Pass) error {
	if accessorLayers[pathLeaf(pass.Path)] {
		return nil
	}
	for _, file := range pass.Files {
		if isTestFile(pass, file) {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFrameAccess(pass, fn.Body)
		}
	}
	return nil
}

// checkFrameAccess flags frame-derived element accesses within one function
// body. Taint is tracked one assignment deep: a variable assigned from a
// frameMethods call is itself a frame.
func checkFrameAccess(pass *Pass, body *ast.BlockStmt) {
	tainted := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i < len(n.Lhs) && isFrameCall(pass, rhs) {
					if id, ok := ast.Unparen(n.Lhs[i]).(*ast.Ident); ok {
						if obj := pass.Info.Defs[id]; obj != nil {
							tainted[obj] = true
						} else if obj := pass.Info.Uses[id]; obj != nil {
							tainted[obj] = true
						}
					}
				}
			}
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IndexExpr:
			if isFrameExpr(pass, n.X, tainted) {
				pass.Reportf(n.Pos(), "direct index of a vm.Space page frame outside the accessor layer: route the access through core.Proc accessors so fault and mprotect costs are charged")
			}
		case *ast.SliceExpr:
			if isFrameExpr(pass, n.X, tainted) {
				pass.Reportf(n.Pos(), "direct slice of a vm.Space page frame outside the accessor layer: route the access through core.Proc accessors so fault and mprotect costs are charged")
			}
		case *ast.StarExpr:
			if isFrameExpr(pass, n.X, tainted) {
				pass.Reportf(n.Pos(), "direct dereference of a vm.Space page frame outside the accessor layer: route the access through core.Proc accessors so fault and mprotect costs are charged")
			}
		case *ast.CallExpr:
			id, ok := ast.Unparen(n.Fun).(*ast.Ident)
			if !ok {
				return true
			}
			obj := pass.Info.Uses[id]
			if obj != types.Universe.Lookup("copy") && obj != types.Universe.Lookup("append") {
				return true
			}
			for _, arg := range n.Args {
				// Bare frame values only: indexed/sliced arguments are
				// already reported by the cases above.
				switch ast.Unparen(arg).(type) {
				case *ast.IndexExpr, *ast.SliceExpr:
					continue
				}
				if isFrameExpr(pass, arg, tainted) {
					pass.Reportf(arg.Pos(), "vm.Space page frame passed to %s outside the accessor layer: bulk data movement must route through the charged accessor API", id.Name)
				}
			}
		}
		return true
	})
}

// isFrameExpr reports whether the expression denotes a page frame: a direct
// frameMethods call or a variable assigned from one.
func isFrameExpr(pass *Pass, expr ast.Expr, tainted map[types.Object]bool) bool {
	expr = ast.Unparen(expr)
	if isFrameCall(pass, expr) {
		return true
	}
	id, ok := expr.(*ast.Ident)
	return ok && tainted[pass.Info.Uses[id]]
}

// isFrameCall reports whether the expression is a call of one of the
// (*vm.Space) frameMethods (matched by method name, receiver type Space, and
// receiver package name vm).
func isFrameCall(pass *Pass, expr ast.Expr) bool {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	f, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || !frameMethods[f.Name()] {
		return false
	}
	recv := f.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	rt := recv.Type()
	if ptr, ok := rt.(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Space" && obj.Pkg() != nil && obj.Pkg().Name() == "vm"
}
