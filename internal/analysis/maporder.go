package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// MapOrder flags map iterations whose bodies can leak the host's randomized
// map iteration order into something order-sensitive: appends to a slice
// that outlives the loop, channel sends, writes to fields of structures
// declared outside the loop, and fmt-family output. Order-independent
// bodies — writes keyed by the range variables (map-to-map copies, keyed
// accumulation) and commutative integer updates (+=, counters) — are
// allowed, as is the standard collect-then-sort idiom: an append is exempt
// when a later statement in the same block passes the collecting slice to a
// sort/slices sorting function.
//
// In this repository the stakes are bit-determinism: event order inside the
// simulator and byte-identical rendered/serialized results outside it
// (DESIGN.md §3, §6a). Test files are exempt.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc: "forbid map iteration order from leaking into slices, channels, " +
		"struct fields, or formatted output",
	Run: runMapOrder,
}

var sortFuncs = map[string]map[string]bool{
	"sort": {
		"Strings": true, "Ints": true, "Float64s": true,
		"Slice": true, "SliceStable": true, "Sort": true, "Stable": true,
	},
	"slices": {
		"Sort": true, "SortFunc": true, "SortStableFunc": true,
	},
}

var fmtPrinters = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

// commutativeAssignOps are the compound assignments that are
// order-independent on integer operands.
var commutativeAssignOps = map[token.Token]bool{
	token.ADD_ASSIGN: true, token.SUB_ASSIGN: true, token.MUL_ASSIGN: true,
	token.AND_ASSIGN: true, token.OR_ASSIGN: true, token.XOR_ASSIGN: true,
}

func runMapOrder(pass *Pass) error {
	for _, file := range pass.Files {
		if isTestFile(pass, file) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			var list []ast.Stmt
			switch n := n.(type) {
			case *ast.BlockStmt:
				list = n.List
			case *ast.CaseClause:
				list = n.Body
			case *ast.CommClause:
				list = n.Body
			default:
				return true
			}
			for i, stmt := range list {
				rs, ok := unlabel(stmt).(*ast.RangeStmt)
				if ok && isMapRange(pass, rs) {
					checkMapRange(pass, rs, list[i+1:])
				}
			}
			return true
		})
	}
	return nil
}

// isTestFile reports whether the file is a _test.go file. The loaders never
// parse test files, but the analyzer guards anyway so a caller feeding its own
// files gets the documented exemption.
func isTestFile(pass *Pass, file *ast.File) bool {
	return strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go")
}

func unlabel(stmt ast.Stmt) ast.Stmt {
	for {
		ls, ok := stmt.(*ast.LabeledStmt)
		if !ok {
			return stmt
		}
		stmt = ls.Stmt
	}
}

func isMapRange(pass *Pass, rs *ast.RangeStmt) bool {
	t := pass.Info.TypeOf(rs.X)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// checkMapRange inspects one map-range body. rest holds the statements
// following the loop in its enclosing block, consulted for the
// collect-then-sort exemption.
func checkMapRange(pass *Pass, rs *ast.RangeStmt, rest []ast.Stmt) {
	keyVars := rangeVars(pass, rs)
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if n != rs && isMapRange(pass, n) {
				// A nested map range is analyzed on its own; attributing its
				// body to the outer loop would double-report.
				return false
			}
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "channel send inside map iteration: receivers observe values in the host's randomized map order")
		case *ast.CallExpr:
			checkMapRangeCall(pass, n, rs, keyVars, rest)
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				checkMapRangeWrite(pass, n, lhs, rs, keyVars)
			}
		}
		return true
	})
}

func checkMapRangeCall(pass *Pass, call *ast.CallExpr, rs *ast.RangeStmt, keyVars map[types.Object]bool, rest []ast.Stmt) {
	if f := funcObj(pass.Info, call); f != nil {
		if objPkgPath(f) == "fmt" && fmtPrinters[f.Name()] {
			pass.Reportf(call.Pos(), "fmt.%s inside map iteration: output lines appear in the host's randomized map order; collect and sort first", f.Name())
		}
		return
	}
	// Builtin append: flag when the destination outlives the loop and is not
	// keyed by a range variable, unless the collection is sorted afterwards.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "append" ||
		pass.Info.Uses[id] != types.Universe.Lookup("append") || len(call.Args) == 0 {
		return
	}
	dst := ast.Unparen(call.Args[0])
	if ix, ok := dst.(*ast.IndexExpr); ok && mentionsAny(pass, ix.Index, keyVars) {
		return // per-key bucket (m2[k] = append(m2[k], v)): order-independent
	}
	root := rootIdentObj(pass, dst)
	if root == nil || declaredWithin(root, rs.Body) {
		return // loop-local collection dies with the iteration
	}
	if keyVars[root] {
		return // appending to a structure owned by the map value itself
	}
	if sortedAfter(pass, rest, root) {
		return
	}
	pass.Reportf(call.Pos(), "append to %q inside map iteration collects values in the host's randomized map order; sort it immediately after the loop or iterate sorted keys", root.Name())
}

func checkMapRangeWrite(pass *Pass, assign *ast.AssignStmt, lhs ast.Expr, rs *ast.RangeStmt, keyVars map[types.Object]bool) {
	lhs = ast.Unparen(lhs)
	switch lhs := lhs.(type) {
	case *ast.IndexExpr:
		if mentionsAny(pass, lhs.Index, keyVars) {
			return // keyed by the range variable: order-independent
		}
		root := rootIdentObj(pass, lhs.X)
		if root == nil || declaredWithin(root, rs.Body) || keyVars[root] {
			return
		}
		pass.Reportf(lhs.Pos(), "write to %q at a loop-carried index inside map iteration: element order follows the host's randomized map order", root.Name())
	case *ast.SelectorExpr:
		root := rootIdentObj(pass, lhs)
		if root == nil || declaredWithin(root, rs.Body) || keyVars[root] {
			return
		}
		if commutativeAssignOps[assign.Tok] && isIntegerType(pass.Info.TypeOf(lhs)) {
			return // commutative integer accumulation: order-independent
		}
		pass.Reportf(lhs.Pos(), "write to field %s of %q inside map iteration: the surviving value depends on the host's randomized map order", lhs.Sel.Name, root.Name())
	}
}

// rangeVars returns the objects bound to the range's key and value.
func rangeVars(pass *Pass, rs *ast.RangeStmt) map[types.Object]bool {
	vars := map[types.Object]bool{}
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		id, ok := e.(*ast.Ident)
		if !ok {
			continue
		}
		if obj := pass.Info.Defs[id]; obj != nil {
			vars[obj] = true
		} else if obj := pass.Info.Uses[id]; obj != nil {
			vars[obj] = true
		}
	}
	return vars
}

// mentionsAny reports whether expr references any of the given objects.
func mentionsAny(pass *Pass, expr ast.Expr, objs map[types.Object]bool) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && objs[pass.Info.Uses[id]] {
			found = true
		}
		return !found
	})
	return found
}

// rootIdentObj walks selector/index/star/paren chains down to the base
// identifier and returns its object (nil if the base is not an identifier,
// e.g. a call result).
func rootIdentObj(pass *Pass, expr ast.Expr) types.Object {
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.Ident:
			if obj := pass.Info.Uses[e]; obj != nil {
				return obj
			}
			return pass.Info.Defs[e]
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		default:
			return nil
		}
	}
}

// declaredWithin reports whether the object is declared inside the node.
func declaredWithin(obj types.Object, n ast.Node) bool {
	return obj.Pos() != token.NoPos && n.Pos() <= obj.Pos() && obj.Pos() < n.End()
}

func isIntegerType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// sortedAfter reports whether any later statement in the loop's block sorts
// a collection rooted at obj (sort.* or slices.Sort*), the deterministic
// collect-then-sort idiom.
func sortedAfter(pass *Pass, rest []ast.Stmt, obj types.Object) bool {
	objs := map[types.Object]bool{obj: true}
	for _, stmt := range rest {
		es, ok := unlabel(stmt).(*ast.ExprStmt)
		if !ok {
			continue
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok {
			continue
		}
		f := funcObj(pass.Info, call)
		if f == nil {
			continue
		}
		names := sortFuncs[objPkgPath(f)]
		if names == nil || !names[f.Name()] {
			continue
		}
		for _, arg := range call.Args {
			if mentionsAny(pass, arg, objs) {
				return true
			}
		}
	}
	return false
}
