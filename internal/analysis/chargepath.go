package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// ChargePath checks that cross-processor byte movement in measured packages
// flows through the layers that charge latency and occupancy:
//
//   - Raw delivery: sim.Proc.Deliver and sim.Proc.NewMsg bypass the
//     msg.Endpoint send path (per-message cost, Transfer occupancy,
//     notification latency) and the interconnect accounting. Outside the sim
//     and interconnect layers themselves — and outside the msg package,
//     which is the sanctioned wrapper — a protocol calling them moves data
//     for free, silently skewing every virtual-time result.
//   - Free bytes: a call to the byte-moving entry points (msg.Endpoint
//     Send/Call/CallStart/Reply/ReplyClass, interconnect
//     Transfer/RemoteRead) whose `bytes` argument is a compile-time constant
//     <= 0 charges no occupancy at all; a literal 0 is almost always a
//     placeholder that was never filled in with the wire size.
var ChargePath = &Analyzer{
	Name: "chargepath",
	Doc: "require cross-node byte movement in measured packages to flow " +
		"through the charging layers (no raw Deliver/NewMsg, no constant " +
		"non-positive bytes arguments)",
	Run: runChargePath,
}

// chargeByteMethods maps receiver type → methods whose `bytes` parameter
// must not be a constant <= 0.
var chargeByteMethods = map[string]map[string]bool{
	"Endpoint": {
		"Send": true, "Call": true, "CallStart": true,
		"Reply": true, "ReplyClass": true,
	},
	"Interconnect": {
		"Transfer": true, "RemoteRead": true,
	},
}

func runChargePath(pass *Pass) error {
	leaf := pathLeaf(pass.Path)
	measured := MeasuredPackage(pass.Path)
	rawDelivery := measured && leaf != "sim" && leaf != "interconnect"
	freeBytes := measured || leaf == "msg"
	if !rawDelivery && !freeBytes {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			f := funcObj(pass.Info, call)
			if f == nil {
				return true
			}
			if rawDelivery && isSimProcMethod(f) && (f.Name() == "Deliver" || f.Name() == "NewMsg") {
				pass.Reportf(call.Pos(),
					"raw sim.Proc.%s bypasses the charging path: route the message through msg.Endpoint so per-message cost and occupancy are charged",
					f.Name())
			}
			if freeBytes {
				checkConstBytes(pass, call, f)
			}
			return true
		})
	}
	return nil
}

// isSimProcMethod reports whether f is a method on the Proc type of a
// package with path leaf "sim".
func isSimProcMethod(f *types.Func) bool {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	n := recvNamed(sig.Recv().Type())
	if n == nil || n.Obj().Name() != "Proc" {
		return false
	}
	pkg := n.Obj().Pkg()
	return pkg != nil && pathLeaf(pkg.Path()) == "sim"
}

// checkConstBytes flags a constant non-positive argument in the `bytes`
// parameter slot of the byte-moving entry points.
func checkConstBytes(pass *Pass, call *ast.CallExpr, f *types.Func) {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return
	}
	n := recvNamed(sig.Recv().Type())
	if n == nil {
		return
	}
	pkg := n.Obj().Pkg()
	if pkg == nil {
		return
	}
	leaf := pathLeaf(pkg.Path())
	if leaf != "msg" && leaf != "interconnect" {
		return
	}
	methods := chargeByteMethods[n.Obj().Name()]
	if methods == nil || !methods[f.Name()] {
		return
	}
	idx := -1
	for i := 0; i < sig.Params().Len(); i++ {
		if sig.Params().At(i).Name() == "bytes" {
			idx = i
			break
		}
	}
	if idx < 0 || idx >= len(call.Args) {
		return
	}
	arg := call.Args[idx]
	tv, ok := pass.Info.Types[arg]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return
	}
	if v, ok := constant.Int64Val(tv.Value); ok && v <= 0 {
		pass.Reportf(arg.Pos(),
			"constant %d bytes argument to %s.%s charges no occupancy: pass the actual wire size (header + payload)",
			v, n.Obj().Name(), f.Name())
	}
}
