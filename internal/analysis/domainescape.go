package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// DomainEscape is the flow-aware, cross-function domain-escape prover: for
// every type in a package that declares a DomainSafe() bool method (a
// protocol), it classifies each protocol field reachable from the core.Proc
// entry points as node-confined, message-mediated, or cluster-global
// escaping, and reports a protocol that declares DomainSafe()==true while
// its escape inventory is non-empty.
//
// The classification mirrors the node-parallel engine's soundness argument
// (DESIGN.md §3b): under sim.SetParallel each node's processors run on their
// own host goroutine, so Go state a protocol touches must be either private
// to the accessing node or reached through the simulator's timestamped
// cross-domain messages.
//
//   - Entry contexts. Protocol methods invoked from the accessing
//     processor's goroutine (OnReadFault, OnWriteFault, OnSharedWrite, Lock,
//     Unlock, Barrier, Finalize) establish the *direct* context; Service —
//     invoked while servicing a request addressed to the processor —
//     establishes the *handler* (message-mediated) context; Setup, Name,
//     Counters, WantsWriteHook, DomainSafe, and MaxCostJitter run before the
//     processors start or after they stop (*quiescent*). Contexts propagate
//     over the intra-package call graph, except into entry methods
//     themselves: a re-entrant dispatch helper that forwards raw messages to
//     Service must not leak its caller's direct context into handler code.
//   - Rootedness. The receiver of an entry method is cluster-rooted; a field
//     selected from it becomes a root, and taint follows assignments, field
//     selection, indexing, address-taking, and call summaries (package-local
//     functions contribute their parameter and return taints, iterated to a
//     fixpoint).
//   - Self slots. An index that is provably the accessing processor's own
//     rank or node — p.Rank()/p.Node() on the entry's *core.Proc parameter, a
//     variable assigned from one, or a parameter that every call site feeds
//     such a value — confines the access to the accessing node: per-rank
//     slices and per-node flags are node-private even though the carrier
//     slice is shared.
//   - Access kinds. Writes (assignment, ++/--, delete, copy-into, element
//     stores), reads, may-mutate calls (a non-pure external method invoked
//     on a rooted value, e.g. interconnect WriteThrough/AccountTraffic), and
//     message payloads (a rooted value passed to a msg.Endpoint call, which
//     serializes it into the simulator's timestamped channel).
//
// A field escapes when a non-self mutation is reachable in the direct
// context; it is message-mediated when its only non-self mutations happen in
// the handler context (the remaining proof obligation — that every message
// targeting it is addressed to the owning node — is recorded in the report);
// it is node-confined otherwise (self slots, and reads of state that is
// immutable after Setup).
var DomainEscape = &Analyzer{
	Name: "domainescape",
	Doc: "prove which protocol host-state fields escape the accessing " +
		"node's scheduling domain and check DomainSafe() declarations " +
		"against the escape inventory",
	Run: runDomainEscape,
}

// ProtocolReport is the machine-readable domain-safety report for one
// protocol type, emitted by dsmvet -json and pinned by golden tests.
type ProtocolReport struct {
	Package string `json:"package"`
	Type    string `json:"type"`
	// DeclaredSafe is the literal DomainSafe() result when the body is a
	// plain `return true/false`, else nil.
	DeclaredSafe *bool `json:"declaredDomainSafe,omitempty"`
	// Escaping lists fields mutated directly from a foreign node's
	// goroutine: every entry forces DomainSafe()==false.
	Escaping []FieldUse `json:"escaping"`
	// MessageMediated lists fields whose only cross-processor mutations
	// happen while servicing addressed requests. They are safe under the
	// node-parallel engine iff every message that reaches them is addressed
	// to a processor of the owning node.
	MessageMediated []FieldUse `json:"messageMediated"`
	// NodeConfined lists fields proved confined: self-slot access only, or
	// immutable after Setup.
	NodeConfined []string `json:"nodeConfined"`
}

// FieldUse is one field → call-path pair in a domain-safety report.
type FieldUse struct {
	// Root is the protocol field the access is reached through.
	Root string `json:"root"`
	// Field is the accessed field (Type.name), possibly nested under Root.
	Field string `json:"field"`
	// Kind is the worst access: "write", "may-mutate", "message", "read".
	Kind string `json:"kind"`
	// Contexts lists the entry contexts reaching the access.
	Contexts []string `json:"contexts"`
	// Entries lists the protocol entry points the access is reachable from.
	Entries []string `json:"entries"`
	// Path is a representative call path from an entry to the accessing
	// function.
	Path []string `json:"path"`
	// Pos locates a representative access (file:line); cleared in goldens.
	Pos string `json:"pos,omitempty"`
}

// Entry-point context assignment.
type dctx int

const (
	ctxDirect dctx = iota
	ctxHandler
	ctxQuiescent
	numCtx
)

func (c dctx) String() string {
	switch c {
	case ctxDirect:
		return "direct"
	case ctxHandler:
		return "handler"
	}
	return "quiescent"
}

var escEntryCtx = map[string]dctx{
	"OnReadFault":    ctxDirect,
	"OnWriteFault":   ctxDirect,
	"OnSharedWrite":  ctxDirect,
	"Lock":           ctxDirect,
	"Unlock":         ctxDirect,
	"Barrier":        ctxDirect,
	"Finalize":       ctxDirect,
	"Service":        ctxHandler,
	"Setup":          ctxQuiescent,
	"Name":           ctxQuiescent,
	"Counters":       ctxQuiescent,
	"WantsWriteHook": ctxQuiescent,
	"DomainSafe":     ctxQuiescent,
	"MaxCostJitter":  ctxQuiescent,
}

// escPureMethods lists external methods (pkgleaf.Type.Method) that neither
// mutate their receiver's cluster-visible state nor retain their arguments:
// calling one on a rooted value is a read, and its result carries the
// receiver's taint. Everything external and not listed is conservatively a
// may-mutate on rooted reference arguments.
var escPureMethods = map[string]bool{
	// core.Runtime getters.
	"core.Runtime.Net":                true,
	"core.Runtime.Engine":             true,
	"core.Runtime.Config":             true,
	"core.Runtime.Program":            true,
	"core.Runtime.NumPages":           true,
	"core.Runtime.InitialPage":        true,
	"core.Runtime.ComputeProcs":       true,
	"core.Runtime.ComputeProcsOnNode": true,
	"core.Runtime.ProcByRank":         true,
	"core.Runtime.ProcBySimID":        true,
	"core.Runtime.ServerProc":         true,
	// core.Proc getters (safe on procs resolved through the runtime).
	"core.Proc.EP":    true,
	"core.Proc.Rank":  true,
	"core.Proc.Node":  true,
	"core.Proc.Sim":   true,
	"core.Proc.Space": true,
	"core.Proc.Costs": true,
	"core.Proc.Stats": true,
	// interconnect read-only contract methods.
	"interconnect.Interconnect.Caps":                true,
	"interconnect.Interconnect.Kind":                true,
	"interconnect.Interconnect.FenceTime":           true,
	"interconnect.Interconnect.MinCrossNodeLatency": true,
	"interconnect.Interconnect.InterruptSendCost":   true,
	"interconnect.Interconnect.InterruptLatency":    true,
	"interconnect.Interconnect.TrafficBytes":        true,
	"interconnect.Interconnect.TotalTraffic":        true,
	"interconnect.Interconnect.Transfers":           true,
	"interconnect.Interconnect.Interrupts":          true,
	"interconnect.WordArray.Read":                   true,
	// Engine/sim getters.
	"sim.Engine.Config": true,
	"sim.Engine.Proc":   true,
	"sim.Proc.Now":      true,
}

// escPureFuncs lists external package-level functions that are pure for
// taint purposes (pkgleaf.Func).
var escPureFuncs = map[string]bool{
	"fmt.Sprintf":     true,
	"fmt.Sprint":      true,
	"fmt.Sprintln":    true,
	"fmt.Errorf":      true,
	"fmt.Printf":      true,
	"fmt.Println":     true,
	"fmt.Fprintf":     true,
	"vm.PageOf":       true,
	"vm.Offset":       true,
	"vm.SuperpageOf":  true,
	"sort.SearchInts": true,
}

type accessKind int

const (
	kRead accessKind = iota
	kMessage
	kMayMutate
	kWrite
)

func (k accessKind) String() string {
	switch k {
	case kWrite:
		return "write"
	case kMayMutate:
		return "may-mutate"
	case kMessage:
		return "message"
	}
	return "read"
}

// escTaint marks a value as reachable from protocol host state: root is the
// protocol field it was reached through (nil for the protocol receiver
// itself), and self reports that the path went through a self-rank/self-node
// slot.
type escTaint struct {
	root *types.Var
	self bool
}

// escAccess is one recorded field access.
type escAccess struct {
	root  *types.Var // protocol field reached through (never nil)
	field *types.Var // accessed field; may equal root for element/alias writes
	kind  accessKind
	self  bool
	fn    *escFunc
	pos   token.Pos
}

// escFunc is the per-function fixpoint state.
type escFunc struct {
	decl *ast.FuncDecl
	obj  *types.Func

	entryName string // non-empty for protocol entry methods
	ctxs      [numCtx]bool
	entries   [numCtx]map[string]bool
	parent    [numCtx]*escFunc

	params        []*types.Var // receiver (methods) then parameters, in order
	paramTaint    []map[escTaint]bool
	paramSelfProc []bool // param is always the accessing processor
	paramSelfIdx  []bool // param is always a self-rank/node index

	// retGlobals summarizes the protocol-field taints the function returns.
	retGlobals map[escTaint]bool
}

func (f *escFunc) anyCtx() bool {
	return f.ctxs[ctxDirect] || f.ctxs[ctxHandler] || f.ctxs[ctxQuiescent]
}

// escAnalysis is one protocol's whole-package analysis.
type escAnalysis struct {
	fset  *token.FileSet
	info  *types.Info
	pkg   *types.Package
	proto *types.Named // protocol type
	roots map[*types.Var]bool

	funcs   map[*types.Func]*escFunc
	ordered []*escFunc

	dirty    bool
	record   bool
	accesses []escAccess
}

func runDomainEscape(pass *Pass) error {
	reports, diags, err := domainReports(pass.Path, pass.Fset, pass.Files, pass.Pkg, pass.Info)
	if err != nil {
		return err
	}
	_ = reports
	for _, d := range diags {
		pass.Reportf(d.pos, "%s", d.msg)
	}
	return nil
}

type escDiag struct {
	pos token.Pos
	msg string
}

// DomainEscapeReports builds the per-protocol domain-safety reports for the
// given packages, in deterministic order. It is the API behind dsmvet -json
// and the golden tests.
func DomainEscapeReports(pkgs []*Package) ([]ProtocolReport, error) {
	var out []ProtocolReport
	for _, pkg := range pkgs {
		reports, _, err := domainReports(pkg.Path, pkg.Fset, pkg.Files, pkg.Types, pkg.Info)
		if err != nil {
			return nil, err
		}
		out = append(out, reports...)
	}
	return out, nil
}

// domainReports analyzes one package: one report (and possibly one
// diagnostic) per type declaring a DomainSafe() bool method.
func domainReports(path string, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]ProtocolReport, []escDiag, error) {
	type protoDecl struct {
		typ  *types.Named
		decl *ast.FuncDecl // the DomainSafe method
	}
	var protos []protoDecl
	for _, file := range files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name != "DomainSafe" || fn.Recv == nil {
				continue
			}
			obj, _ := info.Defs[fn.Name].(*types.Func)
			if obj == nil {
				continue
			}
			sig := obj.Type().(*types.Signature)
			if sig.Results().Len() != 1 {
				continue
			}
			if b, ok := sig.Results().At(0).Type().Underlying().(*types.Basic); !ok || b.Kind() != types.Bool {
				continue
			}
			named := recvNamed(sig.Recv().Type())
			if named == nil {
				continue
			}
			protos = append(protos, protoDecl{typ: named, decl: fn})
		}
	}
	sort.Slice(protos, func(i, j int) bool { return protos[i].typ.Obj().Name() < protos[j].typ.Obj().Name() })

	var reports []ProtocolReport
	var diags []escDiag
	for _, pd := range protos {
		a := &escAnalysis{
			fset:  fset,
			info:  info,
			pkg:   pkg,
			proto: pd.typ,
			roots: map[*types.Var]bool{},
		}
		rep, err := a.run(path, files)
		if err != nil {
			return nil, nil, err
		}
		rep.DeclaredSafe = literalBoolReturn(pd.decl)
		reports = append(reports, rep)
		if rep.DeclaredSafe != nil && *rep.DeclaredSafe && len(rep.Escaping) > 0 {
			var roots []string
			seen := map[string]bool{}
			for _, fu := range rep.Escaping {
				if !seen[fu.Root] {
					seen[fu.Root] = true
					roots = append(roots, fu.Root)
				}
			}
			diags = append(diags, escDiag{
				pos: pd.decl.Name.Pos(),
				msg: fmt.Sprintf("%s declares DomainSafe()==true but %d field access(es) escape the accessing node's domain (roots: %s): confine the state to self slots or mediate it through addressed messages, or declare DomainSafe()==false",
					pd.typ.Obj().Name(), len(rep.Escaping), strings.Join(roots, ", ")),
			})
		}
	}
	return reports, diags, nil
}

// recvNamed unwraps a receiver type to its named type.
func recvNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// literalBoolReturn extracts the constant result of a `return true/false`
// single-statement body, or nil.
func literalBoolReturn(fn *ast.FuncDecl) *bool {
	if fn.Body == nil || len(fn.Body.List) != 1 {
		return nil
	}
	ret, ok := fn.Body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return nil
	}
	id, ok := ast.Unparen(ret.Results[0]).(*ast.Ident)
	if !ok || (id.Name != "true" && id.Name != "false") {
		return nil
	}
	v := id.Name == "true"
	return &v
}

// run performs the fixpoint and builds the report.
func (a *escAnalysis) run(path string, files []*ast.File) (ProtocolReport, error) {
	if st, ok := a.proto.Underlying().(*types.Struct); ok {
		for i := 0; i < st.NumFields(); i++ {
			a.roots[st.Field(i)] = true
		}
	}
	a.collectFuncs(files)
	a.seedEntries()

	for round := 0; round < 64; round++ {
		a.dirty = false
		for _, f := range a.ordered {
			if f.anyCtx() {
				a.walk(f)
			}
		}
		if !a.dirty {
			break
		}
	}
	a.record = true
	for _, f := range a.ordered {
		if f.anyCtx() {
			a.walk(f)
		}
	}
	return a.report(path), nil
}

// collectFuncs indexes every function declaration of the package, in source
// order.
func (a *escAnalysis) collectFuncs(files []*ast.File) {
	a.funcs = map[*types.Func]*escFunc{}
	for _, file := range files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			obj, _ := a.info.Defs[fn.Name].(*types.Func)
			if obj == nil {
				continue
			}
			ef := &escFunc{decl: fn, obj: obj}
			if fn.Recv != nil && len(fn.Recv.List) == 1 {
				if len(fn.Recv.List[0].Names) == 1 {
					v, _ := a.info.Defs[fn.Recv.List[0].Names[0]].(*types.Var)
					ef.params = append(ef.params, v)
				} else {
					ef.params = append(ef.params, nil)
				}
			}
			if fn.Type.Params != nil {
				for _, field := range fn.Type.Params.List {
					if len(field.Names) == 0 {
						ef.params = append(ef.params, nil)
						continue
					}
					for _, name := range field.Names {
						v, _ := a.info.Defs[name].(*types.Var)
						ef.params = append(ef.params, v)
					}
				}
			}
			n := len(ef.params)
			ef.paramTaint = make([]map[escTaint]bool, n)
			ef.paramSelfProc = make([]bool, n)
			ef.paramSelfIdx = make([]bool, n)
			for i := range ef.params {
				ef.paramTaint[i] = map[escTaint]bool{}
				// Optimistic defaults, downgraded at call sites; entries are
				// re-seeded pessimistically below.
				ef.paramSelfProc[i] = true
				ef.paramSelfIdx[i] = true
			}
			for c := dctx(0); c < numCtx; c++ {
				ef.entries[c] = map[string]bool{}
			}
			a.funcs[obj] = ef
			a.ordered = append(a.ordered, ef)
		}
	}
}

// seedEntries marks the protocol's entry methods with their contexts, roots
// their receivers, and pins their parameter self-ness: only the *core.Proc
// parameter is the accessing processor; integer entry parameters (page ids,
// lock ids, addresses) are never self indexes.
func (a *escAnalysis) seedEntries() {
	for _, f := range a.ordered {
		if f.decl.Recv == nil {
			continue
		}
		sig := f.obj.Type().(*types.Signature)
		if recvNamed(sig.Recv().Type()) != a.proto {
			continue
		}
		ctx, ok := escEntryCtx[f.obj.Name()]
		if !ok {
			continue
		}
		f.entryName = f.obj.Name()
		f.ctxs[ctx] = true
		f.entries[ctx][f.entryName] = true
		if len(f.params) > 0 && f.params[0] != nil {
			f.paramTaint[0][escTaint{}] = true // the receiver is cluster-rooted
		}
		for i, v := range f.params {
			f.paramSelfIdx[i] = false
			f.paramSelfProc[i] = i > 0 && v != nil && isCoreProc(v.Type())
		}
	}
}

// isCoreProc reports whether t is *Proc of a package whose path leaf is
// "core" (the kernel's processor handle).
func isCoreProc(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	n, ok := p.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Proc" && obj.Pkg() != nil && pathLeaf(obj.Pkg().Path()) == "core"
}

// ---------------------------------------------------------------------------
// Function-body walker

// escEnv is the per-walk local state of one function.
type escEnv struct {
	a *escAnalysis
	f *escFunc

	locTaint    map[types.Object]map[escTaint]bool
	locSelf     map[types.Object]bool // holds a self rank/node value
	locSelfProc map[types.Object]bool // holds the accessing *core.Proc
}

func (a *escAnalysis) walk(f *escFunc) {
	e := &escEnv{
		a:           a,
		f:           f,
		locTaint:    map[types.Object]map[escTaint]bool{},
		locSelf:     map[types.Object]bool{},
		locSelfProc: map[types.Object]bool{},
	}
	e.block(f.decl.Body)
}

func (e *escEnv) block(b *ast.BlockStmt) {
	if b == nil {
		return
	}
	for _, s := range b.List {
		e.stmt(s)
	}
}

func (e *escEnv) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		e.block(s)
	case *ast.ExprStmt:
		e.expr(s.X)
	case *ast.AssignStmt:
		e.assign(s)
	case *ast.IncDecStmt:
		e.write(s.X, kWrite, s.Pos())
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					var t map[escTaint]bool
					if i < len(vs.Values) {
						t = e.expr(vs.Values[i])
					}
					e.bind(name, t, false, false)
				}
			}
		}
	case *ast.IfStmt:
		e.stmt(s.Init)
		e.expr(s.Cond)
		e.block(s.Body)
		e.stmt(s.Else)
	case *ast.ForStmt:
		e.stmt(s.Init)
		if s.Cond != nil {
			e.expr(s.Cond)
		}
		e.stmt(s.Post)
		e.block(s.Body)
	case *ast.RangeStmt:
		t := e.expr(s.X)
		if s.Key != nil {
			if id, ok := ast.Unparen(s.Key).(*ast.Ident); ok && s.Tok == token.DEFINE {
				e.bind(id, nil, false, false)
			}
		}
		if s.Value != nil {
			if id, ok := ast.Unparen(s.Value).(*ast.Ident); ok && s.Tok == token.DEFINE {
				e.bind(id, t, false, false)
			}
		}
		e.block(s.Body)
	case *ast.SwitchStmt:
		e.stmt(s.Init)
		if s.Tag != nil {
			e.expr(s.Tag)
		}
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			for _, x := range cc.List {
				e.expr(x)
			}
			for _, st := range cc.Body {
				e.stmt(st)
			}
		}
	case *ast.TypeSwitchStmt:
		e.stmt(s.Init)
		var tagTaint map[escTaint]bool
		switch as := s.Assign.(type) {
		case *ast.AssignStmt:
			if len(as.Rhs) == 1 {
				if ta, ok := ast.Unparen(as.Rhs[0]).(*ast.TypeAssertExpr); ok {
					tagTaint = e.expr(ta.X)
				}
			}
		case *ast.ExprStmt:
			if ta, ok := ast.Unparen(as.X).(*ast.TypeAssertExpr); ok {
				tagTaint = e.expr(ta.X)
			}
		}
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			if obj := e.a.info.Implicits[cc]; obj != nil && tagTaint != nil {
				e.locTaint[obj] = union(e.locTaint[obj], tagTaint)
			}
			for _, st := range cc.Body {
				e.stmt(st)
			}
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			t := e.expr(r)
			for el := range t {
				e.addRet(el)
			}
		}
	case *ast.DeferStmt:
		e.expr(s.Call)
	case *ast.GoStmt:
		e.expr(s.Call)
	case *ast.SendStmt:
		e.expr(s.Chan)
		e.expr(s.Value)
	case *ast.LabeledStmt:
		e.stmt(s.Stmt)
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			e.stmt(cc.Comm)
			for _, st := range cc.Body {
				e.stmt(st)
			}
		}
	case *ast.BranchStmt, *ast.EmptyStmt:
	default:
		// Conservative fallback: evaluate any expressions found below.
		ast.Inspect(s, func(n ast.Node) bool {
			if x, ok := n.(ast.Expr); ok {
				e.expr(x)
				return false
			}
			return true
		})
	}
}

// retTaints is stored per function via addRet.
func (e *escEnv) addRet(el escTaint) {
	if e.f.retGlobals == nil {
		e.f.retGlobals = map[escTaint]bool{}
	}
	if !e.f.retGlobals[el] {
		e.f.retGlobals[el] = true
		e.a.dirty = true
	}
}

// assign handles = and := (including compound ops), binding locals and
// recording writes through rooted destinations.
func (e *escEnv) assign(s *ast.AssignStmt) {
	var rhs []map[escTaint]bool
	for _, r := range s.Rhs {
		rhs = append(rhs, e.expr(r))
	}
	for i, lhs := range s.Lhs {
		var t map[escTaint]bool
		if len(s.Rhs) == len(s.Lhs) {
			t = rhs[i]
		} else if len(rhs) == 1 {
			t = rhs[0] // multi-value call: every binding gets the call taint
		}
		if s.Tok == token.DEFINE {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				self, selfProc := false, false
				if len(s.Rhs) == len(s.Lhs) {
					self = e.isSelfIdx(s.Rhs[i])
					selfProc = e.isSelfProc(s.Rhs[i])
				}
				e.bind(id, t, self, selfProc)
				continue
			}
		}
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
			if id.Name == "_" {
				continue
			}
			obj := e.a.info.Uses[id]
			if obj == nil {
				obj = e.a.info.Defs[id]
			}
			_, isParam := e.paramIndex(obj)
			if isParam || e.isLocalVar(obj) {
				// Rebinding a local (or parameter) is not a mutation of
				// rooted state — the old referent is untouched.
				self, selfProc := false, false
				if len(s.Rhs) == len(s.Lhs) {
					self = e.isSelfIdx(s.Rhs[i])
					selfProc = e.isSelfProc(s.Rhs[i])
				}
				e.bindObj(obj, t, self, selfProc)
				continue
			}
		}
		e.write(lhs, kWrite, lhs.Pos())
	}
}

// isLocalVar reports whether obj is a function-scoped variable of the
// current function (as opposed to a package-level variable or field).
func (e *escEnv) isLocalVar(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return false
	}
	if obj.Parent() == nil {
		return false
	}
	scope := e.a.pkg.Scope()
	return obj.Parent() != scope && obj.Parent() != types.Universe
}

func (e *escEnv) bind(id *ast.Ident, t map[escTaint]bool, self, selfProc bool) {
	if id.Name == "_" {
		return
	}
	obj := e.a.info.Defs[id]
	if obj == nil {
		obj = e.a.info.Uses[id]
	}
	e.bindObj(obj, t, self, selfProc)
}

func (e *escEnv) bindObj(obj types.Object, t map[escTaint]bool, self, selfProc bool) {
	if obj == nil {
		return
	}
	if len(t) > 0 && refLike(obj.Type()) {
		e.locTaint[obj] = union(e.locTaint[obj], t)
	}
	if self {
		e.locSelf[obj] = true
	}
	if selfProc {
		e.locSelfProc[obj] = true
	}
}

// write records a mutation through lhs: element stores and field stores on
// rooted values are writes against the root.
func (e *escEnv) write(lhs ast.Expr, kind accessKind, pos token.Pos) {
	lhs = ast.Unparen(lhs)
	switch x := lhs.(type) {
	case *ast.Ident:
		// Rebindings were filtered in assign; an ident reaching here is a
		// copy/delete destination (or a package-level var) — a mutation of
		// whatever the ident's value aliases.
		for el := range e.identTaint(x) {
			if el.root != nil {
				e.recordAccess(el.root, el.root, kind, el.self, pos)
			}
		}
	case *ast.SelectorExpr:
		sel := e.a.info.Selections[x]
		if sel == nil || sel.Kind() != types.FieldVal {
			e.expr(x.X)
			return
		}
		fld, _ := sel.Obj().(*types.Var)
		base := e.expr(x.X)
		for el := range base {
			if el.root == nil {
				if e.a.roots[fld] {
					e.recordAccess(fld, fld, kind, el.self, pos)
				}
			} else {
				e.recordAccess(el.root, fld, kind, el.self, pos)
			}
		}
	case *ast.IndexExpr:
		self := e.isSelfIdx(x.Index)
		e.expr(x.Index)
		e.writeElem(x.X, kind, self, pos)
	case *ast.StarExpr:
		t := e.expr(x.X)
		for el := range t {
			if el.root != nil {
				e.recordAccess(el.root, el.root, kind, el.self, pos)
			}
		}
	default:
		e.expr(lhs)
	}
}

// writeElem records an element store through expr's taint, with self already
// known from an enclosing index.
func (e *escEnv) writeElem(x ast.Expr, kind accessKind, self bool, pos token.Pos) {
	x = ast.Unparen(x)
	if ix, ok := x.(*ast.IndexExpr); ok {
		e.expr(ix.Index)
		e.writeElem(ix.X, kind, self || e.isSelfIdx(ix.Index), pos)
		return
	}
	if sx, ok := x.(*ast.SelectorExpr); ok {
		if sel := e.a.info.Selections[sx]; sel != nil && sel.Kind() == types.FieldVal {
			fld, _ := sel.Obj().(*types.Var)
			base := e.expr(sx.X)
			for el := range base {
				if el.root == nil {
					if e.a.roots[fld] {
						e.recordAccess(fld, fld, kind, self || el.self, pos)
					}
				} else {
					e.recordAccess(el.root, fld, kind, self || el.self, pos)
				}
			}
			return
		}
	}
	t := e.expr(x)
	for el := range t {
		if el.root != nil {
			e.recordAccess(el.root, el.root, kind, self || el.self, pos)
		}
	}
}

func (e *escEnv) recordAccess(root, fld *types.Var, kind accessKind, self bool, pos token.Pos) {
	if !e.a.record || root == nil {
		return
	}
	e.a.accesses = append(e.a.accesses, escAccess{
		root: root, field: fld, kind: kind, self: self, fn: e.f, pos: pos,
	})
}

// ---------------------------------------------------------------------------
// Expression evaluation

// expr evaluates x, records reads of rooted fields, and returns x's taints.
func (e *escEnv) expr(x ast.Expr) map[escTaint]bool {
	if x == nil {
		return nil
	}
	switch x := x.(type) {
	case *ast.Ident:
		return e.identTaint(x)
	case *ast.ParenExpr:
		return e.expr(x.X)
	case *ast.SelectorExpr:
		sel := e.a.info.Selections[x]
		if sel == nil {
			// Qualified identifier (pkg.Name).
			return nil
		}
		if sel.Kind() != types.FieldVal {
			// Method value: evaluate the receiver only.
			e.expr(x.X)
			return nil
		}
		fld, _ := sel.Obj().(*types.Var)
		base := e.expr(x.X)
		out := map[escTaint]bool{}
		for el := range base {
			if el.root == nil {
				if e.a.roots[fld] {
					e.recordAccess(fld, fld, kRead, el.self, x.Sel.Pos())
					// Value fields still root addresses taken later (&c.f).
					out[escTaint{root: fld, self: el.self}] = true
				}
			} else {
				e.recordAccess(el.root, fld, kRead, el.self, x.Sel.Pos())
				out[el] = true
			}
		}
		return out
	case *ast.IndexExpr:
		base := e.expr(x.X)
		self := e.isSelfIdx(x.Index)
		e.expr(x.Index)
		if !self {
			return base
		}
		out := map[escTaint]bool{}
		for el := range base {
			el.self = true
			out[el] = true
		}
		return out
	case *ast.SliceExpr:
		t := e.expr(x.X)
		e.expr(x.Low)
		e.expr(x.High)
		e.expr(x.Max)
		return t
	case *ast.StarExpr:
		return e.expr(x.X)
	case *ast.UnaryExpr:
		return e.expr(x.X)
	case *ast.BinaryExpr:
		e.expr(x.X)
		e.expr(x.Y)
		return nil
	case *ast.TypeAssertExpr:
		return e.expr(x.X)
	case *ast.CompositeLit:
		out := map[escTaint]bool{}
		for _, el := range x.Elts {
			v := el
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				v = kv.Value
			}
			out = union(out, e.expr(v))
		}
		return out
	case *ast.FuncLit:
		e.block(x.Body)
		return nil
	case *ast.CallExpr:
		return e.call(x)
	case *ast.KeyValueExpr:
		return e.expr(x.Value)
	default:
		return nil
	}
}

// identTaint returns the taints an identifier carries: parameter summary
// taints plus any local rebindings.
func (e *escEnv) identTaint(id *ast.Ident) map[escTaint]bool {
	obj := e.a.info.Uses[id]
	if obj == nil {
		obj = e.a.info.Defs[id]
	}
	if obj == nil {
		return nil
	}
	loc := e.locTaint[obj]
	if i, ok := e.paramIndex(obj); ok {
		if len(loc) == 0 {
			return e.f.paramTaint[i]
		}
		out := map[escTaint]bool{}
		out = union(out, e.f.paramTaint[i])
		out = union(out, loc)
		return out
	}
	return loc
}

// paramIndex resolves obj to a parameter slot of the current function.
func (e *escEnv) paramIndex(obj types.Object) (int, bool) {
	v, ok := obj.(*types.Var)
	if !ok {
		return 0, false
	}
	for i, p := range e.f.params {
		if p == v && p != nil {
			return i, true
		}
	}
	return 0, false
}

// isSelfIdx reports whether x is provably the accessing processor's own rank
// or node.
func (e *escEnv) isSelfIdx(x ast.Expr) bool {
	x = ast.Unparen(x)
	switch x := x.(type) {
	case *ast.Ident:
		obj := e.a.info.Uses[x]
		if obj == nil {
			return false
		}
		if e.locSelf[obj] {
			return true
		}
		if i, ok := e.paramIndex(obj); ok {
			return e.f.paramSelfIdx[i]
		}
		return false
	case *ast.CallExpr:
		if tv, ok := e.a.info.Types[x.Fun]; ok && tv.IsType() {
			if len(x.Args) == 1 {
				return e.isSelfIdx(x.Args[0])
			}
			return false
		}
		f := funcObj(e.a.info, x)
		if f == nil {
			return false
		}
		if f.Name() == "Rank" || f.Name() == "Node" {
			if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
				return e.isSelfProc(sel.X)
			}
		}
		return false
	}
	return false
}

// isSelfProc reports whether x is provably the accessing processor.
func (e *escEnv) isSelfProc(x ast.Expr) bool {
	x = ast.Unparen(x)
	id, ok := x.(*ast.Ident)
	if !ok {
		return false
	}
	obj := e.a.info.Uses[id]
	if obj == nil {
		return false
	}
	if e.locSelfProc[obj] {
		return true
	}
	if i, ok := e.paramIndex(obj); ok {
		return e.f.paramSelfProc[i] && isCoreProc(obj.Type())
	}
	return false
}

// ---------------------------------------------------------------------------
// Calls

func (e *escEnv) call(call *ast.CallExpr) map[escTaint]bool {
	fun := ast.Unparen(call.Fun)

	// Type conversions.
	if tv, ok := e.a.info.Types[call.Fun]; ok && tv.IsType() {
		var t map[escTaint]bool
		for _, arg := range call.Args {
			t = union(t, e.expr(arg))
		}
		if tv := e.a.info.Types[call]; tv.Type != nil && !refLike(tv.Type) {
			return nil
		}
		return t
	}

	// Builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if obj := e.a.info.Uses[id]; obj != nil && obj.Parent() == types.Universe {
			return e.builtin(id.Name, call)
		}
	}

	f := funcObj(e.a.info, call)
	if f == nil {
		// Call through a function value (trace hooks, stored closures):
		// conservatively a may-mutate on rooted reference arguments.
		for _, arg := range call.Args {
			t := e.expr(arg)
			for el := range t {
				if el.root != nil && refLikeExpr(e.a.info, arg) {
					e.recordAccess(el.root, el.root, kMayMutate, el.self, arg.Pos())
				}
			}
		}
		return nil
	}

	if g, ok := e.a.funcs[f]; ok {
		return e.localCall(call, fun, g)
	}
	return e.externalCall(call, fun, f)
}

func (e *escEnv) builtin(name string, call *ast.CallExpr) map[escTaint]bool {
	switch name {
	case "append":
		var t map[escTaint]bool
		for _, arg := range call.Args {
			t = union(t, e.expr(arg))
		}
		return t
	case "copy":
		if len(call.Args) == 2 {
			e.write(call.Args[0], kWrite, call.Args[0].Pos())
			e.expr(call.Args[1])
		}
		return nil
	case "delete":
		if len(call.Args) >= 1 {
			e.write(call.Args[0], kWrite, call.Args[0].Pos())
			for _, a := range call.Args[1:] {
				e.expr(a)
			}
		}
		return nil
	default:
		for _, arg := range call.Args {
			e.expr(arg)
		}
		return nil
	}
}

// localCall propagates contexts, entries, and parameter taints into a
// package-local callee and returns its return-taint summary.
func (e *escEnv) localCall(call *ast.CallExpr, fun ast.Expr, g *escFunc) map[escTaint]bool {
	// Align arguments with callee parameter slots.
	args := make([]ast.Expr, 0, len(call.Args)+1)
	if sel, ok := fun.(*ast.SelectorExpr); ok && g.decl.Recv != nil {
		args = append(args, sel.X)
	}
	args = append(args, call.Args...)

	// Context/entry propagation, cutting edges into protocol entry methods
	// (re-entrant dispatch must not leak the caller's context into them).
	if g.entryName == "" {
		for c := dctx(0); c < numCtx; c++ {
			if !e.f.ctxs[c] {
				continue
			}
			if !g.ctxs[c] {
				g.ctxs[c] = true
				e.a.dirty = true
			}
			if g.parent[c] == nil && g != e.f {
				g.parent[c] = e.f
				e.a.dirty = true
			}
			changed := false
			for name := range e.f.entries[c] {
				if !g.entries[c][name] {
					g.entries[c][name] = true
					changed = true
				}
			}
			if changed {
				e.a.dirty = true
			}
		}
	}

	for i, arg := range args {
		slot := i
		if slot >= len(g.params) {
			slot = len(g.params) - 1 // variadic tail
		}
		if slot < 0 {
			break
		}
		t := e.expr(arg)
		changed := false
		for el := range t {
			if !g.paramTaint[slot][el] {
				g.paramTaint[slot][el] = true
				changed = true
			}
		}
		if changed {
			e.a.dirty = true
		}
		if g.entryName == "" {
			if g.paramSelfProc[slot] && !e.isSelfProc(arg) {
				g.paramSelfProc[slot] = false
				e.a.dirty = true
			}
			if g.paramSelfIdx[slot] && !e.isSelfIdx(arg) {
				g.paramSelfIdx[slot] = false
				e.a.dirty = true
			}
		}
	}
	if tv := e.a.info.Types[call]; tv.Type != nil && !refLike(tv.Type) {
		return nil
	}
	return g.retGlobals
}

// externalCall classifies a call into another package: msg.Endpoint calls
// are the sanctioned message channel; listed pure accessors propagate taint;
// everything else may mutate its rooted reference arguments.
func (e *escEnv) externalCall(call *ast.CallExpr, fun ast.Expr, f *types.Func) map[escTaint]bool {
	var recvTaint map[escTaint]bool
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		recvTaint = e.expr(sel.X)
	}

	leaf := pathLeaf(objPkgPath(f))
	sig, _ := f.Type().(*types.Signature)
	isMsgEndpoint := false
	key := leaf + "." + f.Name()
	if sig != nil && sig.Recv() != nil {
		if n := recvNamed(sig.Recv().Type()); n != nil {
			key = leaf + "." + n.Obj().Name() + "." + f.Name()
			isMsgEndpoint = leaf == "msg" && n.Obj().Name() == "Endpoint"
		}
	}

	argTaints := make([]map[escTaint]bool, len(call.Args))
	for i, arg := range call.Args {
		argTaints[i] = e.expr(arg)
	}

	switch {
	case isMsgEndpoint:
		for el := range recvTaint {
			if el.root != nil {
				e.recordAccess(el.root, el.root, kMessage, el.self, call.Pos())
			}
		}
		for i, t := range argTaints {
			for el := range t {
				if el.root != nil {
					e.recordAccess(el.root, el.root, kMessage, el.self, call.Args[i].Pos())
				}
			}
		}
		return nil
	case escPureMethods[key] || escPureFuncs[key]:
		out := map[escTaint]bool{}
		out = union(out, recvTaint)
		for _, t := range argTaints {
			out = union(out, t)
		}
		if tv := e.a.info.Types[call]; tv.Type != nil && !refLike(tv.Type) {
			return nil
		}
		return out
	default:
		for el := range recvTaint {
			if el.root != nil {
				e.recordAccess(el.root, el.root, kMayMutate, el.self, call.Pos())
			}
		}
		for i, t := range argTaints {
			if !refLikeExpr(e.a.info, call.Args[i]) {
				continue
			}
			for el := range t {
				if el.root != nil {
					e.recordAccess(el.root, el.root, kMayMutate, el.self, call.Args[i].Pos())
				}
			}
		}
		out := map[escTaint]bool{}
		out = union(out, recvTaint)
		for _, t := range argTaints {
			out = union(out, t)
		}
		if tv := e.a.info.Types[call]; tv.Type != nil && !refLike(tv.Type) {
			return nil
		}
		return out
	}
}

// ---------------------------------------------------------------------------
// Report construction

// escRow accumulates all accesses to one (root, field) pair.
type escRow struct {
	worst       accessKind
	ctxs        map[string]bool
	entries     map[string]bool
	repAccess   *escAccess
	directWrite bool // a non-self mutation is reachable in the direct context
	hasNonself  bool
}

func (a *escAnalysis) report(path string) ProtocolReport {
	rep := ProtocolReport{Package: path, Type: a.proto.Obj().Name()}

	type rowKey struct{ root, field string }
	rows := map[rowKey]*escRow{}
	var order []rowKey

	for i := range a.accesses {
		acc := &a.accesses[i]
		// Effective contexts: the non-quiescent contexts of the containing
		// function. Setup/Counters-only accesses never count.
		hasDirect := acc.fn.ctxs[ctxDirect]
		hasHandler := acc.fn.ctxs[ctxHandler]
		if !hasDirect && !hasHandler {
			continue
		}
		k := rowKey{acc.root.Name(), a.fieldName(acc.root, acc.field)}
		r := rows[k]
		if r == nil {
			r = &escRow{ctxs: map[string]bool{}, entries: map[string]bool{}}
			rows[k] = r
			order = append(order, k)
		}
		if hasDirect {
			r.ctxs[ctxDirect.String()] = true
			for n := range acc.fn.entries[ctxDirect] {
				r.entries[n] = true
			}
		}
		if hasHandler {
			r.ctxs[ctxHandler.String()] = true
			for n := range acc.fn.entries[ctxHandler] {
				r.entries[n] = true
			}
		}
		if !acc.self {
			r.hasNonself = true
			if r.repAccess == nil || acc.kind > r.worst ||
				(acc.kind == r.worst && acc.pos < r.repAccess.pos) {
				r.worst = acc.kind
				r.repAccess = acc
			}
			if (acc.kind == kWrite || acc.kind == kMayMutate) && hasDirect {
				r.directWrite = true
			}
		}
	}

	sort.Slice(order, func(i, j int) bool {
		if order[i].root != order[j].root {
			return order[i].root < order[j].root
		}
		return order[i].field < order[j].field
	})

	confined := map[string]bool{}
	for _, k := range order {
		r := rows[k]
		switch {
		case !r.hasNonself || r.worst <= kMessage:
			// Self-slot access only, or non-self reads/message payloads of
			// state that is never mutated cross-processor.
			confined[k.root] = true
		case r.directWrite:
			rep.Escaping = append(rep.Escaping, a.fieldUse(k.root, k.field, r))
		default:
			rep.MessageMediated = append(rep.MessageMediated, a.fieldUse(k.root, k.field, r))
		}
	}
	// A root with any escaping/mediated row is not confined.
	for _, fu := range rep.Escaping {
		delete(confined, fu.Root)
	}
	for _, fu := range rep.MessageMediated {
		delete(confined, fu.Root)
	}
	names := make([]string, 0, len(confined))
	for name := range confined {
		names = append(names, name)
	}
	sort.Strings(names)
	rep.NodeConfined = names
	return rep
}

// fieldName renders an accessed field as Type.name.
func (a *escAnalysis) fieldName(root, fld *types.Var) string {
	owner := a.proto.Obj().Name()
	if fld != root {
		if st := fieldOwner(a.pkg, fld); st != "" {
			owner = st
		}
	}
	return owner + "." + fld.Name()
}

// fieldOwner finds the named type in pkg whose struct declares fld.
func fieldOwner(pkg *types.Package, fld *types.Var) string {
	for _, name := range pkg.Scope().Names() {
		tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == fld {
				return tn.Name()
			}
		}
	}
	return ""
}

// fieldUse renders one report row, including a representative entry →
// accessing-function call path.
func (a *escAnalysis) fieldUse(root, field string, r *escRow) FieldUse {
	fu := FieldUse{Root: root, Field: field, Kind: r.worst.String()}
	var ctxs []string
	for c := range r.ctxs {
		ctxs = append(ctxs, c)
	}
	sort.Strings(ctxs)
	fu.Contexts = ctxs
	var entries []string
	for n := range r.entries {
		entries = append(entries, n)
	}
	sort.Strings(entries)
	fu.Entries = entries
	if acc := r.repAccess; acc != nil {
		fu.Pos = escPos(a.fset, acc.pos)
		ctx := ctxDirect
		if !acc.fn.ctxs[ctxDirect] {
			ctx = ctxHandler
		}
		var path []string
		for f := acc.fn; f != nil && len(path) < 16; f = f.parent[ctx] {
			path = append([]string{f.obj.Name()}, path...)
		}
		fu.Path = path
	}
	return fu
}

func union(a, b map[escTaint]bool) map[escTaint]bool {
	if len(b) == 0 {
		return a
	}
	if a == nil {
		a = map[escTaint]bool{}
	}
	for k := range b {
		a[k] = true
	}
	return a
}

// refLike reports whether values of type t can alias other state (contain a
// pointer, slice, map, channel, interface, or function).
func refLike(t types.Type) bool {
	return refLikeRec(t, map[types.Type]bool{})
}

func refLikeRec(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return false
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Interface, *types.Signature:
		return true
	case *types.Array:
		return refLikeRec(u.Elem(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if refLikeRec(u.Field(i).Type(), seen) {
				return true
			}
		}
		return false
	case *types.Tuple:
		for i := 0; i < u.Len(); i++ {
			if refLikeRec(u.At(i).Type(), seen) {
				return true
			}
		}
		return false
	default:
		return true
	}
}

func refLikeExpr(info *types.Info, x ast.Expr) bool {
	tv, ok := info.Types[x]
	if !ok || tv.Type == nil {
		return true
	}
	return refLike(tv.Type)
}

// escPos renders a position as base-file:line for reports.
func escPos(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}
