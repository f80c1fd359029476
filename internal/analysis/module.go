package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the interprocedural dataflow engine underneath the module-scope
// rules (allocflow, leaks, ctxflow, errwrap). The per-function AST walks of
// PR 3 see one body at a time, so a kernel calling an allocating helper, a
// goroutine joined in the caller, or a context dropped two frames above a
// blocking store op were all invisible. The engine closes that gap in three
// layers, each built exactly once per lint run and shared by every rule:
//
//  1. A module-wide call graph: every *ast.FuncDecl becomes a FuncInfo, and
//     every statically resolvable call — plain calls, method calls through
//     go/types selections, method values (f := x.M; f()), and calls written
//     inside function literals (attributed to the enclosing declaration) —
//     becomes a CallSite edge. Dynamic calls through function-typed values
//     do not resolve and are deliberately skipped: the engine degrades to
//     silence, never guesses (the PR 3 convention).
//
//  2. Per-function summaries computed during the same walk: syntactic
//     allocation sites (collectAllocs' catalogue, minus //alsrac:alloc-ok
//     waived lines, which is how waivers propagate — a waived site never
//     enters a summary, so it is invisible to every transitive proof),
//     blocking seeds (channel operations, default-less selects, time.Sleep),
//     context parameters, goroutine spawns with their join objects, and
//     store-error returns.
//
//  3. Fixed-point propagation over the graph (Module.fixedPoint): a
//     generic worklist that grows a predicate along reverse call edges until
//     nothing changes. Recursion and mutual recursion converge because the
//     predicate is monotone.
type Module struct {
	Pkgs []*Package

	// Funcs lists every function declaration of the module in a
	// deterministic order (package path, then source position) — module
	// rules iterate this slice, never a map, so diagnostics are stable.
	Funcs []*FuncInfo

	// byObj resolves a types.Func object to its declaration's FuncInfo.
	byObj map[*types.Func]*FuncInfo
}

// FuncInfo is one function declaration plus the summaries the module rules
// consume.
type FuncInfo struct {
	Pkg  *Package
	File *ast.File
	Decl *ast.FuncDecl
	Obj  *types.Func // nil when type checking degraded for this decl

	Hotpath bool // carries //alsrac:hotpath

	// Calls are the statically resolved outgoing edges, in source order.
	Calls []*CallSite

	// Allocs are the unwaived syntactic allocation sites of the body.
	// Waived sites (//alsrac:alloc-ok on the line or the line above) are
	// excluded here — that exclusion is what makes waivers propagate
	// through allocflow's transitive proof.
	Allocs []Site

	// BareWaivers are the allocation sites waived by an alloc-ok marker
	// that states no reason; allocflow reports them in hotpath kernels.
	BareWaivers []Site

	// Blocks are the blocking seeds of the body: channel sends/receives
	// outside a default-guarded select, default-less selects with no
	// ctx.Done case, range over a channel, time.Sleep. Seeds inside
	// nested function literals are not attributed here (the literal may
	// run on another goroutine or never).
	Blocks []Site

	// CtxParams are the context.Context parameter objects (usually one).
	// Detection is syntactic-first (a parameter typed context.Context
	// where the qualifier names the "context" import), so it survives the
	// stubbed-stdlib fixture loads.
	CtxParams []*types.Var

	// Spawns are the go statements of the body with their inferred join
	// objects.
	Spawns []*SpawnSite

	// Joins are the join points of the body: X.Wait() calls, <-ch
	// receives and range-over-channel statements, keyed by the base
	// object when it resolves.
	Joins []JoinSite

	// Classifies reports whether the body consults the error chain —
	// errors.Is / errors.As / a *transient* classifier call — which
	// satisfies the errwrap obligation.
	Classifies bool

	// StoreErrReturns are `return err` sites whose value came unwrapped
	// from a faultfs operation or (after propagation) from a callee that
	// itself leaks store errors bare.
	StoreErrReturns []Site
}

// Site is one position plus a human-readable description, used for
// allocation sites, blocking seeds and bare-return sites.
type Site struct {
	Pos  token.Pos
	Desc string
}

// CallSite is one resolved call (or function/method value reference) edge.
type CallSite struct {
	Caller *FuncInfo
	Callee *FuncInfo // always non-nil (module-internal target)
	Pos    token.Pos
	// Waived: an //alsrac:alloc-ok marker covers the call line, so
	// allocflow must not propagate allocations through this edge.
	Waived bool
	// IsRef: the function was referenced as a value (method value,
	// function assigned to a variable) rather than called directly. The
	// engine treats references as may-call edges — conservative for
	// allocation proofs.
	IsRef bool
	// InFuncLit: the call is written inside a function literal nested in
	// the caller. Blocking does not propagate through such edges (the
	// literal may run elsewhere); allocation does (the literal usually
	// runs on behalf of the caller).
	InFuncLit bool
	// InGo: the call is the operand of a go statement (or written inside
	// one's literal); it runs on another goroutine, so it never blocks
	// the caller.
	InGo bool
	// ArgObjs are the base objects of the call's arguments (nil entries
	// for arguments that are not simple variable chains), used to thread
	// join obligations through parameters.
	ArgObjs []types.Object
}

// SpawnSite is one `go` statement and the join object the engine inferred
// for it: the receiver of a Done() call inside the spawned literal, or the
// channel the literal sends on. A nil JoinObj means the spawn publishes its
// completion in no recognizable way.
type SpawnSite struct {
	Fn      *FuncInfo
	Pos     token.Pos
	JoinObj types.Object
	// ParamIndex is the index of JoinObj in the enclosing function's
	// parameter list, or -1: a parameter join object means the join
	// obligation escapes to every caller.
	ParamIndex int
}

// JoinSite is one join point (X.Wait(), <-ch, range ch).
type JoinSite struct {
	Pos token.Pos
	Obj types.Object // nil when the joined expression did not resolve
}

// BuildModule constructs the call graph and all per-function summaries in a
// single pass over the packages. It is the "load once, analyze many" half of
// the engine: RunAnalyzers builds one Module and every module-scope rule
// reads from it.
func BuildModule(pkgs []*Package) *Module {
	m := &Module{Pkgs: pkgs, byObj: map[*types.Func]*FuncInfo{}}

	// Pass 1: declare every function so edges can resolve forward refs.
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fi := &FuncInfo{Pkg: pkg, File: file, Decl: fd, Hotpath: isHotpath(fd)}
				if pkg.TypesInfo != nil {
					if obj, ok := pkg.TypesInfo.Defs[fd.Name].(*types.Func); ok {
						fi.Obj = obj
						m.byObj[obj] = fi
					}
				}
				m.Funcs = append(m.Funcs, fi)
			}
		}
	}
	sort.SliceStable(m.Funcs, func(i, j int) bool {
		a, b := m.Funcs[i], m.Funcs[j]
		if a.Pkg.Path != b.Pkg.Path {
			return a.Pkg.Path < b.Pkg.Path
		}
		return a.Pkg.Fset.Position(a.Decl.Pos()).Filename < b.Pkg.Fset.Position(b.Decl.Pos()).Filename ||
			(a.Pkg.Fset.Position(a.Decl.Pos()).Filename == b.Pkg.Fset.Position(b.Decl.Pos()).Filename &&
				a.Decl.Pos() < b.Decl.Pos())
	})

	// Pass 2: walk every body once, building edges and summaries together.
	for _, fi := range m.Funcs {
		m.summarize(fi)
	}
	return m
}

// FuncByName resolves "Name" or "(Recv).Name" within a package path suffix,
// for tests and chain rendering.
func (m *Module) FuncByName(pkgSuffix, name string) *FuncInfo {
	for _, fi := range m.Funcs {
		if !strings.HasSuffix(fi.Pkg.Path, pkgSuffix) {
			continue
		}
		if fi.Decl.Name.Name == name {
			return fi
		}
	}
	return nil
}

// DisplayName renders pkgname.Func or pkgname.(Recv).Method for diagnostics.
func (fi *FuncInfo) DisplayName() string {
	name := fi.Decl.Name.Name
	if fi.Decl.Recv != nil && len(fi.Decl.Recv.List) > 0 {
		recv := types.ExprString(fi.Decl.Recv.List[0].Type)
		recv = strings.TrimPrefix(recv, "*")
		name = "(" + recv + ")." + name
	}
	if fi.Pkg.Name != "" {
		return fi.Pkg.Name + "." + name
	}
	return name
}

// HasCtxParam reports whether the function accepts a context.Context.
func (fi *FuncInfo) HasCtxParam() bool { return len(fi.CtxParams) > 0 }

// summarize walks one function body, resolving call edges and collecting
// every summary the module rules need.
func (m *Module) summarize(fi *FuncInfo) {
	p := fi.Pkg
	marks := collectAllocOK(p.Fset, fi.File)
	fi.CtxParams = ctxParams(p, fi.File, fi.Decl)

	// consumedFun marks expressions used as the Fun of a call, so the
	// reference walk below does not double-count them as method values.
	consumedFun := map[ast.Node]bool{}

	// litDepth tracks nesting inside function literals; goDepth tracks
	// nesting inside go-statement literals specifically (their bodies run
	// on another goroutine, so blocking seeds there do not block fi).
	var walk func(n ast.Node, litDepth, goDepth int)

	addCall := func(call *ast.CallExpr, litDepth, goDepth int) {
		var callee *types.Func
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			consumedFun[fun] = true
			if p.TypesInfo != nil {
				callee, _ = p.TypesInfo.Uses[fun].(*types.Func)
			}
		case *ast.SelectorExpr:
			consumedFun[fun] = true
			consumedFun[fun.Sel] = true
			if p.TypesInfo != nil {
				callee, _ = p.TypesInfo.Uses[fun.Sel].(*types.Func)
			}
		}
		if callee == nil {
			return
		}
		target, ok := m.byObj[callee]
		if !ok {
			// Interface method: resolve by name against module types is
			// out of scope; only declared functions form edges.
			return
		}
		waived, _ := marks.suppressed(p.Fset, call.Pos())
		cs := &CallSite{
			Caller: fi, Callee: target, Pos: call.Pos(),
			Waived: waived, InFuncLit: litDepth > 0, InGo: goDepth > 0,
		}
		for _, arg := range call.Args {
			cs.ArgObjs = append(cs.ArgObjs, baseObj(p, arg))
		}
		fi.Calls = append(fi.Calls, cs)
	}

	walk = func(n ast.Node, litDepth, goDepth int) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				walk(n.Body, litDepth+1, goDepth)
				return false
			case *ast.GoStmt:
				fi.Spawns = append(fi.Spawns, m.spawnSite(fi, n))
				if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
					walk(lit.Body, litDepth+1, goDepth+1)
				} else {
					addCall(n.Call, litDepth, goDepth+1)
					for _, arg := range n.Call.Args {
						walk(arg, litDepth, goDepth)
					}
				}
				return false
			case *ast.CallExpr:
				addCall(n, litDepth, goDepth)
				m.callSummaries(fi, n, litDepth, goDepth)
				return true
			case *ast.SelectStmt:
				m.selectSummary(fi, n, goDepth)
				// Descend into case bodies (they run on this goroutine)
				// but the comm clauses were already classified.
				for _, c := range n.Body.List {
					cc := c.(*ast.CommClause)
					for _, stmt := range cc.Body {
						walk(stmt, litDepth, goDepth)
					}
				}
				return false
			case *ast.SendStmt:
				if goDepth == 0 && litDepth == 0 {
					fi.Blocks = append(fi.Blocks, Site{n.Pos(), "channel send"})
				}
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					if goDepth == 0 && litDepth == 0 {
						fi.Blocks = append(fi.Blocks, Site{n.Pos(), "channel receive"})
					}
					if goDepth == 0 {
						fi.Joins = append(fi.Joins, JoinSite{n.Pos(), baseObj(p, n.X)})
					}
				}
			case *ast.RangeStmt:
				if t := p.typeOf(n.X); t != nil {
					if _, ok := t.Underlying().(*types.Chan); ok {
						if goDepth == 0 && litDepth == 0 {
							fi.Blocks = append(fi.Blocks, Site{n.Pos(), "range over channel"})
						}
						if goDepth == 0 {
							fi.Joins = append(fi.Joins, JoinSite{n.Pos(), baseObj(p, n.X)})
						}
					}
				}
			}
			return true
		})
	}
	walk(fi.Decl.Body, 0, 0)
	fi.Allocs, fi.BareWaivers = collectAllocs(p, fi.File, fi.Decl.Body, marks)

	// Function/method value references: any remaining use of a module
	// function object that was not the Fun of a call becomes a may-call
	// reference edge.
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || consumedFun[id] || p.TypesInfo == nil {
			return true
		}
		obj, ok := p.TypesInfo.Uses[id].(*types.Func)
		if !ok {
			return true
		}
		if target, ok := m.byObj[obj]; ok {
			waived, _ := marks.suppressed(p.Fset, id.Pos())
			fi.Calls = append(fi.Calls, &CallSite{
				Caller: fi, Callee: target, Pos: id.Pos(),
				Waived: waived, IsRef: true,
			})
		}
		return true
	})
	sort.SliceStable(fi.Calls, func(i, j int) bool { return fi.Calls[i].Pos < fi.Calls[j].Pos })
}

// callSummaries records blocking/classification facts visible at one call.
func (m *Module) callSummaries(fi *FuncInfo, call *ast.CallExpr, litDepth, goDepth int) {
	p := fi.Pkg
	x, name, ok := selectorCall(call)
	if !ok {
		return
	}
	if id, ok := x.(*ast.Ident); ok {
		switch p.pkgNameOf(fi.File, id) {
		case "time":
			if name == "Sleep" && goDepth == 0 && litDepth == 0 {
				fi.Blocks = append(fi.Blocks, Site{call.Pos(), "time.Sleep"})
			}
		case "errors":
			if name == "Is" || name == "As" {
				fi.Classifies = true
			}
		}
	}
	if name == "Wait" && goDepth == 0 {
		fi.Joins = append(fi.Joins, JoinSite{call.Pos(), baseObj(p, x)})
	}
	if strings.Contains(strings.ToLower(name), "transient") {
		fi.Classifies = true
	}
}

// selectSummary classifies one select statement: a default case or a
// ctx.Done()-style case makes it non-blocking for ctxflow purposes.
func (m *Module) selectSummary(fi *FuncInfo, sel *ast.SelectStmt, goDepth int) {
	hasDefault, hasDoneCase := false, false
	for _, c := range sel.Body.List {
		cc := c.(*ast.CommClause)
		if cc.Comm == nil {
			hasDefault = true
			continue
		}
		ast.Inspect(cc.Comm, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if _, name, ok := selectorCall(call); ok && name == "Done" {
					hasDoneCase = true
				}
			}
			if u, ok := n.(*ast.UnaryExpr); ok && u.Op == token.ARROW && goDepth == 0 {
				fi.Joins = append(fi.Joins, JoinSite{u.Pos(), baseObj(fi.Pkg, u.X)})
			}
			return true
		})
	}
	if !hasDefault && !hasDoneCase && goDepth == 0 {
		fi.Blocks = append(fi.Blocks, Site{sel.Pos(), "select with no default and no ctx.Done case"})
	}
}

// spawnSite classifies one go statement: the join object is the receiver of
// a Done() call inside the spawned literal, else the channel the literal
// sends on. Direct `go f(wg)` spawns look for a *sync.WaitGroup-ish
// argument joined elsewhere; without type info they stay unclassified.
func (m *Module) spawnSite(fi *FuncInfo, g *ast.GoStmt) *SpawnSite {
	p := fi.Pkg
	s := &SpawnSite{Fn: fi, Pos: g.Pos(), ParamIndex: -1}
	var doneObj, sendObj types.Object
	if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if x, name, ok := selectorCall(n); ok && name == "Done" && doneObj == nil {
					doneObj = baseObj(p, x)
				}
			case *ast.SendStmt:
				if sendObj == nil {
					sendObj = baseObj(p, n.Chan)
				}
			}
			return true
		})
	} else {
		// go f(a, b): a WaitGroup-typed pointer argument is the join
		// object by convention (f is expected to Done it).
		for _, arg := range g.Call.Args {
			if obj := baseObj(p, arg); obj != nil && isWaitGroupish(obj) {
				doneObj = obj
				break
			}
		}
	}
	if doneObj != nil {
		s.JoinObj = doneObj
	} else if sendObj != nil {
		s.JoinObj = sendObj
	}
	if s.JoinObj != nil {
		s.ParamIndex = paramIndex(p, fi.Decl, s.JoinObj)
	}
	return s
}

// --- propagation -----------------------------------------------------------

// fixedPoint computes the least fixed point of a monotone predicate over the
// call graph: start from the seeded functions and repeatedly extend along
// edges accepted by through(edge) until nothing changes. The result maps
// every function with the property to true.
func (m *Module) fixedPoint(seed func(*FuncInfo) bool, through func(*CallSite) bool) map[*FuncInfo]bool {
	has := map[*FuncInfo]bool{}
	// Reverse edges: callee -> call sites targeting it.
	rev := map[*FuncInfo][]*CallSite{}
	var work []*FuncInfo
	for _, fi := range m.Funcs {
		for _, cs := range fi.Calls {
			rev[cs.Callee] = append(rev[cs.Callee], cs)
		}
		if seed(fi) {
			has[fi] = true
			work = append(work, fi)
		}
	}
	for len(work) > 0 {
		fi := work[len(work)-1]
		work = work[:len(work)-1]
		for _, cs := range rev[fi] {
			if has[cs.Caller] || !through(cs) {
				continue
			}
			has[cs.Caller] = true
			work = append(work, cs.Caller)
		}
	}
	return has
}

// --- shared syntactic helpers ---------------------------------------------

// baseObj resolves the root identifier of an expression chain (x, x.f,
// x.f[i], *x, x.f(), (x)) to its object, or nil.
func baseObj(p *Package, e ast.Expr) types.Object {
	id := baseIdent(e)
	if id == nil || p.TypesInfo == nil {
		return nil
	}
	if obj, ok := p.TypesInfo.Uses[id]; ok {
		return obj
	}
	if obj, ok := p.TypesInfo.Defs[id]; ok {
		return obj
	}
	return nil
}

// ctxParams returns the parameter objects of type context.Context, detected
// syntactically (selector context.Context whose qualifier names the
// "context" import) so the check works under stubbed stdlib type data.
func ctxParams(p *Package, file *ast.File, fd *ast.FuncDecl) []*types.Var {
	if fd.Type.Params == nil {
		return nil
	}
	var out []*types.Var
	for _, field := range fd.Type.Params.List {
		sel, ok := field.Type.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Context" {
			continue
		}
		qual, ok := sel.X.(*ast.Ident)
		if !ok || p.pkgNameOf(file, qual) != "context" {
			continue
		}
		for _, name := range field.Names {
			if p.TypesInfo == nil {
				continue
			}
			if v, ok := p.TypesInfo.Defs[name].(*types.Var); ok {
				out = append(out, v)
			}
		}
	}
	return out
}

// paramIndex returns the index of obj in fd's parameter list, or -1.
func paramIndex(p *Package, fd *ast.FuncDecl, obj types.Object) int {
	if fd.Type.Params == nil || p.TypesInfo == nil {
		return -1
	}
	idx := 0
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if p.TypesInfo.Defs[name] == obj {
				return idx
			}
			idx++
		}
		if len(field.Names) == 0 {
			idx++
		}
	}
	return -1
}

// isWaitGroupish reports whether the object's type names sync.WaitGroup (or
// an errgroup-style Group) by spelling — used only to classify direct
// `go f(wg)` spawns, syntactic on purpose.
func isWaitGroupish(obj types.Object) bool {
	t := obj.Type()
	if t == nil {
		return false
	}
	s := t.String()
	return strings.HasSuffix(s, "sync.WaitGroup") || strings.HasSuffix(s, ".Group") ||
		strings.HasSuffix(s, "*sync.WaitGroup")
}

// allocatingStdlib are imported packages whose calls count as allocation
// sites inside a hotpath call closure: their common entry points build
// strings, slices or boxed values on every call. The deterministic kernels
// have no business calling them; a justified exception takes an
// //alsrac:alloc-ok marker like any other site.
var allocatingStdlib = map[string]bool{
	"fmt": true, "strings": true, "strconv": true, "errors": true,
	"bytes": true, "sort": true,
}

// collectAllocs gathers the unwaived syntactic allocation sites of a body:
// make, new, append into a fresh slice (self-append into persistent scratch,
// s.buf = append(s.buf, x), is the sanctioned amortized pattern), map and
// slice composite literals, &composite (escapes), closures (captures
// escape), go and defer statements, string concatenation, and calls into
// allocating stdlib packages. Sites covered by an //alsrac:alloc-ok marker
// are omitted: a waived allocation is invisible to the transitive proof,
// which is how waivers propagate. The second result lists the waived sites
// whose marker states no reason.
func collectAllocs(p *Package, file *ast.File, body ast.Node, marks allocOK) (sites, bare []Site) {
	add := func(n ast.Node, desc string) {
		if found, reason := marks.suppressed(p.Fset, n.Pos()); found {
			if reason == "" {
				bare = append(bare, Site{n.Pos(), desc})
			}
			return
		}
		sites = append(sites, Site{n.Pos(), desc})
	}
	selfAppend := map[*ast.CallExpr]bool{}
	pass := &Pass{Pkg: p} // only used for its type helpers
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == 1 && len(n.Rhs) == 1 {
				if call, ok := n.Rhs[0].(*ast.CallExpr); ok && isAppendCall(pass, call) &&
					appendTargetMatches(n.Lhs[0], call.Args[0]) {
					selfAppend[call] = true
				}
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && pass.isBuiltin(id) {
				switch id.Name {
				case "make":
					add(n, "make")
				case "new":
					add(n, "new")
				case "append":
					if !selfAppend[n] {
						add(n, "append into a fresh slice")
					}
				}
			}
			if x, name, ok := selectorCall(n); ok {
				if id, ok := x.(*ast.Ident); ok {
					if pkg := p.pkgNameOf(file, id); allocatingStdlib[pkg] {
						add(n, pkg+"."+name+" call")
					}
				}
			}
		case *ast.CompositeLit:
			switch pass.compositeKind(n) {
			case "map":
				add(n, "map literal")
			case "slice":
				add(n, "slice literal")
			}
			return false
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					add(n, "&composite literal")
					return false
				}
			}
		case *ast.FuncLit:
			add(n, "closure")
			return false
		case *ast.GoStmt:
			add(n, "go statement")
		case *ast.DeferStmt:
			add(n, "defer")
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if t := p.typeOf(n.X); t != nil {
					if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						add(n, "string concatenation")
					}
				}
			}
		}
		return true
	})
	return sites, bare
}
