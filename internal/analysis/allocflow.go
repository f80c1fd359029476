package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// AllocflowAnalyzer enforces the steady-state zero-allocation contract of
// functions annotated //alsrac:hotpath — the word-level kernels whose
// per-call allocation counts were driven to zero (the cover test, the
// bounded evaluators, the simulate inner loops, the cone scan). A kernel must be
// allocation-free over its whole static call closure. The rule reports
//
//   - every allocation site in the kernel's own body (see collectAllocs for
//     the catalogue: make, new, fresh append, map/slice literals,
//     &composite, closures, go, defer, string concatenation, allocating
//     stdlib calls);
//   - every call into a function that allocates, directly or further down,
//     with the offending call chain ("hotpath K calls H1, which allocates:
//     H1 -> H2 (alloc at file:line: make)").
//
// The call graph covers direct calls, method calls, method values and calls
// inside function literals. The audited escape hatch is an
// //alsrac:alloc-ok <reason> comment on the offending line or the line
// above. Waivers propagate: a marker on an allocation line inside a helper
// removes the site from the helper's summary (so every transitive proof
// through it succeeds), and a marker on a call line cuts that edge out of
// the proof. A marker without a reason on a kernel's own allocation site is
// itself a finding, so every exception states why it is safe.
//
// Dynamic calls through function-typed values (e.g. an injected accessor
// func) do not resolve statically and are skipped — the proof covers the
// static closure, and the benchmark allocation gates cover the rest.
var AllocflowAnalyzer = &Analyzer{
	Name:      "allocflow",
	Doc:       "prove //alsrac:hotpath kernels allocation-free over their whole call closure",
	RunModule: runAllocflow,
}

func runAllocflow(mp *ModulePass) {
	m := mp.Module

	// allocates[f]: f's own body has an unwaived allocation site, or some
	// unwaived call edge reaches such a function (fixed point over the
	// reverse call graph, so recursion converges). Waived edges do not
	// propagate.
	allocates := m.fixedPoint(
		func(f *FuncInfo) bool { return len(f.Allocs) > 0 },
		func(cs *CallSite) bool { return !cs.Waived },
	)

	for _, fi := range m.Funcs {
		if !fi.Hotpath || !mp.applies(fi.Pkg) {
			continue
		}
		for _, site := range fi.Allocs {
			mp.Reportf(fi.Pkg, site.Pos,
				"%s in hotpath %s: hoist the allocation, pool it, or waive it with //alsrac:alloc-ok <reason>",
				site.Desc, fi.DisplayName())
		}
		for _, site := range fi.BareWaivers {
			mp.Reportf(fi.Pkg, site.Pos, "alloc-ok marker without a reason: state why this allocation is acceptable")
		}
		for _, cs := range fi.Calls {
			if cs.Waived || !allocates[cs.Callee] {
				continue
			}
			chain, last, site := allocChain(cs.Callee, allocates)
			mp.Reportf(fi.Pkg, cs.Pos,
				"hotpath %s calls %s, which allocates: %s (alloc at %s: %s); hoist the allocation, pool it, or waive this call with //alsrac:alloc-ok <reason>",
				fi.DisplayName(), cs.Callee.DisplayName(), chainString(chain),
				last.Pkg.Fset.Position(site.Pos), site.Desc)
		}
	}
}

// allocChain walks from f down an allocating path: at each step it stops at
// a function with an own-body allocation site, else follows the first
// (source-ordered) unwaived callee that still allocates. It returns the
// chain including f, its terminal frame, and the terminal allocation site.
func allocChain(f *FuncInfo, allocates map[*FuncInfo]bool) ([]*FuncInfo, *FuncInfo, Site) {
	chain := []*FuncInfo{f}
	seen := map[*FuncInfo]bool{f: true}
	cur := f
	for {
		if len(cur.Allocs) > 0 {
			return chain, cur, cur.Allocs[0]
		}
		var next *FuncInfo
		for _, cs := range cur.Calls {
			if !cs.Waived && allocates[cs.Callee] && !seen[cs.Callee] {
				next = cs.Callee
				break
			}
		}
		if next == nil {
			// Only reachable through a cycle; anchor the report at the
			// current frame.
			return chain, cur, Site{cur.Decl.Pos(), "allocation within call cycle"}
		}
		seen[next] = true
		chain = append(chain, next)
		cur = next
	}
}

// chainString renders "A -> B -> C".
func chainString(chain []*FuncInfo) string {
	parts := make([]string, len(chain))
	for i, f := range chain {
		parts[i] = f.DisplayName()
	}
	return strings.Join(parts, " -> ")
}

// isAppendCall reports whether the call is the append builtin with at least
// one argument.
func isAppendCall(p *Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "append" && p.isBuiltin(id) && len(call.Args) > 0
}

// appendTargetMatches reports whether the assignment target and append's
// first argument name the same slice, treating x = append(x[:0], ...) as a
// match too (reslicing the same backing).
func appendTargetMatches(lhs, arg0 ast.Expr) bool {
	if sl, ok := arg0.(*ast.SliceExpr); ok {
		arg0 = sl.X
	}
	return types.ExprString(lhs) == types.ExprString(arg0)
}

// compositeKind classifies a composite literal as "map", "slice" or "other",
// preferring type information and falling back to the syntactic type.
func (p *Pass) compositeKind(cl *ast.CompositeLit) string {
	if t := p.Pkg.typeOf(cl); t != nil {
		switch t.Underlying().(type) {
		case *types.Map:
			return "map"
		case *types.Slice:
			return "slice"
		}
		return "other"
	}
	switch tt := cl.Type.(type) {
	case *ast.MapType:
		return "map"
	case *ast.ArrayType:
		if tt.Len == nil {
			return "slice"
		}
	}
	return "other"
}
