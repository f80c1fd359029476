package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ConcurrencyAnalyzer enforces the worker-pool discipline of the parallel
// hot path (DESIGN.md §8): goroutines communicate through disjoint writes or
// synchronization, never through bare shared mutation. A goroutine body may
// not assign to variables captured from the enclosing function or to
// package-level variables. The sanctioned ways for workers to publish
// results remain open: writes through an index expression (the
// disjoint-shard pattern, results[c] = ...), channel sends, method calls
// (sync/atomic, mutex-guarded state), and any write made after a .Lock()
// call in the same goroutine body. That every goroutine is joined is the
// leaks rule's property.
var ConcurrencyAnalyzer = &Analyzer{
	Name: "concurrency",
	Doc:  "forbid unsynchronized captured-state writes in worker bodies",
	Run:  runConcurrency,
}

func runConcurrency(p *Pass) {
	for _, file := range p.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					if fl, ok := g.Call.Fun.(*ast.FuncLit); ok {
						checkWorkerBody(p, fd, fl)
					}
				}
				return true
			})
		}
	}
}

// checkWorkerBody flags assignments inside a goroutine body whose target is
// captured from the enclosing function or package scope and is not written
// through one of the sanctioned channels (index write, method call, send,
// post-Lock write).
func checkWorkerBody(p *Pass, fd *ast.FuncDecl, fl *ast.FuncLit) {
	// Track the position of the first .Lock() call; writes after it are
	// treated as mutex-guarded. This is deliberately coarse — the analyzer
	// is a tripwire for the "captured accumulator" bug class, not a proof.
	lockPos := token.Pos(-1)
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if _, name, ok := selectorCall(call); ok && name == "Lock" {
				if lockPos == token.Pos(-1) || call.Pos() < lockPos {
					lockPos = call.Pos()
				}
			}
		}
		return true
	})

	flagged := func(lhs ast.Expr, pos token.Pos) {
		base := baseIdent(lhs)
		if base == nil || base.Name == "_" {
			return
		}
		if _, isIndex := lhs.(*ast.IndexExpr); isIndex {
			return // disjoint-shard pattern: results[c] = ...
		}
		if lockPos != token.Pos(-1) && pos > lockPos {
			return // mutex-guarded region
		}
		if !p.capturedByGoroutine(base, fl) {
			return
		}
		p.Reportf(pos, "goroutine in %s writes captured variable %q outside a mutex or channel: workers must publish through disjoint indices, channels or synchronized state", fd.Name.Name, base.Name)
	}

	ast.Inspect(fl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if n != fl {
				return false // nested literals are analyzed when they are themselves go'ed
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				flagged(lhs, n.Pos())
			}
		case *ast.IncDecStmt:
			flagged(n.X, n.Pos())
		}
		return true
	})
}

// baseIdent returns the root identifier of an assignable expression
// (x, x.f, x.f.g, *x ...), or nil when there is none.
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr: // &x: the address of a variable is still that variable
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// capturedByGoroutine reports whether the identifier resolves to a variable
// declared outside the goroutine's func literal (captured) or at package
// level. Unresolvable identifiers are skipped — the analyzer never reports
// on guesswork.
func (p *Pass) capturedByGoroutine(id *ast.Ident, fl *ast.FuncLit) bool {
	if p.Pkg.TypesInfo == nil {
		return false
	}
	obj, ok := p.Pkg.TypesInfo.Uses[id]
	if !ok {
		return false
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	// Declared inside the literal (params included) ⇒ goroutine-local.
	return v.Pos() < fl.Pos() || v.Pos() > fl.End()
}
