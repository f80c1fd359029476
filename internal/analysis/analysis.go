// Package analysis implements alsraclint, the repository's custom static
// analyzer suite. It is built purely on the standard library's go/parser,
// go/ast and go/types (no golang.org/x/tools dependency) and enforces the
// invariants the compiler cannot see but the flow's correctness rests on:
//
//   - determinism: the greedy loop of Algorithm 3 must pick the same LAC
//     for every worker count, so the simulation-bound packages may not read
//     wall-clock time, draw from unseeded global randomness, or produce
//     ordered results from map iteration;
//   - concurrency: goroutine bodies may not write shared captured state
//     outside the sanctioned disjoint-index / mutex / channel patterns;
//   - tailmask: exported errest entry points taking raw pattern words must
//     also take the valid-pattern count, so tail bits beyond Patterns.Valid
//     can never leak into a metric.
//
// On top of the per-function rules, a module-scope dataflow engine
// (module.go) builds one call graph with per-function summaries and runs
// fixed-point propagation, feeding four interprocedural rules:
//
//   - allocflow: functions annotated //alsrac:hotpath (the care-set and
//     error-evaluation kernels) must be allocation-free in their own body
//     and over their whole static call closure, with //alsrac:alloc-ok
//     waivers propagating;
//   - leaks: every goroutine joined on every path, across function
//     boundaries (join obligations escape through parameters);
//   - ctxflow: a function receiving a context.Context must pass it to every
//     blocking callee and never sever the chain with context.Background;
//   - errwrap: faultfs-born errors stay errno-classifiable — %w wrapping
//     (never %v) and no bare store errors at exported boundaries.
//
// Each analyzer reports diagnostics of the form "file:line:col: [rule]
// message" and is exercised by positive and negative fixtures under
// testdata/ (including the testdata/interproc mini-module, which exercises
// cross-package propagation with fully resolved types).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

// String renders the diagnostic in the canonical "file:line:col: [rule]
// message" form — the file:line:col prefix is what editors and GitHub's
// annotation matcher both parse (tests match on line granularity).
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// Package is one parsed and (leniently) type-checked package of the module.
// TypesInfo may hold partial information: imports outside the module are
// stubbed, so analyzers must degrade gracefully when a type or object does
// not resolve.
type Package struct {
	Path  string // import path, e.g. "repro/internal/errest"
	Name  string
	Fset  *token.FileSet
	Files []*ast.File

	Types     *types.Package
	TypesInfo *types.Info
}

// Pass carries one analyzer run over one package and collects diagnostics.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos under the pass's rule name.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     p.Pkg.Fset.Position(pos),
		Rule:    p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// Analyzer is one named rule set. Exactly one of Run (per-package AST rule)
// and RunModule (interprocedural rule over the shared dataflow engine) is
// set. Module rules receive the one Module that RunAnalyzers builds — the
// call graph and every per-function summary are computed once and shared, so
// adding rules does not add load or type-check passes.
type Analyzer struct {
	Name string
	Doc  string
	// AppliesTo filters where findings may land by import path; nil means
	// every package. Module rules still see the whole module (summaries
	// propagate through unfiltered packages) but only report inside the
	// filter.
	AppliesTo func(pkgPath string) bool
	Run       func(p *Pass)
	RunModule func(mp *ModulePass)
}

// ModulePass carries one module-scope analyzer run and collects diagnostics.
type ModulePass struct {
	Analyzer *Analyzer
	Module   *Module

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos, positioned via the package that owns
// the node. AppliesTo filtering is the caller's responsibility (use
// ModulePass.applies on the landing package).
func (mp *ModulePass) Reportf(pkg *Package, pos token.Pos, format string, args ...any) {
	*mp.diags = append(*mp.diags, Diagnostic{
		Pos:     pkg.Fset.Position(pos),
		Rule:    mp.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// applies reports whether findings may land in the given package.
func (mp *ModulePass) applies(pkg *Package) bool {
	return mp.Analyzer.AppliesTo == nil || mp.Analyzer.AppliesTo(pkg.Path)
}

// Analyzers returns the full alsraclint suite in reporting order: the three
// per-function rules, then the four interprocedural rules.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer,
		ConcurrencyAnalyzer,
		TailmaskAnalyzer,
		AllocflowAnalyzer,
		LeaksAnalyzer,
		CtxflowAnalyzer,
		ErrwrapAnalyzer,
	}
}

// AnalyzerByName resolves a rule name, for cmd/alsraclint's -rule flag.
func AnalyzerByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// RunAnalyzers applies every analyzer to every package it applies to and
// returns the diagnostics sorted by file, line and rule. The packages are
// parsed and type-checked exactly once (by LoadModule) and the dataflow
// Module is built exactly once here, regardless of how many rules run — the
// engine is shared, not rebuilt per rule.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	var mod *Module
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		if mod == nil {
			mod = BuildModule(pkgs)
		}
		a.RunModule(&ModulePass{Analyzer: a, Module: mod, diags: &diags})
	}
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			if a.AppliesTo != nil && !a.AppliesTo(pkg.Path) {
				continue
			}
			pass := &Pass{Analyzer: a, Pkg: pkg, diags: &diags}
			a.Run(pass)
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
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
	return diags
}

// pathIn returns an AppliesTo predicate matching the given import-path
// suffixes (each of the form "internal/errest"). Fixture packages are loaded
// under their real paths, so the same predicate governs tests and the tool.
func pathIn(suffixes ...string) func(string) bool {
	return func(path string) bool {
		for _, s := range suffixes {
			if path == s || strings.HasSuffix(path, "/"+s) {
				return true
			}
		}
		return false
	}
}

// --- annotations -----------------------------------------------------------

const (
	hotpathMarker = "//alsrac:hotpath"
	allocOKMarker = "//alsrac:alloc-ok"
)

// isHotpath reports whether the function declaration carries the
// //alsrac:hotpath annotation in its doc comment.
func isHotpath(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimSpace(c.Text) == hotpathMarker {
			return true
		}
	}
	return false
}

// allocOK maps source lines to the audited //alsrac:alloc-ok escape hatch:
// the value is the stated reason ("" when the marker is present but gives
// none — itself a diagnostic). A marker suppresses hotpath findings on its
// own line and on the line directly below (comment-above style).
type allocOK map[int]string

// collectAllocOK gathers the alloc-ok markers of a file.
func collectAllocOK(fset *token.FileSet, file *ast.File) allocOK {
	ok := allocOK{}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(c.Text)
			if !strings.HasPrefix(text, allocOKMarker) {
				continue
			}
			reason := strings.TrimSpace(strings.TrimPrefix(text, allocOKMarker))
			ok[fset.Position(c.Pos()).Line] = reason
		}
	}
	return ok
}

// suppressed reports whether a finding at pos is covered by an alloc-ok
// marker, and whether that marker states a reason.
func (a allocOK) suppressed(fset *token.FileSet, pos token.Pos) (found bool, reason string) {
	line := fset.Position(pos).Line
	if r, ok := a[line]; ok {
		return true, r
	}
	if r, ok := a[line-1]; ok {
		return true, r
	}
	return false, ""
}

// --- shared type helpers ---------------------------------------------------

// typeOf returns the type of e, or nil when type information is unavailable
// (stubbed import or type error in degraded checking).
func (p *Package) typeOf(e ast.Expr) types.Type {
	if p.TypesInfo == nil {
		return nil
	}
	t := p.TypesInfo.TypeOf(e)
	if t == nil || isInvalid(t) {
		return nil
	}
	return t
}

func isInvalid(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.Invalid
}

// pkgNameOf resolves an identifier used as a qualifier to the import path of
// the package it names, or "" when it is not a package name. It prefers type
// information and falls back to matching the file's import table (so the
// analyzers stay useful even where checking degraded).
func (p *Package) pkgNameOf(file *ast.File, id *ast.Ident) string {
	if p.TypesInfo != nil {
		if obj, ok := p.TypesInfo.Uses[id]; ok {
			if pn, ok := obj.(*types.PkgName); ok {
				return pn.Imported().Path()
			}
			return "" // resolved to something that is not a package
		}
	}
	for _, imp := range file.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		name := path
		if i := strings.LastIndex(path, "/"); i >= 0 {
			name = path[i+1:]
		}
		if imp.Name != nil {
			name = imp.Name.Name
		}
		if name == id.Name {
			return path
		}
	}
	return ""
}

// selectorCall matches a call of the form qualifier.Fn(...) and returns the
// qualifier expression and the selected name.
func selectorCall(call *ast.CallExpr) (ast.Expr, string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, "", false
	}
	return sel.X, sel.Sel.Name, true
}
