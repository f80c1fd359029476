package analysis

import (
	"go/token"
	"go/types"
)

// LeaksAnalyzer requires every `go` statement to be joined along every
// path, where the join may legitimately live in a different function than
// the spawn. Demanding a .Wait() somewhere in the spawning function instead
// would both reject the sanctioned spawn-in-helper/join-in-caller pattern
// and accept a function that Waits on one pool while a second pool leaks.
//
// leaks matches spawns to joins by the synchronization *object*:
//
//   - A spawned literal that calls X.Done() (or sends on channel X) is
//     joined when the spawning function Waits on (receives from) the same X.
//
//   - If X is a *parameter* of the spawning function, the join obligation
//     escapes to every caller: each call site must pass an object the caller
//     itself joins — or the caller's own parameter, in which case the
//     obligation keeps propagating up the call graph (fixed point). A chain
//     that reaches a caller that neither joins nor forwards is reported at
//     that call site, with the spawn position named.
//
//   - A spawn with no recognizable completion signal (no Done, no send)
//     falls back to a coarse check: any join point in the same function
//     accepts it, none at all is a finding.
//
// The rule runs module-wide: the daemon (internal/service), the windowed and
// global scan worker pools (internal/window, internal/resub, internal/sim,
// internal/core) and cmd/alsracd all spawn, and a leaked goroutine in any of
// them outlives the drain that the graceful-shutdown tests pin.
var LeaksAnalyzer = &Analyzer{
	Name:      "leaks",
	Doc:       "require every goroutine joined on every path, across function boundaries",
	RunModule: runLeaks,
}

// pendingSpawn is one spawn whose join obligation escaped through the
// spawning function's parameter.
type pendingSpawn struct {
	spawn      *SpawnSite
	paramIndex int
}

func runLeaks(mp *ModulePass) {
	m := mp.Module

	// Phase 1: per-function resolution. Spawns joined in-function are
	// discharged; spawns whose join object is a parameter become
	// obligations on the callers; everything else is a finding now.
	obligations := map[*FuncInfo][]pendingSpawn{}
	for _, fi := range m.Funcs {
		for _, sp := range fi.Spawns {
			switch {
			case sp.JoinObj == nil:
				if len(fi.Joins) == 0 && mp.applies(fi.Pkg) {
					mp.Reportf(fi.Pkg, sp.Pos,
						"goroutine in %s has no completion signal (no Done, no channel send) and %s never joins: a leaked goroutine outlives the drain",
						fi.DisplayName(), fi.DisplayName())
				}
			case joinedLocally(fi, sp.JoinObj):
				// discharged in the spawning function
			case sp.ParamIndex >= 0:
				obligations[fi] = append(obligations[fi], pendingSpawn{sp, sp.ParamIndex})
			default:
				if mp.applies(fi.Pkg) {
					mp.Reportf(fi.Pkg, sp.Pos,
						"goroutine in %s signals completion on %q but %s never joins it (no Wait/receive on the same object) and it is not a parameter, so no caller can",
						fi.DisplayName(), sp.JoinObj.Name(), fi.DisplayName())
				}
			}
		}
	}

	// Phase 2: propagate escaped obligations up the call graph until every
	// chain ends in a local join or a finding. The worklist converges
	// because each (function, spawn) pair is visited at most once.
	type frame struct {
		fn    *FuncInfo
		spawn *SpawnSite
		// paramIndex of the join object within fn's parameters.
		paramIndex int
	}
	visited := map[frame]bool{}
	var work []frame
	for _, fi := range m.Funcs { // deterministic seeding order
		for _, p := range obligations[fi] {
			work = append(work, frame{fi, p.spawn, p.paramIndex})
		}
	}
	rev := map[*FuncInfo][]*CallSite{}
	for _, fi := range m.Funcs {
		for _, cs := range fi.Calls {
			rev[cs.Callee] = append(rev[cs.Callee], cs)
		}
	}
	for len(work) > 0 {
		fr := work[len(work)-1]
		work = work[:len(work)-1]
		if visited[fr] {
			continue
		}
		visited[fr] = true
		callers := rev[fr.fn]
		if len(callers) == 0 {
			// Nobody calls this function inside the module: exported
			// helpers joined by external callers are out of scope, but an
			// unexported one with zero callers cannot be joined by anyone
			// visible. Stay silent either way — no caller means no join
			// path to check, and reporting on absence would be guesswork.
			continue
		}
		for _, cs := range callers {
			if cs.IsRef {
				continue // a reference is not an invocation with arguments
			}
			var argObj types.Object
			if fr.paramIndex < len(cs.ArgObjs) {
				argObj = cs.ArgObjs[fr.paramIndex]
			}
			caller := cs.Caller
			switch {
			case argObj == nil:
				if mp.applies(caller.Pkg) {
					mp.Reportf(caller.Pkg, cs.Pos,
						"%s spawns a goroutine (at %s) joined through its parameter, but this call site passes no joinable object for it",
						fr.fn.DisplayName(), posOf(fr.fn, fr.spawn.Pos))
				}
			case joinedLocally(caller, argObj):
				// chain discharged here
			default:
				if idx := paramIndex(caller.Pkg, caller.Decl, argObj); idx >= 0 {
					work = append(work, frame{caller, fr.spawn, idx})
				} else if mp.applies(caller.Pkg) {
					mp.Reportf(caller.Pkg, cs.Pos,
						"%s spawns a goroutine (at %s) that must be joined by its caller, but %s neither waits on %q nor forwards it: the goroutine leaks",
						fr.fn.DisplayName(), posOf(fr.fn, fr.spawn.Pos),
						caller.DisplayName(), argObj.Name())
				}
			}
		}
	}
}

// joinedLocally reports whether fn joins the given object in its own body.
func joinedLocally(fn *FuncInfo, obj types.Object) bool {
	for _, j := range fn.Joins {
		if j.Obj == obj {
			return true
		}
	}
	return false
}

func posOf(fn *FuncInfo, pos token.Pos) string {
	return fn.Pkg.Fset.Position(pos).String()
}
