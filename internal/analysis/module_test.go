package analysis

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// loadEngineFixture builds the dataflow module over the call-graph fixture.
func loadEngineFixture(t *testing.T) *Module {
	t.Helper()
	pkg, err := LoadFile(filepath.Join("testdata", "engine_graph.go"), "repro/internal/core")
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	return BuildModule([]*Package{pkg})
}

// TestCallGraphEdges pins call-graph construction over every edge flavor:
// direct calls, method calls, method values and function values (reference
// edges), calls inside function literals (attributed to the enclosing
// declaration), calls under go statements, and dynamic calls through
// function-typed values (no edge at all).
func TestCallGraphEdges(t *testing.T) {
	m := loadEngineFixture(t)
	caller := m.FuncByName("internal/core", "caller")
	if caller == nil {
		t.Fatal("caller not found in module")
	}

	var got []string
	for _, cs := range caller.Calls {
		got = append(got, fmt.Sprintf("%s ref=%v lit=%v go=%v",
			cs.Callee.Decl.Name.Name, cs.IsRef, cs.InFuncLit, cs.InGo))
	}
	sort.Strings(got)
	want := []string{
		"leafA ref=false lit=false go=false",
		"leafB ref=true lit=false go=false",   // f := leafB
		"leafC ref=false lit=true go=false",   // inside the run(...) literal
		"leafD ref=false lit=false go=true",   // go leafD()
		"method ref=false lit=false go=false", // w.method()
		"method ref=true lit=false go=false",  // m := w.method
		"run ref=false lit=false go=false",
	}
	sort.Strings(want)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("caller edges mismatch\n got: %v\nwant: %v", got, want)
	}

	// run's body calls only through its function-typed parameter: dynamic,
	// so the engine must stay silent rather than guess.
	run := m.FuncByName("internal/core", "run")
	if run == nil {
		t.Fatal("run not found in module")
	}
	if len(run.Calls) != 0 {
		t.Errorf("run must have no resolved edges (dynamic call), got %d", len(run.Calls))
	}
}

// TestFixedPointPropagation seeds the worklist at one leaf and requires the
// property to climb exactly the resolved edges: caller reaches leafC through
// its literal, but run does not (its only call is dynamic).
func TestFixedPointPropagation(t *testing.T) {
	m := loadEngineFixture(t)
	leafC := m.FuncByName("internal/core", "leafC")
	has := m.fixedPoint(
		func(f *FuncInfo) bool { return f == leafC },
		func(cs *CallSite) bool { return true },
	)
	caller := m.FuncByName("internal/core", "caller")
	run := m.FuncByName("internal/core", "run")
	if !has[caller] {
		t.Error("property must propagate from leafC to caller via the literal edge")
	}
	if has[run] {
		t.Error("property must not reach run: its only call is dynamic and forms no edge")
	}
	if !has[leafC] {
		t.Error("seed itself must be in the fixed point")
	}
}

// TestErrwrapInterproc loads the testdata/interproc mini-module — its own
// go.mod, a fake internal/faultfs, and a service package with fully resolved
// cross-package types — and requires the bare-return findings to match the
// //want markers exactly.
func TestErrwrapInterproc(t *testing.T) {
	pkgs, err := LoadModule(filepath.Join("testdata", "interproc"))
	if err != nil {
		t.Fatalf("load mini-module: %v", err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("mini-module must load 2 packages, got %d", len(pkgs))
	}
	diags := RunAnalyzers(pkgs, []*Analyzer{ErrwrapAnalyzer})
	var got []string
	for _, d := range diags {
		base := filepath.Base(d.Pos.Filename)
		if base != "store.go" {
			t.Errorf("unexpected finding outside store.go: %s", d)
			continue
		}
		got = append(got, fmt.Sprintf("%d:%s", d.Pos.Line, d.Rule))
	}
	sort.Strings(got)
	want := wantMarkers(t, filepath.Join("testdata", "interproc", "internal", "service", "store.go"))
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("interproc diagnostics mismatch\n got: %v\nwant: %v\nfull diagnostics:\n%s",
			got, want, renderDiags(diags))
	}
}

// --- benchmarks -------------------------------------------------------------
//
// The load-once architecture means the expensive part (parse + lenient type
// check) happens exactly once per lint run; building the dataflow module and
// running all seven rules ride on top. The three benchmarks separate those
// costs so a regression in any layer is visible in isolation.

func BenchmarkLoadModule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := LoadModule(filepath.Join("..", "..")); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildModule(b *testing.B) {
	pkgs := loadRepoModule(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildModule(pkgs)
	}
}

func BenchmarkRunAnalyzers(b *testing.B) {
	pkgs := loadRepoModule(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := RunAnalyzers(pkgs, Analyzers()); len(d) != 0 {
			b.Fatalf("module must lint clean, got %d finding(s)", len(d))
		}
	}
}
