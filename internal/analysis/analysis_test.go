package analysis

import (
	"bufio"
	"fmt"
	"go/ast"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// fixtureCases pairs every fixture file with the analyzer it exercises and
// the import path that makes that analyzer apply.
var fixtureCases = []struct {
	file     string
	path     string
	analyzer *Analyzer
}{
	{"determinism_bad.go", "repro/internal/sim", DeterminismAnalyzer},
	{"determinism_ok.go", "repro/internal/sim", DeterminismAnalyzer},
	{"hotpath_bad.go", "repro/internal/wordops", AllocflowAnalyzer},
	{"hotpath_ok.go", "repro/internal/wordops", AllocflowAnalyzer},
	{"recycle_bad.go", "repro/internal/aig", AllocflowAnalyzer},
	{"concurrency_bad.go", "repro/internal/core", ConcurrencyAnalyzer},
	{"concurrency_ok.go", "repro/internal/core", ConcurrencyAnalyzer},
	{"tailmask_bad.go", "repro/internal/errest", TailmaskAnalyzer},
	{"tailmask_ok.go", "repro/internal/errest", TailmaskAnalyzer},
	{"allocflow_bad.go", "repro/internal/wordops", AllocflowAnalyzer},
	{"allocflow_ok.go", "repro/internal/wordops", AllocflowAnalyzer},
	{"leaks_bad.go", "repro/internal/core", LeaksAnalyzer},
	{"leaks_ok.go", "repro/internal/core", LeaksAnalyzer},
	{"ctxflow_bad.go", "repro/internal/service", CtxflowAnalyzer},
	{"ctxflow_ok.go", "repro/internal/service", CtxflowAnalyzer},
	{"errwrap_bad.go", "repro/internal/service", ErrwrapAnalyzer},
	{"errwrap_ok.go", "repro/internal/service", ErrwrapAnalyzer},
}

// wantMarkers extracts the `//want:<rule>` expectations of a fixture file as
// "line:rule" strings (one per marker occurrence).
func wantMarkers(t *testing.T, path string) []string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		for rest := text; ; {
			i := strings.Index(rest, "//want:")
			if i < 0 {
				break
			}
			rest = rest[i+len("//want:"):]
			rule := rest
			if j := strings.IndexAny(rule, " \t/"); j >= 0 {
				rule = rule[:j]
			}
			want = append(want, fmt.Sprintf("%d:%s", line, rule))
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	sort.Strings(want)
	return want
}

// TestFixtures runs each analyzer over its positive and negative fixtures
// and requires the diagnostics to match the //want markers exactly.
func TestFixtures(t *testing.T) {
	for _, tc := range fixtureCases {
		t.Run(tc.file, func(t *testing.T) {
			file := filepath.Join("testdata", tc.file)
			pkg, err := LoadFile(file, tc.path)
			if err != nil {
				t.Fatalf("load fixture: %v", err)
			}
			if tc.analyzer.AppliesTo != nil && !tc.analyzer.AppliesTo(tc.path) {
				t.Fatalf("analyzer %s does not apply to %s; fixture is wired wrong", tc.analyzer.Name, tc.path)
			}
			diags := RunAnalyzers([]*Package{pkg}, []*Analyzer{tc.analyzer})
			var got []string
			for _, d := range diags {
				got = append(got, fmt.Sprintf("%d:%s", d.Pos.Line, d.Rule))
			}
			sort.Strings(got)
			want := wantMarkers(t, file)
			if strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("diagnostics mismatch\n got: %v\nwant: %v\nfull diagnostics:\n%s",
					got, want, renderDiags(diags))
			}
		})
	}
}

func renderDiags(diags []Diagnostic) string {
	var sb strings.Builder
	for _, d := range diags {
		sb.WriteString("  " + d.String() + "\n")
	}
	if sb.Len() == 0 {
		return "  (none)\n"
	}
	return sb.String()
}

// TestAnalyzersApplyToScopedPackages pins the scoping predicates: the
// determinism rules cover the six deterministic-core packages plus the
// daemon-side service and obs packages, and tailmask covers errest only.
func TestAnalyzersApplyToScopedPackages(t *testing.T) {
	for _, path := range []string{
		"repro/internal/core", "repro/internal/resub", "repro/internal/errest",
		"repro/internal/sim", "repro/internal/aig", "repro/internal/wordops",
		"repro/internal/service", "repro/internal/obs", "repro/internal/faultfs",
		"repro/internal/exact", "repro/internal/exact/sat",
	} {
		if !DeterminismAnalyzer.AppliesTo(path) {
			t.Errorf("determinism must apply to %s", path)
		}
	}
	for _, path := range []string{"repro/internal/tt", "repro/cmd/alsrac", "repro"} {
		if DeterminismAnalyzer.AppliesTo(path) {
			t.Errorf("determinism must not apply to %s", path)
		}
	}
	if !TailmaskAnalyzer.AppliesTo("repro/internal/errest") {
		t.Error("tailmask must apply to errest")
	}
	if TailmaskAnalyzer.AppliesTo("repro/internal/sim") {
		t.Error("tailmask must not apply to sim")
	}
}

// The repository module is parsed and type-checked exactly once for the
// whole test binary — every module-scope test and benchmark shares this load,
// mirroring the load-once architecture of the tool itself.
var (
	repoOnce sync.Once
	repoPkgs []*Package
	repoErr  error
)

func loadRepoModule(tb testing.TB) []*Package {
	repoOnce.Do(func() {
		repoPkgs, repoErr = LoadModule(filepath.Join("..", ".."))
	})
	if repoErr != nil {
		tb.Fatalf("load module: %v", repoErr)
	}
	return repoPkgs
}

// TestModuleIsClean loads the real module and requires the full suite to
// pass with zero findings — the same gate scripts/verify.sh and CI enforce.
// It also counts the //alsrac:hotpath annotations so a refactor that
// silently drops the markers (and with them the enforcement) fails loudly.
func TestModuleIsClean(t *testing.T) {
	pkgs := loadRepoModule(t)
	if len(pkgs) < 10 {
		t.Fatalf("loader found only %d packages; the walk is broken", len(pkgs))
	}
	diags := RunAnalyzers(pkgs, Analyzers())
	if len(diags) > 0 {
		t.Errorf("module must lint clean, got %d finding(s):\n%s", len(diags), renderDiags(diags))
	}

	hot := 0
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && isHotpath(fd) {
					hot++
				}
			}
		}
	}
	if hot < 10 {
		t.Errorf("expected at least 10 //alsrac:hotpath annotations in the module, found %d", hot)
	}
}

// TestLoadModuleSkipsTestsAndTestdata guards the loader's file selection:
// fixture packages must never leak into a module load.
func TestLoadModuleSkipsTestsAndTestdata(t *testing.T) {
	pkgs := loadRepoModule(t)
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			name := pkg.Fset.Position(file.Pos()).Filename
			if strings.Contains(name, "testdata") || strings.HasSuffix(name, "_test.go") {
				t.Errorf("loader picked up %s", name)
			}
		}
	}
}
