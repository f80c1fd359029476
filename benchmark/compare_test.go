package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	tight := []float64{100, 101, 99, 100, 100.5}
	for _, tc := range []struct {
		name       string
		base, head []float64
		better     string
		bound      float64
		want       string
	}{
		{"unchanged", tight, tight, "lower", 0.1, "ok"},
		{"worse within bound", tight, scale(tight, 1.05), "lower", 0.1, "ok"},
		{"worse beyond bound", tight, scale(tight, 1.2), "lower", 0.1, "regressed"},
		{"better", tight, scale(tight, 0.8), "lower", 0.1, "ok"},
		{"higher is better, dropped", tight, scale(tight, 0.8), "higher", 0.1, "regressed"},
		{"higher is better, rose", tight, scale(tight, 1.2), "higher", 0.1, "ok"},
		{"wide spread hides the change", []float64{80, 100, 120, 90, 110}, []float64{85, 105, 125, 95, 115}, "lower", 0.1, "unresolved"},
		{"wide spread, every head run better", []float64{80, 100, 120, 90, 110}, []float64{40, 50, 60, 45, 55}, "lower", 0.1, "ok"},
		{"wide spread, every head run worse", []float64{80, 100, 120, 90, 110}, []float64{200, 250, 300, 225, 275}, "lower", 0.1, "regressed"},
		{"deterministic, equal", []float64{0.5, 0.5}, []float64{0.5, 0.5}, "lower", 0, "ok"},
		{"deterministic, any worsening", []float64{0.5, 0.5}, []float64{0.5000001, 0.5000001}, "lower", 0, "regressed"},
		{"no runs", nil, tight, "lower", 0.1, "unresolved"},
	} {
		if got := verdict(tc.base, tc.head, tc.better, tc.bound); got != tc.want {
			t.Errorf("%s: verdict = %q, want %q", tc.name, got, tc.want)
		}
	}
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// compare reads saved standard output, groups runs by the header's
// workload, and fails only on an end-to-end regression.
func TestCompareCommand(t *testing.T) {
	dir := t.TempDir()
	write := func(set string, i int, wall, layer float64) {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		if err := enc.Encode(map[string]header{"header": {Workload: "arith-global", Seed: int64(i)}}); err != nil {
			t.Fatal(err)
		}
		res := result{Correct: true, Attempted: 1, Metrics: map[string]metric{
			"wall_s": {wall, "s"}, "opt.flush_ms": {layer, "ms"},
		}}
		if err := enc.Encode(res); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Join(dir, set), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, set, strings.Repeat("r", i+1)), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		write("base", i, 4+0.01*float64(i), 100)
		write("ok", i, 4.05+0.01*float64(i), 50)
		write("slow", i, 6+0.01*float64(i), 50)
	}
	spec := filepath.Join("..", "BENCHMARK.json")
	var out, errs bytes.Buffer
	if code := runCompare([]string{"-spec", spec, filepath.Join(dir, "base"), filepath.Join(dir, "ok")}, &out, &errs); code != 0 {
		t.Fatalf("compare of an unchanged head exited %d:\n%s%s", code, out.String(), errs.String())
	}
	if !strings.Contains(out.String(), "opt.flush_ms") || !strings.Contains(out.String(), "wall_s") {
		t.Errorf("compare output lacks a metric row:\n%s", out.String())
	}
	out.Reset()
	if code := runCompare([]string{"-spec", spec, filepath.Join(dir, "base"), filepath.Join(dir, "slow")}, &out, &errs); code != 1 {
		t.Fatalf("compare of a 50%% slower head exited %d, want 1:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "regressed") {
		t.Errorf("compare output does not name the regression:\n%s", out.String())
	}
}
