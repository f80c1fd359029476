package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bench"
	"repro/internal/errest"
)

func loadTestSpec(t *testing.T) (benchSpec, []string) {
	t.Helper()
	path := filepath.Join("..", "BENCHMARK.json")
	spec, err := loadSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	return spec, names
}

// BENCHMARK.json and the program must list the same workloads and metrics.
func TestSpecMatchesProgram(t *testing.T) {
	spec, wls := loadTestSpec(t)
	var have []string
	for _, w := range workloads() {
		have = append(have, w.name)
	}
	if !equalStrings(wls, have) {
		t.Errorf("workloads: BENCHMARK.json %v, program %v", wls, have)
	}
	check := func(kind string, listed []specMetric, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program %d", kind, len(listed), len(defs))
			return
		}
		for i, m := range listed {
			if m.Name != defs[i].name || m.Unit != defs[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, m.Name, m.Unit, defs[i].name, defs[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics)
	check("per_layer", spec.PerLayer, perLayerMetrics)
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// A shrunk arith-global (rca32 only, two passes) through the whole run:
// outputs check, traced results equal untraced ones, and every metric
// BENCHMARK.json names is emitted — end-to-end ones positive.
func TestShrunkArithGlobal(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the flow")
	}
	g := preOptimized(circuit{"rca32", bench.RCA(32)})[0].g
	w := workload{name: "arith-smoke", open: func(seed int64, _ string, use func(runner) error) error {
		return use(&flowRunner{cases: func(pass int) []flowCase {
			return []flowCase{{label: "rca32", orig: g, opts: flowOptions(errest.NMED, 0.001, flowSeeds(seed, pass, 1)[0])}}
		}})
	}}
	spec, _ := loadTestSpec(t)
	for _, traced := range []bool{false, true} {
		dir := t.TempDir()
		cfg := config{workload: w.name, seed: 7, trace: traced,
			traceOut: filepath.Join(dir, "trace.json"), workDir: filepath.Join(dir, "work")}
		res, err := run(cfg, w, newHeader(cfg), io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Fatalf("traced=%v: %d of %d checks failed", traced, res.Failed, res.Attempted)
		}
		want := spec.EndToEnd
		if traced {
			want = spec.PerLayer
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("traced=%v: %d metrics emitted, BENCHMARK.json lists %d", traced, len(res.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := res.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("traced=%v: metric %s missing or with unit %q", traced, m.Name, got.Unit)
			}
		}
		if traced {
			for _, name := range []string{"opt.flush_ms", "errest.rank_ms", "resub.gen_ms", "sim.care_ms", "aig.commits", "core.steps"} {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("per-layer %s = %v on a global flow, want > 0", name, res.Metrics[name].Value)
				}
			}
			if _, err := os.Stat(cfg.traceOut); err != nil {
				t.Errorf("trace file: %v", err)
			}
		}
	}
}

func TestDrawBatch(t *testing.T) {
	a, b := drawBatch(3, 1, 5), drawBatch(3, 1, 5)
	if len(a) != jobUnique+jobDups {
		t.Fatalf("batch has %d jobs, want %d", len(a), jobUnique+jobDups)
	}
	perCircuit := map[int]int{}
	dups := 0
	for i, it := range a {
		if it != b[i] {
			t.Fatalf("job %d differs between two draws of the same seed", i)
		}
		if it.dupOf < 0 {
			perCircuit[it.circuit]++
			continue
		}
		dups++
		o := a[it.dupOf]
		if it.dupOf > i-3 || o.dupOf >= 0 || o.circuit != it.circuit || o.seed != it.seed {
			t.Errorf("job %d resubmits %d (%+v), want an earlier distinct job with the same spec", i, it.dupOf, o)
		}
	}
	if dups != jobDups {
		t.Errorf("%d resubmissions, want %d", dups, jobDups)
	}
	for c := 0; c < 5; c++ {
		if perCircuit[c] != jobUnique/5 {
			t.Errorf("circuit %d drawn %d times, want %d", c, perCircuit[c], jobUnique/5)
		}
	}
	if c := drawBatch(4, 1, 5); c[0] == a[0] && c[1] == a[1] {
		t.Error("another seed drew the same jobs")
	}
}
