package alsrac

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"testing"

	"repro/internal/aig"
)

func TestPublicAPIQuickstart(t *testing.T) {
	g := Benchmark("rca32")
	if g == nil {
		t.Fatal("rca32 missing")
	}
	opts := DefaultOptions(NMED, 0.0005)
	opts.EvalPatterns = 2048
	res := Approximate(g, opts)
	if res.FinalError > opts.Threshold {
		t.Fatalf("error %.4g over threshold", res.FinalError)
	}
	if res.Graph.NumAnds() >= g.NumAnds() {
		t.Fatalf("no area saving: %d -> %d", g.NumAnds(), res.Graph.NumAnds())
	}
	if err := res.Graph.CheckStrict(); err != nil {
		t.Fatalf("flow produced a corrupt graph: %v", err)
	}
	// Independent re-measurement must agree with the flow's estimate to
	// sampling accuracy.
	err := MeasureError(g, res.Graph, NMED, 4096, 999)
	if err > 4*opts.Threshold {
		t.Fatalf("independent NMED %.4g far above threshold", err)
	}
}

func TestPublicAPIBaselines(t *testing.T) {
	g := Benchmark("mtp8")
	opts := DefaultOptions(ER, 0.02)
	opts.EvalPatterns = 1024
	su := ApproximateSASIMI(g, opts)
	if su.FinalError > opts.Threshold {
		t.Fatalf("SASIMI error over threshold")
	}
	liu := ApproximateMCMC(g, ER, 0.02, 200, 1)
	if liu.FinalError > 0.02 {
		t.Fatalf("MCMC error over threshold")
	}
}

// TestApproximateMCMCEvalPatterns pins the pattern count alsrac -flow mcmc
// reports: the baseline's final error is its result's error on the first
// MCMCEvalPatterns uniform patterns of its seed, and not on another count.
func TestApproximateMCMCEvalPatterns(t *testing.T) {
	g := Benchmark("mtp8")
	res := ApproximateMCMC(g, ER, 0.05, 200, 3)
	if res.Applied == 0 {
		t.Fatal("MCMC accepted no move; its error pins no pattern count")
	}
	if got := MeasureError(g, res.Graph, ER, MCMCEvalPatterns, 3); got != res.FinalError {
		t.Fatalf("error on %d patterns %v, MCMC reported %v", MCMCEvalPatterns, got, res.FinalError)
	}
	if other := MeasureError(g, res.Graph, ER, 1024, 3); other == res.FinalError {
		t.Fatalf("error on 1024 patterns equals the reported %v too", other)
	}
}

func TestPublicAPIMapping(t *testing.T) {
	g := Benchmark("cla32")
	lut := MapLUT(g, 6)
	if lut.LUTs <= 0 || lut.Depth <= 0 {
		t.Fatalf("bad LUT mapping %+v", lut)
	}
	asic := MapASIC(g)
	if asic.Area <= 0 || asic.Delay <= 0 {
		t.Fatalf("bad ASIC mapping %+v", asic)
	}
	o := Optimize(g)
	if o.NumAnds() > g.NumAnds() {
		t.Fatalf("Optimize grew the circuit")
	}
}

func TestPublicAPIBLIFRoundTrip(t *testing.T) {
	g := Benchmark("voter")
	var buf bytes.Buffer
	if err := WriteBLIF(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBLIF(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumPIs() != g.NumPIs() || g2.NumPOs() != g.NumPOs() {
		t.Fatalf("round trip changed the interface")
	}
	if e := MeasureError(g, g2, ER, 2048, 7); e != 0 {
		t.Fatalf("round trip changed the function: ER %.4g", e)
	}
}

func TestBenchmarksList(t *testing.T) {
	names := Benchmarks()
	if len(names) < 20 {
		t.Fatalf("only %d benchmarks", len(names))
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate benchmark %q", n)
		}
		seen[n] = true
		if Benchmark(n) == nil {
			t.Fatalf("benchmark %q does not build", n)
		}
	}
	for _, want := range []string{"rca32", "cla32", "ksa32", "mtp8", "wal8", "alu4", "voter", "priority", "mult", "sqrt"} {
		if !seen[want] {
			t.Fatalf("missing paper benchmark %q", want)
		}
	}
}

func TestNewCircuitConstruction(t *testing.T) {
	g := NewCircuit()
	a := g.AddPI("a")
	b := g.AddPI("b")
	g.AddPO(g.Xor(a, b), "y")
	if g.NumAnds() != 3 {
		t.Fatalf("xor should cost 3 ANDs, got %d", g.NumAnds())
	}
}

func TestOptimizeResub(t *testing.T) {
	g := Benchmark("cla32")
	o := Optimize(g)
	r := OptimizeResub(g, 6)
	if r.NumAnds() > o.NumAnds() {
		t.Fatalf("OptimizeResub worse than Optimize: %d vs %d", r.NumAnds(), o.NumAnds())
	}
	if e := MeasureError(g, r, ER, 4096, 3); e != 0 {
		t.Fatalf("OptimizeResub changed the function: ER %.4g", e)
	}
}

func TestCircuitFileFormats(t *testing.T) {
	dir := t.TempDir()
	g := Benchmark("alu4")
	for _, name := range []string{"a.blif", "a.aag", "a.aig", "a.v"} {
		path := dir + "/" + name
		if err := WriteCircuitFile(path, g); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if name == "a.v" {
			continue // no Verilog reader by design
		}
		g2, err := ReadCircuitFile(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if e := MeasureError(g, g2, ER, 2048, 5); e != 0 {
			t.Fatalf("%s: round trip changed function (ER %.4g)", name, e)
		}
	}
	// A failed write leaves the file system as it was: an existing file
	// keeps its bytes and a new path is not created.
	notes := dir + "/notes.txt"
	if err := os.WriteFile(notes, []byte("precious"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteCircuitFile(notes, g); err == nil {
		t.Fatalf("expected error for unknown extension")
	}
	if b, err := os.ReadFile(notes); err != nil || string(b) != "precious" {
		t.Fatalf("failed write changed %s: %q, %v", notes, b, err)
	}
	if err := WriteCircuitFile(dir+"/a.xyz", g); err == nil {
		t.Fatalf("expected error for unknown extension")
	}
	if _, err := os.Stat(dir + "/a.xyz"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("failed write left a.xyz behind: %v", err)
	}
	if _, err := ReadCircuitFile(dir + "/a.xyz"); err == nil {
		t.Fatalf("expected error for unknown extension")
	}
	if _, err := ReadCircuitFile(dir + "/missing.blif"); err == nil {
		t.Fatalf("expected error for missing file")
	}
}

func TestAIGERWrappers(t *testing.T) {
	g := Benchmark("bcd7seg")
	var buf bytes.Buffer
	if err := WriteAIGER(&buf, g, "aig"); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadAIGER(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if e := MeasureError(g, g2, ER, 1024, 9); e != 0 {
		t.Fatalf("AIGER wrapper round trip failed")
	}
	if err := WriteAIGER(&buf, g, "nope"); err == nil {
		t.Fatalf("expected format error")
	}
}

func TestVerilogWrapper(t *testing.T) {
	g := Benchmark("gray8")
	var buf bytes.Buffer
	if err := WriteVerilog(&buf, g); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("module")) {
		t.Fatalf("no module in Verilog output")
	}
}

func TestPatternHelpers(t *testing.T) {
	p := UniformPatterns(4, 100, 3)
	if p.Valid != 100 || len(p.In) != 4 {
		t.Fatalf("UniformPatterns shape wrong")
	}
	b := BiasedPatterns([]float64{0.1, 0.9}, 200, 3)
	if b.Valid != 200 || len(b.In) != 2 {
		t.Fatalf("BiasedPatterns shape wrong")
	}
	g := Benchmark("cmp16")
	approx := Optimize(g)
	if MeasureErrorOnPatterns(g, approx, ER, UniformPatterns(g.NumPIs(), 1024, 7)) != 0 {
		t.Fatalf("exact optimization should have zero error")
	}

	// MeasureError scores exactly the requested patterns, the ones
	// UniformPatterns draws at the same seed: 100 of them, not 128.
	ref := Benchmark("rca32")
	tied := ref.Clone()
	tied.SetPO(3, aig.LitFalse)
	want := MeasureErrorOnPatterns(ref, tied, ER, UniformPatterns(ref.NumPIs(), 100, 3))
	if got := MeasureError(ref, tied, ER, 100, 3); got != want {
		t.Fatalf("MeasureError over 100 patterns = %v, want %v", got, want)
	}
}

func TestBLIFFileHelpers(t *testing.T) {
	dir := t.TempDir()
	g := Benchmark("parity16")
	path := dir + "/p.blif"
	if err := WriteBLIFFile(path, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBLIFFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumPIs() != 16 {
		t.Fatalf("parity16 lost inputs")
	}
	if _, err := ReadBLIFFile(dir + "/none.blif"); err == nil {
		t.Fatalf("expected error for missing file")
	}
}
