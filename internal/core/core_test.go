package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/aig"
	"repro/internal/bench"
	"repro/internal/errest"
	"repro/internal/sim"
)

func rippleAdder(n int) *aig.Graph {
	g := aig.New()
	g.Name = "rca"
	a := g.AddPIs(n, "a")
	b := g.AddPIs(n, "b")
	carry := aig.LitFalse
	for i := 0; i < n; i++ {
		axb := g.Xor(a[i], b[i])
		g.AddPO(g.Xor(axb, carry), "s")
		carry = g.Or(g.And(a[i], b[i]), g.And(axb, carry))
	}
	g.AddPO(carry, "cout")
	return g
}

// exactError measures the true metric value of approx vs golden circuit g
// by exhaustive simulation.
func exactError(t *testing.T, g, approx *aig.Graph, metric errest.Metric) float64 {
	t.Helper()
	p := sim.Exhaustive(g.NumPIs())
	ev := errest.NewEvaluator(g, p, metric)
	return ev.EvalGraph(approx, p)
}

func TestRunRespectsERThreshold(t *testing.T) {
	g := rippleAdder(4)
	opts := DefaultOptions(errest.ER, 0.05)
	opts.EvalPatterns = 4096
	res := Run(g, opts)
	if res.Graph == nil {
		t.Fatal("nil result graph")
	}
	if res.FinalError > opts.Threshold {
		t.Fatalf("final (estimated) error %.4g exceeds threshold", res.FinalError)
	}
	// The true error (exhaustive) should be close to the estimate: allow a
	// generous sampling margin.
	truth := exactError(t, g, res.Graph, errest.ER)
	if truth > 3*opts.Threshold {
		t.Fatalf("true ER %.4g far above threshold %.4g", truth, opts.Threshold)
	}
	if err := res.Graph.CheckStrict(); err != nil {
		t.Fatal(err)
	}
}

func TestRunReducesArea(t *testing.T) {
	g := rippleAdder(5)
	opts := DefaultOptions(errest.NMED, 0.02)
	opts.EvalPatterns = 4096
	res := Run(g, opts)
	if res.Graph.NumAnds() >= g.NumAnds() {
		t.Fatalf("no area reduction: %d -> %d ANDs", g.NumAnds(), res.Graph.NumAnds())
	}
	if res.Applied == 0 {
		t.Fatalf("no LACs applied")
	}
}

func TestRunZeroThresholdKeepsFunction(t *testing.T) {
	// With Et=0 only error-free changes may be applied: the result must be
	// functionally identical to the input on every pattern.
	g := rippleAdder(3)
	opts := DefaultOptions(errest.ER, 0)
	opts.EvalPatterns = 4096
	res := Run(g, opts)
	if e := exactError(t, g, res.Graph, errest.ER); e != 0 {
		// Sampled zero-error LACs can in principle carry real error; with
		// 4096 patterns on a 6-input circuit every pattern appears, so any
		// nonzero true error is a bug.
		t.Fatalf("threshold 0 produced true ER %.4g", e)
	}
}

func TestRunMonotoneInThreshold(t *testing.T) {
	g := rippleAdder(4)
	var areas []int
	for _, et := range []float64{0.001, 0.05, 0.3} {
		opts := DefaultOptions(errest.ER, et)
		opts.EvalPatterns = 4096
		res := Run(g, opts)
		areas = append(areas, res.Graph.NumAnds())
	}
	// Looser thresholds should never give (much) larger circuits; allow
	// equality since the greedy flow is not strictly monotone.
	if areas[2] > areas[0] {
		t.Fatalf("area at loose threshold (%d) exceeds tight threshold (%d)", areas[2], areas[0])
	}
}

func TestRunInterfacePreserved(t *testing.T) {
	g := rippleAdder(4)
	opts := DefaultOptions(errest.ER, 0.1)
	opts.EvalPatterns = 2048
	res := Run(g, opts)
	if res.Graph.NumPIs() != g.NumPIs() || res.Graph.NumPOs() != g.NumPOs() {
		t.Fatalf("PI/PO interface changed")
	}
	for i := 0; i < g.NumPIs(); i++ {
		if res.Graph.PIName(i) != g.PIName(i) {
			t.Fatalf("PI name %d changed", i)
		}
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	g := rippleAdder(4)
	opts := DefaultOptions(errest.ER, 0.03)
	opts.EvalPatterns = 2048
	r1 := Run(g, opts)
	r2 := Run(g, opts)
	if r1.Graph.NumAnds() != r2.Graph.NumAnds() || r1.FinalError != r2.FinalError {
		t.Fatalf("same seed, different results: %d/%g vs %d/%g",
			r1.Graph.NumAnds(), r1.FinalError, r2.Graph.NumAnds(), r2.FinalError)
	}
	opts.Seed = 42
	r3 := Run(g, opts)
	_ = r3 // different seed may legitimately coincide; just ensure it runs
}

func TestRunHistoryConsistent(t *testing.T) {
	g := rippleAdder(4)
	opts := DefaultOptions(errest.ER, 0.05)
	opts.EvalPatterns = 2048
	res := Run(g, opts)
	if len(res.History) != res.Iterations {
		t.Fatalf("history length %d != iterations %d", len(res.History), res.Iterations)
	}
	applied := 0
	lastErr := 0.0
	for _, rec := range res.History {
		if rec.Applied {
			applied++
		}
		if rec.Err+1e-12 < lastErr {
			t.Fatalf("cumulative error decreased: %g -> %g", lastErr, rec.Err)
		}
		lastErr = rec.Err
	}
	if applied != res.Applied {
		t.Fatalf("history applied count %d != %d", applied, res.Applied)
	}
}

func TestRunAppliesLACsUnderGenerousBudget(t *testing.T) {
	// Sanity on the headline behavior: a generous NMED threshold must let
	// the flow apply several approximate changes and stay within budget.
	g := rippleAdder(6)
	opts := DefaultOptions(errest.NMED, 0.05)
	opts.EvalPatterns = 4096
	res := Run(g, opts)
	if res.Applied == 0 {
		t.Fatalf("no LACs applied under a generous budget")
	}
	if res.FinalError > opts.Threshold {
		t.Fatalf("final error %.4g over threshold", res.FinalError)
	}
}

func TestRunWithCustomGenerator(t *testing.T) {
	// A generator that proposes only constant-zero replacements; the flow
	// must still work and respect the threshold.
	g := rippleAdder(4)
	opts := DefaultOptions(errest.ER, 0.1)
	opts.EvalPatterns = 2048
	opts.Generator = constZeroGen{}
	res := Run(g, opts)
	if res.FinalError > opts.Threshold {
		t.Fatalf("final error %.4g over threshold", res.FinalError)
	}
}

// constZeroGen proposes a constant-zero replacement for every AND node. It
// keeps no reusable state, so every incremental call is a full rescan.
type constZeroGen struct{}

func (constZeroGen) Generate(g *aig.Graph, care *sim.Vectors, valid int) []Candidate {
	var out []Candidate
	for n := aig.Node(1); int(n) < g.NumNodes(); n++ {
		if !g.IsAnd(n) {
			continue
		}
		node := n
		out = append(out, Candidate{
			Node: node,
			Gain: 1,
			NewVec: func(vecs *sim.Vectors, dst []uint64) {
				for i := range dst {
					dst[i] = 0
				}
			},
			Apply: func(g *aig.Graph) *aig.Graph {
				return g.CopyWith(map[aig.Node]aig.Lit{node: aig.LitFalse})
			},
			ApplyInPlace: func(g *aig.Graph, touched *[]aig.Node) {
				g.ReplaceNode(node, aig.LitFalse, touched)
			},
		})
	}
	return out
}

func (cg constZeroGen) GenerateWorkers(g *aig.Graph, care *sim.Vectors, valid, _ int) []Candidate {
	return cg.Generate(g, care, valid)
}

func (cg constZeroGen) GenerateIncremental(g *aig.Graph, care *sim.Vectors, valid, _ int,
	_ []bool, _ any) ([]Candidate, any) {
	return cg.Generate(g, care, valid), nil
}

func TestRunWithCustomPatternDistribution(t *testing.T) {
	// Plugging a biased pattern source must work end to end and respect the
	// threshold as measured under that same distribution.
	g := rippleAdder(4)
	probs := make([]float64, g.NumPIs())
	for i := range probs {
		probs[i] = 0.2
	}
	opts := DefaultOptions(errest.ER, 0.05)
	opts.EvalPatterns = 2048
	opts.Patterns = func(nPIs, n int, seed int64) *sim.Patterns {
		words := (n + 63) / 64
		p := sim.Biased(probs, words, seed)
		p.Valid = n
		return p
	}
	res := Run(g, opts)
	if res.FinalError > opts.Threshold {
		t.Fatalf("final error %.4g over threshold under biased inputs", res.FinalError)
	}
	if err := res.Graph.CheckStrict(); err != nil {
		t.Fatal(err)
	}
}

func TestRunVerboseLogging(t *testing.T) {
	g := rippleAdder(3)
	opts := DefaultOptions(errest.ER, 0.1)
	opts.EvalPatterns = 512
	lines := 0
	opts.Verbose = func(string, ...any) { lines++ }
	res := Run(g, opts)
	if res.Applied > 0 && lines == 0 {
		t.Fatalf("verbose callback never invoked despite applied LACs")
	}
}

func TestRunDepthConstrained(t *testing.T) {
	g := rippleAdder(5)
	origDepth := g.Sweep().Depth()
	opts := DefaultOptions(errest.NMED, 0.02)
	opts.EvalPatterns = 2048
	opts.MaxDepthRatio = 1.0
	res := runDepthCapped(t, g, opts)
	if res.Graph.Depth() > origDepth {
		t.Fatalf("depth-constrained run exceeded depth: %d > %d", res.Graph.Depth(), origDepth)
	}
	if res.FinalError > opts.Threshold {
		t.Fatalf("error over threshold")
	}

	// A cap below the original depth rejects every change here, so the
	// result is the input circuit; the rejected trials must leave no trace
	// in it.
	g = bench.Get("mtp8")
	opts = DefaultOptions(errest.NMED, 0.01)
	opts.MaxDepthRatio = 0.9
	res = runDepthCapped(t, g, opts)
	if live := res.Graph.Sweep().NumAnds(); res.Graph.NumAnds() != live {
		t.Fatalf("result graph has %d ANDs but only %d live", res.Graph.NumAnds(), live)
	}
	if res.Graph.NumAnds() > g.Sweep().NumAnds() || res.Graph.Depth() > g.Sweep().Depth() {
		t.Fatalf("result %d ANDs / depth %d is larger than the input", res.Graph.NumAnds(), res.Graph.Depth())
	}
	if err := res.Graph.CheckStrict(); err != nil {
		t.Fatal(err)
	}
}

// runDepthCapped runs a depth-capped session to the end, checking that
// every commit leaves the working graph within the depth cap.
func runDepthCapped(t *testing.T, g *aig.Graph, opts Options) Result {
	t.Helper()
	s := NewSession(g, opts)
	for {
		ev, err := s.Step(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if ev.Done {
			return s.Result()
		}
		if ev.Applied && s.cur.Depth() > s.depthCap {
			t.Fatalf("iteration %d: working depth %d exceeds the cap %d", ev.Iteration, s.cur.Depth(), s.depthCap)
		}
	}
}

// TestRunRefusesWideDivisorSets: Options.MaxDivisors above 2 reaches
// resub.Scan's refusal rather than run a flow without the wider sets.
func TestRunRefusesWideDivisorSets(t *testing.T) {
	opts := DefaultOptions(errest.NMED, 0.01)
	opts.EvalPatterns = 2048
	opts.MaxDivisors = 3
	defer func() {
		if r := recover(); !strings.Contains(fmt.Sprint(r), "MaxDivisors 3") {
			t.Fatalf("Run with MaxDivisors 3 recovered %v, want a panic naming MaxDivisors", r)
		}
	}()
	Run(rippleAdder(4), opts)
}
