package mcmc

import (
	"testing"

	"repro/internal/aig"
	"repro/internal/bench"
	"repro/internal/errest"
	"repro/internal/opt"
)

func rippleAdder(n int) *aig.Graph {
	g := aig.New()
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

func TestMCMCRespectsThreshold(t *testing.T) {
	g := rippleAdder(4)
	o := DefaultOptions(errest.ER, 0.05)
	o.Proposals = 600
	o.EvalPatterns = 2048
	res := Run(g, o)
	if res.FinalError > o.Threshold {
		t.Fatalf("final error %.4g over threshold %.4g", res.FinalError, o.Threshold)
	}
	if res.Graph == nil || res.Graph.NumPOs() != g.NumPOs() {
		t.Fatalf("bad result graph")
	}
	if err := res.Graph.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestMCMCReducesAreaWithBudget(t *testing.T) {
	g := rippleAdder(5)
	o := DefaultOptions(errest.NMED, 0.05)
	o.Proposals = 1200
	o.EvalPatterns = 2048
	res := Run(g, o)
	if res.Graph.NumAnds() >= g.NumAnds() {
		t.Fatalf("no area reduction: %d -> %d", g.NumAnds(), res.Graph.NumAnds())
	}
	if res.Accepted == 0 {
		t.Fatalf("no accepted moves")
	}
}

func TestMCMCZeroThresholdIsSafe(t *testing.T) {
	// With Et=0 only error-free moves are accepted: the result must agree
	// with the original circuit on every evaluation pattern.
	g := rippleAdder(3)
	o := DefaultOptions(errest.ER, 0)
	o.Proposals = 300
	o.EvalPatterns = 1024
	res := Run(g, o)
	if res.FinalError != 0 {
		t.Fatalf("threshold 0 produced error %.4g", res.FinalError)
	}
}

func TestMCMCDeterministicForSeed(t *testing.T) {
	g := rippleAdder(4)
	o := DefaultOptions(errest.ER, 0.03)
	o.Proposals = 400
	o.EvalPatterns = 1024
	r1 := Run(g, o)
	r2 := Run(g, o)
	if r1.Graph.NumAnds() != r2.Graph.NumAnds() || r1.Accepted != r2.Accepted {
		t.Fatalf("same seed, different outcomes")
	}
}

func TestMCMCProposalAccounting(t *testing.T) {
	g := rippleAdder(3)
	o := DefaultOptions(errest.ER, 0.1)
	o.Proposals = 123
	o.EvalPatterns = 512
	res := Run(g, o)
	if res.Proposed != 123 {
		t.Fatalf("proposed %d, want 123", res.Proposed)
	}
	if res.Accepted > res.Proposed {
		t.Fatalf("accepted %d > proposed %d", res.Accepted, res.Proposed)
	}
}

// TestMCMCGolden pins two complete chains, one per metric of Tables VI and
// VII, to their result graph, error and acceptance count. Every proposal
// is scored by the batch estimator over the run's one simulation arena,
// which each accepted move rebinds; OptimizeEvery is small so the chains
// also cross several periodic re-optimizations. A change here means
// proposals are ranked differently, not just faster.
func TestMCMCGolden(t *testing.T) {
	for _, c := range []struct {
		name      string
		g         *aig.Graph
		metric    errest.Metric
		threshold float64
		fp        uint64
		finalErr  float64
		accepted  int
	}{
		{"mtp4/ER", bench.ArrayMult(4), errest.ER, 0.1, 0xb3a8b45ddf82f77f, 0.09912109375, 10},
		{"cla8/MRED", bench.CLA(8), errest.MRED, 0.05, 0x787363e6427bb305, 0.048080167898798765, 19},
	} {
		t.Run(c.name, func(t *testing.T) {
			o := DefaultOptions(c.metric, c.threshold)
			o.Proposals = 1000
			o.EvalPatterns = 2048
			o.OptimizeEvery = 4
			res := Run(opt.Optimize(c.g), o)
			if fp := aig.Fingerprint(res.Graph); fp != c.fp {
				t.Errorf("fingerprint %#016x, want %#016x", fp, c.fp)
			}
			if res.FinalError != c.finalErr {
				t.Errorf("final error %v, want %v", res.FinalError, c.finalErr)
			}
			if res.Accepted != c.accepted {
				t.Errorf("accepted %d, want %d", res.Accepted, c.accepted)
			}
		})
	}
}
