package sasimi

import (
	"slices"
	"testing"

	"repro/internal/aig"
	"repro/internal/core"
	"repro/internal/errest"
	"repro/internal/sim"
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

func TestGeneratorProposesCandidates(t *testing.T) {
	g := rippleAdder(4)
	p := sim.Uniform(g.NumPIs(), 8, 3)
	vecs := sim.Simulate(g, p)
	cands := DefaultGenerator().Generate(g, vecs, p.Valid)
	if len(cands) == 0 {
		t.Fatalf("no candidates")
	}
	perNode := map[aig.Node]int{}
	for _, c := range cands {
		perNode[c.Node]++
		if c.Gain <= 0 {
			t.Errorf("candidate at node %d has gain %d", c.Node, c.Gain)
		}
	}
	for n, k := range perNode {
		if k > 3 {
			t.Errorf("node %d has %d candidates, cap 3", n, k)
		}
	}
}

func TestCandidateVectorsMatchApply(t *testing.T) {
	// For each candidate, the predicted new vector must equal the node's
	// vector when simulating the substituted circuit... the substitute is an
	// existing signal, so NewVec must be exactly that signal's vector.
	g := rippleAdder(3)
	p := sim.Exhaustive(g.NumPIs())
	vecs := sim.Simulate(g, p)
	cands := DefaultGenerator().Generate(g, vecs, p.Valid)
	buf := make([]uint64, vecs.Words)
	for _, c := range cands {
		c.NewVec(vecs, buf)
		ng := c.Apply(g.Clone())
		if ng.NumPIs() != g.NumPIs() || ng.NumPOs() != g.NumPOs() {
			t.Fatalf("apply changed the interface")
		}
		if err := ng.Check(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSasimiFlowRespectsThreshold(t *testing.T) {
	// A small adder under a generous ER budget: single-signal substitution
	// is coarse (the paper's motivation), but some move must fit 25%.
	g := rippleAdder(4)
	opts := Configure(core.DefaultOptions(errest.ER, 0.25))
	opts.EvalPatterns = 4096
	res := core.Run(g, opts)
	if res.FinalError > opts.Threshold {
		t.Fatalf("final error %.4g over threshold", res.FinalError)
	}
	if res.Applied == 0 {
		t.Fatalf("SASIMI flow applied nothing")
	}
}

func TestSasimiSubstitutesOnlyAcyclic(t *testing.T) {
	// All substitutes must have smaller ids than the target (acyclic by
	// construction); Apply must never panic or loop.
	g := rippleAdder(5)
	p := sim.Uniform(g.NumPIs(), 8, 9)
	vecs := sim.Simulate(g, p)
	for _, c := range DefaultGenerator().Generate(g, vecs, p.Valid) {
		ng := c.Apply(g)
		if err := ng.Check(); err != nil {
			t.Fatalf("node %d: %v", c.Node, err)
		}
	}
}

func TestConfigure(t *testing.T) {
	opts := Configure(core.DefaultOptions(errest.NMED, 0.01))
	if opts.InitialRounds != 512 || opts.Scale != 1.0 {
		t.Fatalf("Configure did not pin the similarity budget")
	}
	if _, ok := opts.Generator.(Generator); !ok {
		t.Fatalf("Configure did not install the SASIMI generator")
	}
}

// TestApplyInPlaceOnFreedSlots: sessions commit SASIMI changes in place, so
// the generator scans graphs with freed slots. No substitute may be a dead
// slot (its care vector is stale), and every candidate's in-place commit
// must equal its copying Apply.
func TestApplyInPlaceOnFreedSlots(t *testing.T) {
	// Rewire the first AND node whose MFFC, freed in place, leaves a dead
	// slot below live logic — a slot the signal scan would reach.
	var g *aig.Graph
	for v := aig.Node(1); g == nil; v++ {
		h := rippleAdder(5).Sweep()
		if int(v) >= h.NumNodes() {
			t.Fatal("no replacement leaves a dead slot below live logic")
		}
		if !h.IsAnd(v) {
			continue
		}
		h.ReplaceNode(v, aig.LitFalse, nil)
		for n := aig.Node(1); int(n) < h.NumNodes(); n++ {
			if h.Kind(n) == aig.KindDead && h.IsAnd(aig.Node(h.NumNodes()-1)) {
				g = h
				break
			}
		}
	}
	p := sim.Exhaustive(g.NumPIs())
	vecs := sim.Simulate(g, p)
	gen := DefaultGenerator()
	for _, sb := range gen.scan(g, vecs, p.Valid) {
		if g.Kind(sb.sub.Node()) == aig.KindDead {
			t.Fatalf("node %d: substitute %v is a freed slot", sb.node, sb.sub)
		}
	}
	cands := gen.Generate(g, vecs, p.Valid)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	for _, c := range cands {
		inPlace := g.Clone()
		c.ApplyInPlace(inPlace, nil)
		copied := c.Apply(g.Clone())
		for _, h := range []*aig.Graph{inPlace, copied} {
			if err := h.CheckStrict(); err != nil {
				t.Fatalf("node %d: %v", c.Node, err)
			}
		}
		if inPlace.NumAnds() != copied.NumAnds() {
			t.Fatalf("node %d: %d ANDs in place, %d via Apply", c.Node, inPlace.NumAnds(), copied.NumAnds())
		}
		a, b := sim.Simulate(inPlace, p), sim.Simulate(copied, p)
		for i := 0; i < g.NumPOs(); i++ {
			got := a.LitInto(inPlace.PO(i), make([]uint64, p.Words))
			want := b.LitInto(copied.PO(i), make([]uint64, p.Words))
			if !slices.Equal(got, want) {
				t.Fatalf("node %d: PO %d differs between ApplyInPlace and Apply", c.Node, i)
			}
		}
		a.Release()
		b.Release()
	}
	vecs.Release()
}
