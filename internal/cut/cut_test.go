package cut

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/aig"
	"repro/internal/bench"
	"repro/internal/sim"
	"repro/internal/tt"
)

func TestMergeLeaves(t *testing.T) {
	a := []aig.Node{1, 3, 5}
	b := []aig.Node{2, 3, 6}
	dst := make([]aig.Node, 5)
	n := mergeInto(dst, a, b)
	want := []aig.Node{1, 2, 3, 5, 6}
	if n != len(want) {
		t.Fatalf("merge = %v", dst[:max(n, 0)])
	}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("merge = %v, want %v", dst[:n], want)
		}
	}
	if mergeInto(make([]aig.Node, 4), a, b) != -1 {
		t.Fatalf("expected overflow to return -1")
	}
	if n := mergeInto(make([]aig.Node, 3), a, a); n != 3 {
		t.Fatalf("self merge = %d leaves", n)
	}
}

func TestDominates(t *testing.T) {
	c := []aig.Node{1, 2}
	d := []aig.Node{1, 2, 3}
	e := []aig.Node{1, 4}
	if !dominates(c, d) {
		t.Errorf("subset must dominate")
	}
	if dominates(d, c) {
		t.Errorf("superset must not dominate")
	}
	if dominates(c, e) || dominates(e, c) {
		t.Errorf("incomparable cuts must not dominate")
	}
	if !dominates(c, c) {
		t.Errorf("cut must dominate itself")
	}
}

func buildTestCircuit() (*aig.Graph, []aig.Lit, aig.Lit) {
	g := aig.New()
	xs := g.AddPIs(4, "x")
	f := g.Or(g.And(xs[0], xs[1]), g.And(xs[2], xs[3]))
	g.AddPO(f, "f")
	return g, xs, f
}

func TestEnumerateBasics(t *testing.T) {
	g, xs, f := buildTestCircuit()
	s := Enumerate(g, DefaultConfig())
	// PIs have only the trivial cut.
	piCuts := s.Cuts(xs[0].Node())
	if len(piCuts) != 1 || !piCuts[0].IsTrivial(xs[0].Node()) {
		t.Fatalf("PI cuts = %v", piCuts)
	}
	// Root must include the 4-leaf PI cut.
	root := f.Node()
	found := false
	for _, c := range s.Cuts(root) {
		if c.Size() == 4 {
			all := true
			for i, l := range c.Leaves {
				if l != xs[i].Node() {
					all = false
				}
			}
			if all {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("root cuts missing the full PI cut: %v", s.Cuts(root))
	}
	// First cut must be trivial.
	if !s.Cuts(root)[0].IsTrivial(root) {
		t.Fatalf("first cut is not trivial")
	}
}

func TestEnumerateRespectsK(t *testing.T) {
	g := aig.New()
	xs := g.AddPIs(8, "x")
	f := g.AndN(xs...)
	g.AddPO(f, "f")
	s := Enumerate(g, Config{K: 3, PerNode: 16})
	for n := aig.Node(1); int(n) < g.NumNodes(); n++ {
		for _, c := range s.Cuts(n) {
			if c.Size() > 3 && !c.IsTrivial(n) {
				t.Fatalf("node %d has oversized cut %v", n, c)
			}
		}
	}
}

func TestNoDominatedCutsStored(t *testing.T) {
	g, _, _ := buildTestCircuit()
	s := Enumerate(g, DefaultConfig())
	for n := aig.Node(1); int(n) < g.NumNodes(); n++ {
		cuts := s.Cuts(n)
		for i := 1; i < len(cuts); i++ { // skip trivial
			for j := 1; j < len(cuts); j++ {
				if i != j && dominates(cuts[i].Leaves, cuts[j].Leaves) {
					t.Fatalf("node %d stores dominated cut %v (by %v)", n, cuts[j], cuts[i])
				}
			}
		}
	}
}

func TestCutTableMatchesSimulation(t *testing.T) {
	// The cut function computed symbolically must agree with bit-parallel
	// simulation for every cut of every node.
	g := aig.New()
	xs := g.AddPIs(5, "x")
	n1 := g.Xor(xs[0], xs[1])
	n2 := g.Mux(xs[2], n1, xs[3])
	n3 := g.Or(n2, g.And(xs[4], n1))
	g.AddPO(n3, "f")

	p := sim.Exhaustive(5)
	vecs := sim.Simulate(g, p)
	s := Enumerate(g, Config{K: 4, PerNode: 12})

	for n := aig.Node(1); int(n) < g.NumNodes(); n++ {
		if !g.IsAnd(n) {
			continue
		}
		for _, c := range s.Cuts(n) {
			if c.IsTrivial(n) {
				continue
			}
			tab := Table(g, n, c.Leaves)
			// Check on all 32 PI patterns: the node value must equal the
			// table row selected by the leaf values.
			for m := 0; m < 32; m++ {
				row := 0
				for i, l := range c.Leaves {
					if vecs.LitBit(aig.MakeLit(l, false), m) {
						row |= 1 << uint(i)
					}
				}
				want := vecs.LitBit(aig.MakeLit(n, false), m)
				if tab.Get(row) != want {
					t.Fatalf("node %d cut %v: table disagrees at pattern %d", n, c.Leaves, m)
				}
			}
		}
	}
}

func TestCutTableTrivial(t *testing.T) {
	g := aig.New()
	a := g.AddPI("a")
	b := g.AddPI("b")
	f := g.And(a, b.Not())
	tab := Table(g, f.Node(), []aig.Node{a.Node(), b.Node()})
	want := tt.Var(2, 0).And(tt.Var(2, 1).Not())
	if !tab.Equal(want) {
		t.Fatalf("table = %v, want %v", tab, want)
	}
}

func TestVolume(t *testing.T) {
	g, xs, f := buildTestCircuit()
	leaves := []aig.Node{xs[0].Node(), xs[1].Node(), xs[2].Node(), xs[3].Node()}
	if v := Volume(g, f.Node(), leaves); v != 3 {
		t.Fatalf("volume = %d, want 3", v)
	}
	// Volume with an internal leaf.
	and01 := g.And(xs[0], xs[1])
	leaves2 := []aig.Node{and01.Node(), xs[2].Node(), xs[3].Node()}
	if v := Volume(g, f.Node(), leaves2); v != 2 {
		t.Fatalf("volume = %d, want 2", v)
	}
}

// circuit builds a circuit of nGates AND/OR/XOR gates over nPIs inputs and
// the earlier gates, drawing every choice from pick(n) ∈ [0, n). Its last
// four signals are the outputs.
func circuit(nPIs, nGates int, pick func(n int) int) *aig.Graph {
	g := aig.New()
	lits := g.AddPIs(nPIs, "x")
	for i := 0; i < nGates; i++ {
		a := lits[pick(len(lits))].NotCond(pick(2) == 0)
		b := lits[pick(len(lits))].NotCond(pick(2) == 0)
		switch pick(3) {
		case 0:
			lits = append(lits, g.And(a, b))
		case 1:
			lits = append(lits, g.Or(a, b))
		default:
			lits = append(lits, g.Xor(a, b))
		}
	}
	for i := 0; i < 4 && i < len(lits); i++ {
		g.AddPO(lits[len(lits)-1-i], "f")
	}
	return g
}

// randomCircuit is a seeded random circuit.
func randomCircuit(nPIs, nGates int, seed int64) *aig.Graph {
	return circuit(nPIs, nGates, rand.New(rand.NewSource(seed)).Intn)
}

// checkTruths compares every stored cut's Truth against the Table oracle.
func checkTruths(t *testing.T, g *aig.Graph, cfg Config) {
	t.Helper()
	s := Enumerate(g, cfg)
	for n := aig.Node(0); int(n) < g.NumNodes(); n++ {
		for _, c := range s.Cuts(n) {
			if want := Table(g, n, c.Leaves).Words()[0]; c.Truth != want {
				t.Fatalf("%+v node %d cut %v: Truth %#x, Table %#x", cfg, n, c.Leaves, c.Truth, want)
			}
		}
	}
}

func TestCutTruthMatchesTable(t *testing.T) {
	graphs := map[string]*aig.Graph{
		"rca16":    bench.RCA(16),
		"cla16":    bench.CLA(16),
		"ksa16":    bench.KSA(16),
		"mult6":    bench.ArrayMult(6),
		"wallace6": bench.WallaceMult(6),
		"alu":      bench.ALU(),
		"mac4x4":   bench.MACTree(4, 4, 1),
		"divider6": bench.Divider(6),
		"booth6":   bench.Booth(6),
		"sevenseg": bench.SevenSeg(),
	}
	for seed := int64(0); seed < 20; seed++ {
		graphs[fmt.Sprintf("random%d", seed)] = randomCircuit(7, 70, seed)
	}
	for name, g := range graphs {
		for k := 3; k <= 6; k++ {
			t.Run(fmt.Sprintf("%s/K=%d", name, k), func(t *testing.T) {
				checkTruths(t, g, Config{K: k, PerNode: 8})
			})
		}
	}
}

func TestCutTruthZeroAboveSixLeaves(t *testing.T) {
	g := randomCircuit(9, 60, 1)
	s := Enumerate(g, Config{K: 7, PerNode: 8})
	for n := aig.Node(0); int(n) < g.NumNodes(); n++ {
		for _, c := range s.Cuts(n) {
			if c.Truth != 0 {
				t.Fatalf("node %d cut %v: Truth %#x with K = 7", n, c.Leaves, c.Truth)
			}
		}
	}
}

// FuzzCutTruth builds a small AIG from the fuzz bytes — the first two pick
// K and PerNode, the rest drive the gate choices — and checks every cut's
// Truth against Table.
func FuzzCutTruth(f *testing.F) {
	f.Add([]byte{3, 8, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{2, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{255, 255, 7, 200, 13, 99, 42, 42, 42, 1, 0, 0, 5, 17, 33, 250})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		cfg := Config{K: 3 + int(data[0])%4, PerNode: 1 + int(data[1])%12}
		data = data[2:]
		pick := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b) % n
		}
		nGates := min(len(data)/4, 64)
		checkTruths(t, circuit(2+pick(7), nGates, pick), cfg)
	})
}
