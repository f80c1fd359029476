package sim

import (
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/aig"
)

// fullAdder builds a 1-bit full adder.
func fullAdder(g *aig.Graph, a, b, cin aig.Lit) (sum, cout aig.Lit) {
	axb := g.Xor(a, b)
	sum = g.Xor(axb, cin)
	cout = g.Or(g.And(a, b), g.And(axb, cin))
	return
}

func TestSimulateExhaustiveAdder(t *testing.T) {
	g := aig.New()
	a := g.AddPI("a")
	b := g.AddPI("b")
	cin := g.AddPI("cin")
	s, co := fullAdder(g, a, b, cin)
	g.AddPO(s, "s")
	g.AddPO(co, "co")

	p := Exhaustive(3)
	v := Simulate(g, p)
	for m := 0; m < 8; m++ {
		va, vb, vc := m&1, m>>1&1, m>>2&1
		total := va + vb + vc
		if got := v.LitBit(s, m); got != (total&1 == 1) {
			t.Errorf("sum(%d%d%d) = %v", va, vb, vc, got)
		}
		if got := v.LitBit(co, m); got != (total >= 2) {
			t.Errorf("cout(%d%d%d) = %v", va, vb, vc, got)
		}
	}
}

func TestExhaustiveSmallCyclesUniformly(t *testing.T) {
	p := Exhaustive(2)
	// Each minterm appears 16 times in the 64-bit word.
	if c := bits.OnesCount64(p.In[0][0]); c != 32 {
		t.Fatalf("PI0 weight = %d, want 32", c)
	}
	if c := bits.OnesCount64(p.In[0][0] & p.In[1][0]); c != 16 {
		t.Fatalf("minterm 11 weight = %d, want 16", c)
	}
}

func TestExhaustiveLarge(t *testing.T) {
	p := Exhaustive(8)
	if p.Words != 4 {
		t.Fatalf("words = %d", p.Words)
	}
	// PI 7 must be 0 in the first two words and 1 in the last two.
	if p.In[7][0] != 0 || p.In[7][1] != 0 || p.In[7][2] != ^uint64(0) || p.In[7][3] != ^uint64(0) {
		t.Fatalf("PI7 pattern wrong: %x", p.In[7])
	}
	// PI 6 alternates words.
	if p.In[6][0] != 0 || p.In[6][1] != ^uint64(0) {
		t.Fatalf("PI6 pattern wrong")
	}
}

func TestUniformDeterministic(t *testing.T) {
	p1 := Uniform(4, 8, 7)
	p2 := Uniform(4, 8, 7)
	p3 := Uniform(4, 8, 8)
	for i := range p1.In {
		for j := range p1.In[i] {
			if p1.In[i][j] != p2.In[i][j] {
				t.Fatalf("same seed produced different patterns")
			}
		}
	}
	same := true
	for i := range p1.In {
		for j := range p1.In[i] {
			if p1.In[i][j] != p3.In[i][j] {
				same = false
			}
		}
	}
	if same {
		t.Fatalf("different seeds produced identical patterns")
	}
}

func TestBiasedDistribution(t *testing.T) {
	p := Biased([]float64{0.9, 0.1, 0.5}, 64, 11) // 4096 patterns
	count := func(i int) int {
		c := 0
		for _, w := range p.In[i] {
			c += bits.OnesCount64(w)
		}
		return c
	}
	n := float64(p.NumPatterns())
	if f := float64(count(0)) / n; f < 0.85 || f > 0.95 {
		t.Errorf("PI0 density = %.3f, want ≈0.9", f)
	}
	if f := float64(count(1)) / n; f < 0.05 || f > 0.15 {
		t.Errorf("PI1 density = %.3f, want ≈0.1", f)
	}
	if f := float64(count(2)) / n; f < 0.45 || f > 0.55 {
		t.Errorf("PI2 density = %.3f, want ≈0.5", f)
	}
}

func TestLitInto(t *testing.T) {
	g := aig.New()
	a := g.AddPI("a")
	g.AddPO(a, "f")
	p := Exhaustive(1)
	v := Simulate(g, p)
	buf := make([]uint64, 1)
	v.LitInto(a, buf)
	plain := buf[0]
	v.LitInto(a.Not(), buf)
	if buf[0] != ^plain {
		t.Fatalf("complemented literal not complemented")
	}
}

func TestPOWords(t *testing.T) {
	g := aig.New()
	a := g.AddPI("a")
	b := g.AddPI("b")
	g.AddPO(g.And(a, b), "and")
	g.AddPO(g.And(a, b).Not(), "nand")
	v := Simulate(g, Exhaustive(2))
	pow := POWords(g, v)
	if pow[0][0] != ^pow[1][0] {
		t.Fatalf("PO words do not respect complement")
	}
}

func TestResimulatorMatchesFullSim(t *testing.T) {
	// Build a circuit with reconvergence, replace an internal node's vector
	// with its complement, and compare against simulating a mutated graph.
	g := aig.New()
	a := g.AddPI("a")
	b := g.AddPI("b")
	c := g.AddPI("c")
	ab := g.And(a, b)
	f1 := g.And(ab, c)
	f2 := g.Or(ab, c.Not())
	g.AddPO(f1, "f1")
	g.AddPO(g.Xor(f1, f2), "f2")

	p := Exhaustive(3)
	arena := NewArena(g, p, 1)
	defer arena.Release()
	base := arena.Vectors()

	r := NewResimulator(arena)
	flipped := make([]uint64, base.Words)
	for i, w := range base.Node(ab.Node()) {
		flipped[i] = ^w
	}
	r.Resimulate(ab.Node(), flipped, 0, base.Words)
	got := make([][]uint64, g.NumPOs())
	for i := range got {
		got[i] = make([]uint64, base.Words)
	}
	r.POWordsInto(got)

	// Reference: substitute ab by its complement structurally and simulate.
	ng := g.CopyWith(map[aig.Node]aig.Lit{ab.Node(): ab.Not()})
	refV := Simulate(ng, p)
	ref := POWords(ng, refV)
	for i := range ref {
		for j := range ref[i] {
			if got[i][j] != ref[i][j] {
				t.Fatalf("PO %d word %d: resim %x, full sim %x", i, j, got[i][j], ref[i][j])
			}
		}
	}
	// Base vectors must be untouched.
	v2 := Simulate(g, p)
	for n := aig.Node(0); int(n) < g.NumNodes(); n++ {
		for j, w := range v2.Node(n) {
			if base.Node(n)[j] != w {
				t.Fatalf("base vectors mutated at node %d", n)
			}
		}
	}
}

func TestResimulatorReuse(t *testing.T) {
	g := aig.New()
	a := g.AddPI("a")
	b := g.AddPI("b")
	x := g.And(a, b)
	y := g.Or(a, b)
	g.AddPO(g.Xor(x, y), "f")
	p := Exhaustive(2)
	arena := NewArena(g, p, 1)
	defer arena.Release()
	base := arena.Vectors()
	r := NewResimulator(arena)

	out := [][]uint64{make([]uint64, 1)}

	// First: replace x with constant 1.
	ones := []uint64{^uint64(0)}
	r.Resimulate(x.Node(), ones, 0, 1)
	r.POWordsInto(out)
	first := out[0][0]

	// Second: replace y with x's original vector; overlay from the first
	// call must be fully cleared.
	r.Resimulate(y.Node(), base.Node(x.Node()), 0, 1)
	r.POWordsInto(out)
	second := out[0][0]

	// Reference values.
	ng1 := g.CopyWith(map[aig.Node]aig.Lit{x.Node(): aig.LitTrue})
	want1 := POWords(ng1, Simulate(ng1, p))[0][0]
	ng2 := g.CopyWith(map[aig.Node]aig.Lit{y.Node(): x})
	want2 := POWords(ng2, Simulate(ng2, p))[0][0]
	if first != want1 {
		t.Fatalf("first resim: got %x want %x", first, want1)
	}
	if second != want2 {
		t.Fatalf("second resim: got %x want %x", second, want2)
	}
}

func TestResimulateIdentityIsNoop(t *testing.T) {
	g := aig.New()
	a := g.AddPI("a")
	b := g.AddPI("b")
	x := g.And(a, b)
	g.AddPO(x, "f")
	p := Exhaustive(2)
	arena := NewArena(g, p, 1)
	defer arena.Release()
	base := arena.Vectors()
	r := NewResimulator(arena)
	r.Resimulate(x.Node(), base.Node(x.Node()), 0, 1)
	if r.Words(x.Node())[0] != base.Node(x.Node())[0] {
		t.Fatalf("identity resimulation changed values")
	}
}

// TestResimulatorRandomVectorsProperty: for random replacement vectors (not
// just complements), the resimulated PO words must match simulating a
// circuit built with the node's function replaced by an equivalent function
// of fresh inputs. We verify against a brute-force overlay evaluator.
func TestResimulatorRandomVectorsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := aig.New()
	lits := g.AddPIs(5, "x")
	for i := 0; i < 25; i++ {
		a := lits[rng.Intn(len(lits))].NotCond(rng.Intn(2) == 0)
		b := lits[rng.Intn(len(lits))].NotCond(rng.Intn(2) == 0)
		lits = append(lits, g.And(a, b))
	}
	for i := 0; i < 3; i++ {
		g.AddPO(lits[len(lits)-1-i], "f")
	}
	p := Exhaustive(5)
	arena := NewArena(g, p, 1)
	defer arena.Release()
	base := arena.Vectors()
	r := NewResimulator(arena)
	out := make([][]uint64, g.NumPOs())
	for i := range out {
		out[i] = make([]uint64, base.Words)
	}

	// Brute-force reference: recompute every node with the overlay value
	// forced at n.
	reference := func(n aig.Node, newVec []uint64) [][]uint64 {
		vals := make([][]uint64, g.NumNodes())
		for id := aig.Node(0); int(id) < g.NumNodes(); id++ {
			vals[id] = make([]uint64, base.Words)
			copy(vals[id], base.Node(id))
		}
		copy(vals[n], newVec)
		for id := n + 1; int(id) < g.NumNodes(); id++ {
			if !g.IsAnd(id) {
				continue
			}
			f0, f1 := g.Fanin0(id), g.Fanin1(id)
			for w := 0; w < base.Words; w++ {
				a := vals[f0.Node()][w]
				if f0.IsCompl() {
					a = ^a
				}
				b := vals[f1.Node()][w]
				if f1.IsCompl() {
					b = ^b
				}
				vals[id][w] = a & b
			}
		}
		ref := make([][]uint64, g.NumPOs())
		for i := 0; i < g.NumPOs(); i++ {
			po := g.PO(i)
			ref[i] = make([]uint64, base.Words)
			for w := 0; w < base.Words; w++ {
				v := vals[po.Node()][w]
				if po.IsCompl() {
					v = ^v
				}
				ref[i][w] = v
			}
		}
		return ref
	}

	for trial := 0; trial < 40; trial++ {
		var n aig.Node
		for {
			n = aig.Node(rng.Intn(g.NumNodes()-1) + 1)
			if g.IsAnd(n) {
				break
			}
		}
		newVec := make([]uint64, base.Words)
		for w := range newVec {
			newVec[w] = rng.Uint64()
		}
		r.Resimulate(n, newVec, 0, base.Words)
		r.POWordsInto(out)
		want := reference(n, newVec)
		for i := range want {
			for w := range want[i] {
				if out[i][w] != want[i][w] {
					t.Fatalf("trial %d node %d PO %d word %d: got %x want %x",
						trial, n, i, w, out[i][w], want[i][w])
				}
			}
		}
	}
}
