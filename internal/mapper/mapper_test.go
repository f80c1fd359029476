package mapper

import (
	"math/rand"
	"testing"

	"repro/internal/aig"
	"repro/internal/cell"
	"repro/internal/cut"
	"repro/internal/sim"
	"repro/internal/tt"
)

func adder(n int) *aig.Graph {
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

func randomGraph(nPIs, nGates int, seed int64) *aig.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := aig.New()
	lits := g.AddPIs(nPIs, "x")
	for i := 0; i < nGates; i++ {
		a := lits[rng.Intn(len(lits))].NotCond(rng.Intn(2) == 0)
		b := lits[rng.Intn(len(lits))].NotCond(rng.Intn(2) == 0)
		lits = append(lits, g.And(a, b))
	}
	for i := 0; i < 3; i++ {
		g.AddPO(lits[len(lits)-1-i].NotCond(i == 1), "f")
	}
	return g
}

func TestMapLUTSmallFunctionsFitOneLUT(t *testing.T) {
	g := aig.New()
	xs := g.AddPIs(6, "x")
	// Any 6-input single-output function fits a single 6-LUT.
	f := g.Xor(g.AndN(xs[:3]...), g.OrN(xs[3:]...))
	g.AddPO(f, "f")
	r := MapLUT(g, 6)
	if r.LUTs != 1 || r.Depth != 1 {
		t.Fatalf("6-input function mapped to %d LUTs depth %d, want 1/1", r.LUTs, r.Depth)
	}
}

func TestMapLUTAdder(t *testing.T) {
	g := adder(8)
	r := MapLUT(g, 6)
	if r.LUTs <= 0 || r.LUTs > g.NumAnds() {
		t.Fatalf("LUT count %d out of range (ANDs %d)", r.LUTs, g.NumAnds())
	}
	if r.Depth <= 0 || r.Depth > g.Depth() {
		t.Fatalf("depth %d out of range (AIG depth %d)", r.Depth, g.Depth())
	}
	// Every chosen cut's leaves must themselves be mapped or PIs.
	for root, leaves := range r.Roots {
		if !g.IsAnd(root) {
			t.Fatalf("mapped root %d is not an AND", root)
		}
		for _, l := range leaves {
			if g.IsAnd(l) {
				if _, ok := r.Roots[l]; !ok {
					t.Fatalf("leaf %d of root %d is not mapped", l, root)
				}
			}
		}
	}
}

func TestMapLUTSmallerKMoreLUTs(t *testing.T) {
	g := adder(12)
	r6 := MapLUT(g, 6)
	r4 := MapLUT(g, 4)
	r2 := MapLUT(g, 2)
	if !(r6.LUTs <= r4.LUTs && r4.LUTs <= r2.LUTs) {
		t.Fatalf("LUT counts not monotone in K: K6=%d K4=%d K2=%d", r6.LUTs, r4.LUTs, r2.LUTs)
	}
	// K=2 LUTs are essentially AIG nodes.
	if r2.LUTs > g.NumAnds() {
		t.Fatalf("K2 mapping larger than AIG: %d > %d", r2.LUTs, g.NumAnds())
	}
}

// coverOutputs evaluates MapLUT's cover of g as a LUT network, each chosen
// root's cut function over its leaves in id order, on pattern pat of p and
// returns the value of every PO.
func coverOutputs(g *aig.Graph, r LUTResult, p *sim.Patterns, pat int) []bool {
	val := make([]bool, g.NumNodes()) // val[0] is the constant false
	for i := 0; i < g.NumPIs(); i++ {
		val[g.PI(i)] = p.In[i][pat/64]>>uint(pat%64)&1 == 1
	}
	// Leaves precede their root in id order (TestLUTNetworkTopologicalOrder).
	for n := aig.Node(1); int(n) < g.NumNodes(); n++ {
		if leaves, ok := r.Roots[n]; ok {
			m := 0
			for i, l := range leaves {
				if val[l] {
					m |= 1 << uint(i)
				}
			}
			val[n] = cut.Table(g, n, leaves).Get(m)
		}
	}
	out := make([]bool, g.NumPOs())
	for o := range out {
		po := g.PO(o)
		out[o] = val[po.Node()] != po.IsCompl()
	}
	return out
}

// TestLUTNetworkEvalMatchesAIG checks that MapLUT's cover computes the
// circuit: every PO of the LUT network against the AIG's simulation,
// pattern by pattern.
func TestLUTNetworkEvalMatchesAIG(t *testing.T) {
	for _, c := range []struct {
		name string
		g    *aig.Graph
		k    int
	}{
		{"adder/K6", adder(8), 6},
		{"adder/K4", adder(8), 4},
		{"random/K6", randomGraph(8, 80, 3), 6},
	} {
		g := c.g
		r := MapLUT(g, c.k)
		if r.LUTs == 0 {
			t.Fatalf("%s: empty mapping", c.name)
		}
		p := sim.Uniform(g.NumPIs(), 8, 42)
		ref := sim.Simulate(g, p)
		for pat := 0; pat < p.Valid; pat++ {
			for o, v := range coverOutputs(g, r, p, pat) {
				if v != ref.LitBit(g.PO(o), pat) {
					t.Fatalf("%s: PO %d differs from the AIG on pattern %d", c.name, o, pat)
				}
			}
		}
	}
}

func TestLUTNetworkRespectsK(t *testing.T) {
	g := adder(12)
	r := MapLUT(g, 4)
	for root, leaves := range r.Roots {
		if len(leaves) > 4 {
			t.Fatalf("LUT at %d has %d inputs", root, len(leaves))
		}
		if cut.Table(g, root, leaves).NumVars() != len(leaves) {
			t.Fatalf("LUT table arity mismatch at %d", root)
		}
	}
	if len(r.Roots) != r.LUTs {
		t.Fatalf("cover has %d roots, MapLUT counts %d LUTs", len(r.Roots), r.LUTs)
	}
}

// TestLUTNetworkTopologicalOrder checks that every LUT reads only PIs and
// mapped roots of smaller id, so evaluating roots in id order is sound.
func TestLUTNetworkTopologicalOrder(t *testing.T) {
	g := randomGraph(6, 60, 9)
	r := MapLUT(g, 6)
	for root, leaves := range r.Roots {
		for _, l := range leaves {
			if _, mapped := r.Roots[l]; g.Kind(l) != aig.KindPI && !mapped {
				t.Fatalf("LUT %d reads node %d, neither a PI nor a mapped root", root, l)
			}
			if l >= root {
				t.Fatalf("LUT %d reads leaf %d defined after it", root, l)
			}
		}
	}
}

func TestLUTNetworkConstantPO(t *testing.T) {
	g := adder(4)
	g.AddPO(aig.LitTrue, "one")
	r := MapLUT(g, 6)
	p := sim.Uniform(g.NumPIs(), 2, 7)
	for pat := 0; pat < p.Valid; pat++ {
		if out := coverOutputs(g, r, p, pat); !out[len(out)-1] {
			t.Fatalf("constant PO evaluated false on pattern %d", pat)
		}
	}
}

func TestMatchTableCoversAllAndPhases(t *testing.T) {
	mt := BuildMatchTable(cell.MCNC())
	notIf := func(t tt.Table, c bool) tt.Table {
		if c {
			return t.Not()
		}
		return t
	}
	// All 2-input AND functions with arbitrary phases must be matched.
	for phase := 0; phase < 8; phase++ {
		f := notIf(tt.Var(2, 0), phase&1 != 0).And(notIf(tt.Var(2, 1), phase&2 != 0))
		f = notIf(f, phase&4 != 0)
		if _, ok := mt.Lookup(pad16(2, f.Words()[0])); !ok {
			t.Fatalf("AND phase %d not matched", phase)
		}
	}
	if mt.Size() < 300 {
		t.Fatalf("match table suspiciously small: %d functions", mt.Size())
	}
}

func TestTransform(t *testing.T) {
	// AND2 with inputs swapped and input 0 complemented: f(a,b) = ¬b ∧ a.
	and2 := tt.Var(2, 0).And(tt.Var(2, 1))
	got := transform(and2, 2, []int{1, 0}, 0b01)
	// Minterm over 4 vars: x0=a ... value = (¬x1) ∧ x0.
	var want uint16
	for m := 0; m < 16; m++ {
		if m&2 == 0 && m&1 != 0 {
			want |= 1 << uint(m)
		}
	}
	if got != want {
		t.Fatalf("transform = %04x, want %04x", got, want)
	}
}

func TestPad16(t *testing.T) {
	pad := func(f tt.Table) uint16 { return pad16(f.NumVars(), f.Words()[0]) }
	if pad(tt.Ones(0)) != 0xFFFF || pad(tt.New(0)) != 0 {
		t.Fatalf("constant padding wrong")
	}
	v0 := pad(tt.Var(1, 0))
	if v0 != 0xAAAA {
		t.Fatalf("var0 over 1 var = %04x", v0)
	}
	x2 := pad(tt.Var(3, 2))
	if x2 != 0xF0F0 {
		t.Fatalf("var2 over 3 vars = %04x", x2)
	}
}

func TestMapCellsAdder(t *testing.T) {
	g := adder(8)
	r := MapCells(g, cell.MCNC())
	if r.Area <= 0 || r.Gates <= 0 || r.Delay <= 0 {
		t.Fatalf("degenerate result %+v", r)
	}
	// The mapping cannot use more gates than one cell per AND plus one
	// inverter per PO.
	if r.Gates > g.NumAnds()+g.NumPOs() {
		t.Fatalf("gate count %d too large", r.Gates)
	}
}

func TestMapCellsInverterForComplementedPO(t *testing.T) {
	g := aig.New()
	a := g.AddPI("a")
	b := g.AddPI("b")
	g.AddPO(g.And(a, b), "f")
	r1 := MapCells(g, cell.MCNC())

	g2 := aig.New()
	a2 := g2.AddPI("a")
	b2 := g2.AddPI("b")
	g2.AddPO(g2.And(a2, b2).Not(), "f") // NAND: no extra inverter needed
	r2 := MapCells(g2, cell.MCNC())
	// NAND should be cheaper than or equal to AND in this library
	// (nand2 area 1 vs and2 area 2).
	if r2.Area > r1.Area {
		t.Fatalf("NAND mapping (%.1f) more expensive than AND (%.1f)", r2.Area, r1.Area)
	}
}

func TestMapCellsRandom(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		g := randomGraph(6, 50, seed)
		r := MapCells(g, cell.MCNC())
		if r.Area <= 0 || r.Delay <= 0 {
			t.Fatalf("seed %d: degenerate mapping %+v", seed, r)
		}
	}
}

func TestMapCellsConstantOutput(t *testing.T) {
	g := aig.New()
	g.AddPI("a")
	g.AddPO(aig.LitTrue, "one")
	g.AddPO(aig.LitFalse, "zero")
	r := MapCells(g, cell.MCNC())
	if r.Gates != 0 {
		t.Fatalf("constant outputs should need no gates, got %d", r.Gates)
	}
}
