package resub

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/aig"
	"repro/internal/sim"
	"repro/internal/tt"
)

// figure1 builds the example circuit of Fig. 1a in the paper:
//
//	x = NOR(a,b), y = AND(b,c), z = NOR(x,y), u = OR(c,d), w = NOT(c),
//	v = XOR(z,w)
//
// It returns the graph and the literals of the named signals.
func figure1() (g *aig.Graph, a, b, c, d, x, y, u, z, w, v aig.Lit) {
	g = aig.New()
	a = g.AddPI("a")
	b = g.AddPI("b")
	c = g.AddPI("c")
	d = g.AddPI("d")
	x = g.Or(a, b).Not()
	y = g.And(b, c)
	z = g.Or(x, y).Not()
	u = g.Or(c, d)
	w = c.Not()
	v = g.Xor(z, w)
	g.AddPO(v, "v")
	return
}

// tableI is the expected node values from Table I of the paper, indexed by
// the row label abcd (a is the first character).
var tableI = []struct {
	abcd             string
	x, y, u, z, w, v int
}{
	{"0000", 1, 0, 0, 0, 1, 1},
	{"0001", 1, 0, 1, 0, 1, 1},
	{"0010", 1, 0, 1, 0, 0, 0},
	{"0011", 1, 0, 1, 0, 0, 0},
	{"0100", 0, 0, 0, 1, 1, 0},
	{"0101", 0, 0, 1, 1, 1, 0},
	{"0110", 0, 1, 1, 0, 0, 0},
	{"0111", 0, 1, 1, 0, 0, 0},
	{"1000", 0, 0, 0, 1, 1, 0},
	{"1001", 0, 0, 1, 1, 1, 0},
	{"1010", 0, 0, 1, 1, 0, 1},
	{"1011", 0, 0, 1, 1, 0, 1},
	{"1100", 0, 0, 0, 1, 1, 0},
	{"1101", 0, 0, 1, 1, 1, 0},
	{"1110", 0, 1, 1, 0, 0, 0},
	{"1111", 0, 1, 1, 0, 0, 0},
}

// minterm converts an "abcd" row label into the exhaustive-pattern index
// (PI 0 = a is the least significant bit).
func minterm(abcd string) int {
	m := 0
	for i, ch := range abcd {
		if ch == '1' {
			m |= 1 << i
		}
	}
	return m
}

func TestPaperExampleTableI(t *testing.T) {
	g, _, _, _, _, x, y, u, z, w, v := figure1()
	vecs := sim.Simulate(g, sim.Exhaustive(4))
	for _, row := range tableI {
		m := minterm(row.abcd)
		checks := []struct {
			name string
			lit  aig.Lit
			want int
		}{
			{"x", x, row.x}, {"y", y, row.y}, {"u", u, row.u},
			{"z", z, row.z}, {"w", w, row.w}, {"v", v, row.v},
		}
		for _, ck := range checks {
			got := 0
			if vecs.LitBit(ck.lit, m) {
				got = 1
			}
			if got != ck.want {
				t.Errorf("row %s: %s = %d, want %d", row.abcd, ck.name, got, ck.want)
			}
		}
	}
}

func TestPaperExampleInfeasibleOnFullCareSet(t *testing.T) {
	// Example 2: over all 16 patterns, {u,z} cannot resubstitute v.
	g, _, _, _, _, _, _, u, z, _, v := figure1()
	vecs := sim.Simulate(g, sim.Exhaustive(4))
	if _, ok := BuildCover(vecs, []aig.Lit{u, z}, v, 16); ok {
		t.Fatalf("divisors {u,z} must be infeasible with the accurate care set")
	}
}

func TestPaperExampleDependenceOnCD(t *testing.T) {
	// Section III-B2: {a,b} cannot resubstitute v because v also depends
	// on c and d.
	g, a, b, _, _, _, _, _, _, _, v := figure1()
	vecs := sim.Simulate(g, sim.Exhaustive(4))
	if _, ok := BuildCover(vecs, []aig.Lit{a, b}, v, 16); ok {
		t.Fatalf("divisors {a,b} must be infeasible")
	}
}

// paperPatterns builds the 5 simulation patterns of Example 1:
// abcd ∈ {0000, 0010, 0011, 0100, 1000}.
func paperPatterns() *sim.Patterns {
	rows := []string{"0000", "0010", "0011", "0100", "1000"}
	p := &sim.Patterns{Words: 1, Valid: len(rows), In: make([][]uint64, 4)}
	for pi := 0; pi < 4; pi++ {
		var w uint64
		for bit, row := range rows {
			if row[pi] == '1' {
				w |= 1 << uint(bit)
			}
		}
		p.In[pi] = []uint64{w}
	}
	return p
}

func TestPaperExampleApproximateResubstitution(t *testing.T) {
	// Examples 1, 3 and 4: with the 5 sampled patterns, {u,z} is feasible
	// for v and the derived ISOP is v̂ = ¬u ∧ ¬z (a NOR gate).
	g, _, _, _, _, _, _, u, z, _, v := figure1()
	p := paperPatterns()
	vecs := sim.Simulate(g, p)
	cover, ok := BuildCover(vecs, []aig.Lit{u, z}, v, p.Valid)
	if !ok {
		t.Fatalf("divisors {u,z} must be feasible on the sampled care set")
	}
	if len(cover) != 1 {
		t.Fatalf("cover = %v, want a single cube", cover)
	}
	if cover[0].Pos != 0 || cover[0].Neg != 0b11 {
		t.Fatalf("cube = %+v, want ¬u∧¬z", cover[0])
	}
}

func TestPaperExampleErrorRate(t *testing.T) {
	// Example 1: replacing v by NOR(u,z) flips 3 of the 16 patterns
	// (error rate 18.75% at node v under uniform inputs).
	g, _, _, _, _, _, _, u, z, _, v := figure1()
	lac := LAC{
		Node:     v.Node(),
		Divisors: []aig.Lit{u, z},
		Cover:    tt.Cover{tt.Cube{Neg: 0b11}},
	}
	before := sim.Simulate(g, sim.Exhaustive(4))
	vOld := append([]uint64(nil), before.Node(v.Node())...)

	ng := lac.Apply(g)
	after := sim.Simulate(ng, sim.Exhaustive(4))
	// Compare the PO (v is the only output; account for PO phases).
	oldPO := before.LitInto(g.PO(0), make([]uint64, 1))
	newPO := after.LitInto(ng.PO(0), make([]uint64, 1))
	diff := (oldPO[0] ^ newPO[0]) & 0xFFFF
	n := 0
	for x := diff; x != 0; x &= x - 1 {
		n++
	}
	if n != 3 {
		t.Fatalf("approximate circuit differs on %d of 16 patterns, want 3", n)
	}
	_ = vOld
}

func TestPaperExampleSimplifiesCircuit(t *testing.T) {
	g, _, _, _, _, _, _, u, z, _, v := figure1()
	lac := LAC{
		Node:     v.Node(),
		Divisors: []aig.Lit{u, z},
		Cover:    tt.Cover{tt.Cube{Neg: 0b11}},
	}
	before := g.NumAnds()
	ng := lac.Apply(g)
	if ng.NumAnds() >= before {
		t.Fatalf("ANDs %d -> %d: LAC did not simplify", before, ng.NumAnds())
	}
}

func TestBuildCoverConstantNode(t *testing.T) {
	// Empty divisor set: feasible iff the node is constant on the sample.
	g := aig.New()
	a := g.AddPI("a")
	b := g.AddPI("b")
	f := g.And(a, b)
	g.AddPO(f, "f")
	// Patterns where f is always 0: a=0 always.
	p := &sim.Patterns{Words: 1, Valid: 4, In: [][]uint64{{0x0}, {0x6}}}
	vecs := sim.Simulate(g, p)
	cover, ok := BuildCover(vecs, nil, f, p.Valid)
	if !ok {
		t.Fatalf("constant resubstitution must be feasible")
	}
	if len(cover) != 0 {
		t.Fatalf("cover = %v, want empty (constant 0)", cover)
	}
	// Patterns where f varies: infeasible with no divisors.
	p2 := sim.Exhaustive(2)
	vecs2 := sim.Simulate(g, p2)
	if _, ok := BuildCover(vecs2, nil, f, 4); ok {
		t.Fatalf("varying node must be infeasible with empty divisors")
	}
}

func TestGenerateFindsExactResubstitutions(t *testing.T) {
	// Build a circuit with a redundant reconstruction: f = (a&b) | (a&b&c).
	// The node (a&b&c) is absorbed by (a&b); generation with the full care
	// set must find zero-error simplifications.
	g := aig.New()
	a := g.AddPI("a")
	b := g.AddPI("b")
	c := g.AddPI("c")
	ab := g.And(a, b)
	abc := g.And(ab, c)
	f := g.Or(ab, abc)
	g.AddPO(f, "f")

	p := sim.Exhaustive(3)
	vecs := sim.Simulate(g, p)
	lacs := Generate(g, vecs, p.Valid, DefaultConfig(), 1, nil, nil)
	if len(lacs) == 0 {
		t.Fatalf("no LACs generated for redundant circuit")
	}
	// At least one LAC must be error-free: applying it preserves the PO
	// function on all 8 patterns.
	found := false
	for i := range lacs {
		ng := lacs[i].Apply(g)
		nv := sim.Simulate(ng, p)
		oldPO := vecs.LitInto(g.PO(0), make([]uint64, 1))
		newPO := nv.LitInto(ng.PO(0), make([]uint64, 1))
		if (oldPO[0]^newPO[0])&0xFF == 0 && ng.NumAnds() < g.NumAnds() {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no zero-error simplifying LAC among %d candidates", len(lacs))
	}
}

func TestGenerateRespectsLACLimit(t *testing.T) {
	g := aig.New()
	xs := g.AddPIs(4, "x")
	f := g.AndN(xs...)
	g.AddPO(f, "f")
	p := sim.UniformN(4, 8, 1)
	vecs := sim.Simulate(g, p)

	cfg := DefaultConfig()
	cfg.MaxLACsPerNode = 1
	lacs1 := Generate(g, vecs, p.Valid, cfg, 1, nil, nil)
	perNode := map[aig.Node]int{}
	for _, l := range lacs1 {
		perNode[l.Node]++
	}
	for n, c := range perNode {
		if c > 1 {
			t.Errorf("node %d has %d LACs, limit 1", n, c)
		}
	}
	cfg.MaxLACsPerNode = 4
	lacs4 := Generate(g, vecs, p.Valid, cfg, 1, nil, nil)
	if len(lacs4) < len(lacs1) {
		t.Errorf("raising L reduced candidates: %d -> %d", len(lacs1), len(lacs4))
	}
}

func TestGenerateGainIsPositive(t *testing.T) {
	g := aig.New()
	xs := g.AddPIs(6, "x")
	f := g.Or(g.AndN(xs[:3]...), g.AndN(xs[3:]...))
	g.AddPO(f, "f")
	p := sim.UniformN(6, 16, 3)
	vecs := sim.Simulate(g, p)
	for _, l := range Generate(g, vecs, p.Valid, DefaultConfig(), 1, nil, nil) {
		if l.Gain <= 0 {
			t.Errorf("LAC %v has non-positive gain", &l)
		}
	}
}

func TestLACEvalVecMatchesApply(t *testing.T) {
	// The bit-parallel evaluation of a LAC's new function must match the
	// node's value in the structurally substituted circuit.
	g, _, _, _, _, _, _, u, z, _, v := figure1()
	lac := LAC{
		Node:     v.Node(),
		Divisors: []aig.Lit{u, z},
		Cover:    tt.Cover{tt.Cube{Neg: 0b11}},
	}
	p := sim.Exhaustive(4)
	vecs := sim.Simulate(g, p)
	out := make([]uint64, vecs.Words)
	lac.EvalVec(vecs, out)
	// Reference: ¬u ∧ ¬z from the simulated divisor vectors.
	ub := vecs.LitInto(u, make([]uint64, 1))
	zb := vecs.LitInto(z, make([]uint64, 1))
	want := ^ub[0] & ^zb[0]
	if out[0] != want {
		t.Fatalf("EvalVec = %x, want %x", out[0], want)
	}
}

func TestBuildLitConstantCover(t *testing.T) {
	g := aig.New()
	a := g.AddPI("a")
	lac := LAC{Node: a.Node(), Divisors: nil, Cover: tt.Cover{}}
	if got := lac.BuildLit(g); got != aig.LitFalse {
		t.Fatalf("empty cover lit = %v, want const 0", got)
	}
	lac.Cover = tt.Cover{{}}
	if got := lac.BuildLit(g); got != aig.LitTrue {
		t.Fatalf("tautology cover lit = %v, want const 1", got)
	}
}

func TestGenerateDefaultIsTwoDivisors(t *testing.T) {
	g := aig.New()
	xs := g.AddPIs(6, "x")
	f := g.Or(g.AndN(xs[:3]...), g.AndN(xs[3:]...))
	g.AddPO(f, "f")
	p := sim.UniformN(6, 32, 9)
	vecs := sim.Simulate(g, p)
	cfg := DefaultConfig()
	cfg.MaxLACsPerNode = 1 << 20
	for _, l := range Generate(g, vecs, p.Valid, cfg, 1, nil, nil) {
		if len(l.Divisors) > 2 {
			t.Fatalf("paper-default config produced %d divisors", len(l.Divisors))
		}
	}
}

// TestScanRefusesWideDivisorSets: a Config that asks for divisor sets wider
// than two panics, naming the field, rather than scan without them.
func TestScanRefusesWideDivisorSets(t *testing.T) {
	g := aig.New()
	xs := g.AddPIs(3, "x")
	g.AddPO(g.AndN(xs...), "f")
	p := sim.UniformN(3, 32, 1)
	vecs := sim.Simulate(g, p)
	defer vecs.Release()
	defer func() {
		if r := recover(); !strings.Contains(fmt.Sprint(r), "MaxDivisors 3") {
			t.Fatalf("Generate with MaxDivisors 3 recovered %v, want a panic naming MaxDivisors", r)
		}
	}()
	Generate(g, vecs, p.Valid, Config{MaxLACsPerNode: 1, MaxDivisors: 3}, 1, nil, nil)
}
