package opt

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/aig"
	"repro/internal/bench"
	"repro/internal/cell"
	"repro/internal/mapper"
	"repro/internal/sim"
)

// randomCircuit builds a seeded random multi-level circuit with nPIs inputs
// and nGates random AND/OR/XOR gates over random earlier signals.
func randomCircuit(nPIs, nGates int, seed int64) *aig.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := aig.New()
	lits := g.AddPIs(nPIs, "x")
	for i := 0; i < nGates; i++ {
		a := lits[rng.Intn(len(lits))].NotCond(rng.Intn(2) == 0)
		b := lits[rng.Intn(len(lits))].NotCond(rng.Intn(2) == 0)
		var l aig.Lit
		switch rng.Intn(3) {
		case 0:
			l = g.And(a, b)
		case 1:
			l = g.Or(a, b)
		default:
			l = g.Xor(a, b)
		}
		lits = append(lits, l)
	}
	for i := 0; i < 4; i++ {
		g.AddPO(lits[len(lits)-1-i], "f")
	}
	return g
}

// equivalent checks functional equivalence of two graphs with the same PI
// interface by exhaustive simulation (nPIs ≤ 12).
func equivalent(t *testing.T, a, b *aig.Graph) bool {
	t.Helper()
	if a.NumPIs() != b.NumPIs() || a.NumPOs() != b.NumPOs() {
		t.Fatalf("interface mismatch")
	}
	p := sim.Exhaustive(a.NumPIs())
	va := sim.Simulate(a, p)
	vb := sim.Simulate(b, p)
	pa := sim.POWords(a, va)
	pb := sim.POWords(b, vb)
	for i := range pa {
		for w := range pa[i] {
			if pa[i][w] != pb[i][w] {
				return false
			}
		}
	}
	return true
}

func TestBalancePreservesFunction(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := randomCircuit(6, 40, seed)
		b := Balance(g)
		if !equivalent(t, g, b) {
			t.Fatalf("seed %d: Balance changed the function", seed)
		}
		if err := b.Check(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestBalanceReducesChainDepth(t *testing.T) {
	g := aig.New()
	xs := g.AddPIs(8, "x")
	// Deliberately build a linear AND chain of depth 7.
	acc := xs[0]
	for _, x := range xs[1:] {
		acc = g.And(acc, x)
	}
	g.AddPO(acc, "f")
	if g.Depth() != 7 {
		t.Fatalf("chain depth = %d", g.Depth())
	}
	b := Balance(g)
	if b.Depth() != 3 {
		t.Fatalf("balanced depth = %d, want 3", b.Depth())
	}
	if !equivalent(t, g, b) {
		t.Fatalf("Balance changed the function")
	}
}

func TestRewritePreservesFunction(t *testing.T) {
	for seed := int64(10); seed < 15; seed++ {
		g := randomCircuit(7, 60, seed)
		r := Rewrite(g)
		if !equivalent(t, g, r) {
			t.Fatalf("seed %d: Rewrite changed the function", seed)
		}
		if err := r.Check(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRewriteShrinksRedundantLogic(t *testing.T) {
	// Build mux-of-identical-branches: f = s? (a&b) : (a&b) plus other
	// redundancies the rewriter should collapse.
	g := aig.New()
	a := g.AddPI("a")
	b := g.AddPI("b")
	s := g.AddPI("s")
	ab1 := g.And(a, b)
	// A second, structurally different computation of a&b:
	// (a|b) & a & b would strash partially; build (a & (b & (a | b))).
	ab2 := g.And(a, g.And(b, g.Or(a, b)))
	f := g.Mux(s, ab1, ab2)
	g.AddPO(f, "f")
	before := g.NumAnds()
	r := Rewrite(g)
	if r.NumAnds() >= before {
		t.Fatalf("Rewrite did not shrink: %d -> %d", before, r.NumAnds())
	}
	if !equivalent(t, g, r) {
		t.Fatalf("Rewrite changed the function")
	}
}

func TestOptimizePreservesFunctionAndShrinks(t *testing.T) {
	for seed := int64(20); seed < 24; seed++ {
		g := randomCircuit(8, 80, seed)
		o := Optimize(g)
		if !equivalent(t, g, o) {
			t.Fatalf("seed %d: Optimize changed the function", seed)
		}
		if o.NumAnds() > g.NumAnds() {
			t.Fatalf("seed %d: Optimize grew the circuit %d -> %d", seed, g.NumAnds(), o.NumAnds())
		}
	}
}

func TestOptimizeIdempotentEnough(t *testing.T) {
	g := randomCircuit(6, 50, 99)
	o1 := Optimize(g)
	o2 := Optimize(o1)
	if o2.NumAnds() > o1.NumAnds() {
		t.Fatalf("second Optimize grew the circuit: %d -> %d", o1.NumAnds(), o2.NumAnds())
	}
	if !equivalent(t, o1, o2) {
		t.Fatalf("Optimize changed the function on second run")
	}
}

// TestRewriteKeepsOptimalXor checks that Rewrite does not "improve" an
// optimal XOR, 3 ANDs, into something bigger.
func TestRewriteKeepsOptimalXor(t *testing.T) {
	g := aig.New()
	xs := g.AddPIs(4, "x")
	g.AddPO(g.Xor(xs[0], xs[1]), "f")
	r := Rewrite(g)
	if r.NumAnds() > g.NumAnds() {
		t.Fatalf("Rewrite grew an optimal XOR: %d -> %d", g.NumAnds(), r.NumAnds())
	}
}

func TestResubPassPreservesFunction(t *testing.T) {
	for seed := int64(30); seed < 36; seed++ {
		g := randomCircuit(7, 70, seed)
		r := ResubPass(g, 6)
		if !equivalent(t, g, r) {
			t.Fatalf("seed %d: ResubPass changed the function", seed)
		}
		if err := r.Check(); err != nil {
			t.Fatal(err)
		}
		if r.NumAnds() > g.NumAnds() {
			t.Fatalf("seed %d: ResubPass grew the circuit", seed)
		}
	}
}

func TestResubPassFindsWireSubstitution(t *testing.T) {
	// f = (a&b) | (a&b&c): the redundant conjunct makes the OR node
	// exactly resubstitutable by the wire (a&b).
	g := aig.New()
	a := g.AddPI("a")
	b := g.AddPI("b")
	c := g.AddPI("c")
	ab := g.And(a, b)
	abc := g.And(ab, c)
	f := g.Or(ab, abc)
	g.AddPO(f, "f")
	r := ResubPass(g, 4)
	if r.NumAnds() >= g.NumAnds() {
		t.Fatalf("ResubPass missed the absorption: %d -> %d ANDs", g.NumAnds(), r.NumAnds())
	}
	if !equivalent(t, g, r) {
		t.Fatalf("ResubPass changed the function")
	}
}

func TestResubPassOnOptimizedAdderIsSafe(t *testing.T) {
	// Run after Optimize on a structured circuit: must stay equivalent.
	g := aig.New()
	xs := g.AddPIs(8, "x")
	carry := aig.LitFalse
	for i := 0; i < 4; i++ {
		axb := g.Xor(xs[i], xs[4+i])
		g.AddPO(g.Xor(axb, carry), "s")
		carry = g.Or(g.And(xs[i], xs[4+i]), g.And(axb, carry))
	}
	g.AddPO(carry, "cout")
	o := Optimize(g)
	r := ResubPass(o, 6)
	if !equivalent(t, o, r) {
		t.Fatalf("ResubPass broke the adder")
	}
}

// TestResubPassGolden pins ResubPass's exact output, AND count and
// fingerprint, at K = 3, 4 and 6. The circuits are raw: an optimized circuit
// is usually a fixpoint of the pass, so it would pin nothing. The random
// graphs are swept first, so their gains are resubstitutions, not dangling
// logic.
func TestResubPassGolden(t *testing.T) {
	type pin struct {
		ands        int
		fingerprint uint64
	}
	for _, tc := range []struct {
		name string
		g    *aig.Graph
		pins [3]pin // K = 3, 4, 6
	}{
		{"c880", bench.Get("c880"), [3]pin{{247, 0x807d3695bc2ff901}, {257, 0x2dc180df02b29cbe}, {257, 0x2dc180df02b29cbe}}},
		{"c1908", bench.Get("c1908"), [3]pin{{297, 0x09a064f8774c8a1e}, {295, 0x69b8a5c420c30243}, {295, 0x69b8a5c420c30243}}},
		{"sqrt", bench.Get("sqrt"), [3]pin{{525, 0xc4a227d7b71330a3}, {525, 0xc4a227d7b71330a3}, {525, 0xc4a227d7b71330a3}}},
		{"voter", bench.Get("voter"), [3]pin{{580, 0x13247ef0413dcded}, {580, 0x3ec8ce49f78d2950}, {580, 0x3ec8ce49f78d2950}}},
		{"int2float", bench.Get("int2float"), [3]pin{{81, 0xca68e97da5ade36a}, {81, 0xca68e97da5ade36a}, {81, 0xca68e97da5ade36a}}},
		{"random 0", randomCircuit(10, 400, 0).Sweep(), [3]pin{{130, 0xcca84c6fe5e579cd}, {130, 0xcca84c6fe5e579cd}, {130, 0xcca84c6fe5e579cd}}},
		{"random 1", randomCircuit(10, 400, 1).Sweep(), [3]pin{{94, 0xa4eb33489cc89717}, {95, 0x027bdc1aa1ed6003}, {95, 0x027bdc1aa1ed6003}}},
		{"random 2", randomCircuit(10, 400, 2).Sweep(), [3]pin{{99, 0x81db888c0680d858}, {69, 0x8d58b99506284db4}, {69, 0x8d58b99506284db4}}},
		{"random 3", randomCircuit(10, 400, 3).Sweep(), [3]pin{{57, 0xe1a7d6f8ab8692ad}, {57, 0xe1a7d6f8ab8692ad}, {57, 0xe1a7d6f8ab8692ad}}},
		{"random 4", randomCircuit(10, 400, 4).Sweep(), [3]pin{{86, 0xa98829a31e15f62f}, {125, 0xa7145a561c565fc9}, {125, 0xa7145a561c565fc9}}},
		{"random 5", randomCircuit(10, 400, 5).Sweep(), [3]pin{{37, 0x962abcc121777efd}, {37, 0x962abcc121777efd}, {37, 0x962abcc121777efd}}},
	} {
		for i, k := range []int{3, 4, 6} {
			r := ResubPass(tc.g, k)
			if got := (pin{r.NumAnds(), aig.Fingerprint(r)}); got != tc.pins[i] {
				t.Errorf("%s, K = %d: ResubPass gives %d ANDs, fingerprint %016x; want %d, %016x",
					tc.name, k, got.ands, got.fingerprint, tc.pins[i].ands, tc.pins[i].fingerprint)
			}
		}
	}
}

// TestOptimizeGolden pins the optimizer's exact output, and the standard-cell
// mapping of three of the results, so a kernel change that shifts QoR fails
// here even when it keeps the function and does not grow the circuit.
func TestOptimizeGolden(t *testing.T) {
	lib := cell.MCNC()
	for _, tc := range []struct {
		name        string
		g           *aig.Graph
		fingerprint uint64
		area, delay float64 // MapCells of the result; 0 when not pinned
	}{
		{"RCA(32)", bench.RCA(32), 0x9a6e65c9d3323836, 530.0, 78.50},
		{"CLA(16)", bench.CLA(16), 0x27bdb566abc4ab27, 0, 0},
		{"KSA(16)", bench.KSA(16), 0x03911235d5e7cda2, 0, 0},
		{"ArrayMult(6)", bench.ArrayMult(6), 0x63a84bef0be9c6f5, 0, 0},
		{"WallaceMult(8)", bench.WallaceMult(8), 0x5bdf02bbf1971aa0, 963.0, 40.40},
		{"ALU()", bench.ALU(), 0xea11842e432e3af0, 0, 0},
		{"MACTree(4, 8, 1)", bench.MACTree(4, 8, 1), 0x34285ff1fda15a1a, 4569.0, 52.30},
	} {
		o := Optimize(tc.g)
		if got := aig.Fingerprint(o); got != tc.fingerprint {
			t.Errorf("%s: Optimize fingerprint %016x, want %016x", tc.name, got, tc.fingerprint)
		}
		if tc.area == 0 {
			continue
		}
		r := mapper.MapCells(o, lib)
		if math.Abs(r.Area-tc.area) > 1e-6 || math.Abs(r.Delay-tc.delay) > 1e-6 {
			t.Errorf("%s: MapCells area/delay %.2f/%.2f, want %.2f/%.2f", tc.name, r.Area, r.Delay, tc.area, tc.delay)
		}
	}
}

// fullScript is Optimize without the fixpoint skips.
func fullScript(g *aig.Graph) *aig.Graph {
	g = Balance(g.Sweep())
	g = Rewrite(Rewrite(g))
	g = Rewrite(Balance(g))
	return g.Sweep()
}

func TestOptimizeMatchesFullScript(t *testing.T) {
	graphs := []*aig.Graph{bench.RCA(16), bench.CLA(8), bench.KSA(8), bench.ArrayMult(5), bench.ALU()}
	for seed := int64(0); seed < 40; seed++ {
		graphs = append(graphs, randomCircuit(7, 50+int(seed), seed))
	}
	for i, g := range graphs {
		o := Optimize(g)
		if want := fullScript(g); !identical(o, want) {
			t.Fatalf("graph %d: Optimize %016x differs from the full script %016x", i, aig.Fingerprint(o), aig.Fingerprint(want))
		}
		// An optimized graph is usually a fixpoint, so this run takes the
		// skips.
		if o2, want := Optimize(o), fullScript(o); !identical(o2, want) {
			t.Fatalf("graph %d: re-Optimize %016x differs from the full script %016x", i, aig.Fingerprint(o2), aig.Fingerprint(want))
		}
	}
}

func TestIdentical(t *testing.T) {
	g := randomCircuit(6, 40, 3)
	if !identical(g, g.Clone()) {
		t.Fatalf("a clone must be identical")
	}
	h := g.Clone()
	h.AddPO(h.PO(0), "extra")
	if identical(g, h) {
		t.Fatalf("an extra PO must break identity")
	}
	h = g.Clone()
	h.SetPO(0, h.PO(0).Not())
	if identical(g, h) {
		t.Fatalf("a flipped PO must break identity")
	}
	h = g.Clone()
	h.And(h.PO(0), h.PO(1))
	if identical(g, h) {
		t.Fatalf("an extra AND must break identity")
	}
}

// TestPassesLeaveInputUntouched checks that Rewrite and ResubPass build
// their candidate structures off the caller's graph.
func TestPassesLeaveInputUntouched(t *testing.T) {
	graphs := map[string]*aig.Graph{"WallaceMult(8)": bench.WallaceMult(8)}
	for seed := int64(0); seed < 40; seed++ {
		graphs[fmt.Sprintf("randomCircuit(7, 70, %d)", seed)] = randomCircuit(7, 70, seed)
	}
	passes := map[string]func(*aig.Graph) *aig.Graph{
		"Rewrite":   Rewrite,
		"ResubPass": func(g *aig.Graph) *aig.Graph { return ResubPass(g, 6) },
	}
	for name, g := range graphs {
		for pass, run := range passes {
			fp, nodes := aig.Fingerprint(g), g.NumNodes()
			run(g)
			if aig.Fingerprint(g) != fp || g.NumNodes() != nodes {
				t.Errorf("%s(%s) modified its input: %d -> %d nodes", pass, name, nodes, g.NumNodes())
			}
		}
	}
}

// TestOptimizeConcurrent runs Optimize on 4 goroutines over distinct
// circuits, starting from an empty cover memo, and requires each result to
// equal the sequential one. The memo is global: every flush of every
// session reads and fills it, on many goroutines in the daemon and the
// cluster workers. Run under -race, this checks its locking.
func TestOptimizeConcurrent(t *testing.T) {
	gs := []*aig.Graph{bench.WallaceMult(6), bench.CLA(16), bench.KSA(16), randomCircuit(10, 300, 5)}
	want := make([]*aig.Graph, len(gs))
	for i, g := range gs {
		want[i] = Optimize(g)
	}
	coverMemo.Lock()
	clear(coverMemo.m)
	coverMemo.Unlock()

	got := make([]*aig.Graph, len(gs))
	var wg sync.WaitGroup
	for i, g := range gs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = Optimize(g)
		}()
	}
	wg.Wait()
	for i := range gs {
		if !identical(got[i], want[i]) {
			t.Errorf("circuit %d: concurrent Optimize %016x, sequential %016x",
				i, aig.Fingerprint(got[i]), aig.Fingerprint(want[i]))
		}
	}
}
