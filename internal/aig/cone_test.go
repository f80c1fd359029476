package aig

import (
	"slices"
	"testing"
)

// buildDiamond returns a graph with a reconvergent diamond:
//
//	f = (a&b) & (a&c)   with shared input a.
func buildDiamond(t *testing.T) (*Graph, Lit, Lit, Lit, Lit, Lit, Lit) {
	t.Helper()
	g := New()
	a := g.AddPI("a")
	b := g.AddPI("b")
	c := g.AddPI("c")
	ab := g.And(a, b)
	ac := g.And(a, c)
	f := g.And(ab, ac)
	g.AddPO(f, "f")
	return g, a, b, c, ab, ac, f
}

// TestTFICone lists cones of the diamond with one marker: descending ids,
// seeds included, unrelated nodes and the constant excluded.
func TestTFICone(t *testing.T) {
	g, a, b, c, ab, ac, f := buildDiamond(t)
	var m ConeMarker
	for _, tc := range []struct {
		seeds []Node
		want  []Node
	}{
		{[]Node{f.Node()}, []Node{f.Node(), ac.Node(), ab.Node(), c.Node(), b.Node(), a.Node()}},
		{[]Node{ab.Node()}, []Node{ab.Node(), b.Node(), a.Node()}},
		{[]Node{c.Node(), 0, ab.Node()}, []Node{ab.Node(), c.Node(), b.Node(), a.Node()}},
		{[]Node{0}, nil},
	} {
		cone := m.Mark(g, nil, tc.seeds...)
		if !slices.Equal(cone, tc.want) {
			t.Fatalf("seeds %v: cone %v, want %v", tc.seeds, cone, tc.want)
		}
		for u := Node(0); int(u) < g.NumNodes(); u++ {
			if m.InCone(u) != slices.Contains(tc.want, u) {
				t.Fatalf("seeds %v: InCone(%d) = %v", tc.seeds, u, m.InCone(u))
			}
		}
	}
}

// TestConeMarkerEpochOverflow forces the epoch wrap path.
func TestConeMarkerEpochOverflow(t *testing.T) {
	g, a, _, _, _, _, f := buildDiamond(t)
	var m ConeMarker
	m.Mark(g, nil, f.Node())
	m.epoch = 1<<31 - 1 // the next Mark must clear and restart
	if cone := m.Mark(g, nil, a.Node()); !slices.Equal(cone, []Node{a.Node()}) ||
		!m.InCone(a.Node()) || m.InCone(f.Node()) {
		t.Fatalf("epoch wrap corrupted the cone: %v", cone)
	}
}

func TestMFFCSize(t *testing.T) {
	g, _, _, _, ab, ac, f := buildDiamond(t)
	refs := g.RefCounts()
	// f's MFFC contains all three ANDs: ab and ac are only used by f.
	if got := g.MFFCSize(f.Node(), refs, nil); got != 3 {
		t.Fatalf("MFFC(f) = %d, want 3", got)
	}
	// refs must be restored.
	refs2 := g.RefCounts()
	for i := range refs {
		if refs[i] != refs2[i] {
			t.Fatalf("MFFCSize corrupted refs at node %d", i)
		}
	}
	// Now give ab a second fanout: its MFFC no longer belongs to f.
	g.AddPO(MakeLit(ab.Node(), false), "g")
	refs = g.RefCounts()
	if got := g.MFFCSize(f.Node(), refs, nil); got != 2 { // f and ac only
		t.Fatalf("MFFC(f) with shared ab = %d, want 2", got)
	}
	if got := g.MFFCSize(ac.Node(), refs, nil); got != 1 {
		t.Fatalf("MFFC(ac) = %d, want 1", got)
	}
}

func TestCopyWithSweepsDangling(t *testing.T) {
	g := New()
	a := g.AddPI("a")
	b := g.AddPI("b")
	f := g.And(a, b)
	g.And(a, b.Not()) // dangling
	g.AddPO(f, "f")
	ng := g.Sweep()
	if ng.NumAnds() != 1 {
		t.Fatalf("sweep kept dangling node: %d ANDs", ng.NumAnds())
	}
	if ng.NumPIs() != 2 || ng.PIName(1) != "b" {
		t.Fatalf("sweep lost PIs or names")
	}
	if err := ng.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestCopyWithSubstitution(t *testing.T) {
	// f = (a&b) & c; substitute node (a&b) by literal a: f becomes a&c.
	g := New()
	a := g.AddPI("a")
	b := g.AddPI("b")
	c := g.AddPI("c")
	ab := g.And(a, b)
	f := g.And(ab, c)
	g.AddPO(f, "f")
	ng := g.CopyWith(map[Node]Lit{ab.Node(): a})
	if ng.NumAnds() != 1 {
		t.Fatalf("substituted graph has %d ANDs, want 1", ng.NumAnds())
	}
	// Verify function: f' = a & c.
	po := ng.PO(0)
	n := po.Node()
	if ng.Kind(n) != KindAnd {
		t.Fatalf("PO is not an AND")
	}
	// Both fanins must be plain PI literals a and c.
	f0, f1 := ng.Fanin0(n), ng.Fanin1(n)
	pins := map[Node]bool{f0.Node(): true, f1.Node(): true}
	if !pins[ng.PI(0)] || !pins[ng.PI(2)] || f0.IsCompl() || f1.IsCompl() || po.IsCompl() {
		t.Fatalf("substitution produced wrong structure")
	}
	_ = b
}

func TestCopyWithSubstituteByConstant(t *testing.T) {
	g := New()
	a := g.AddPI("a")
	b := g.AddPI("b")
	ab := g.And(a, b)
	g.AddPO(ab, "f")
	ng := g.CopyWith(map[Node]Lit{ab.Node(): LitTrue})
	if ng.NumAnds() != 0 {
		t.Fatalf("constant substitution left %d ANDs", ng.NumAnds())
	}
	if ng.PO(0) != LitTrue {
		t.Fatalf("PO = %v, want const 1", ng.PO(0))
	}
}

func TestCopyWithComplementedPO(t *testing.T) {
	g := New()
	a := g.AddPI("a")
	b := g.AddPI("b")
	g.AddPO(g.And(a, b).Not(), "nand")
	ng := g.Sweep()
	if !ng.PO(0).IsCompl() {
		t.Fatalf("PO complement lost in copy")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := New()
	a := g.AddPI("a")
	b := g.AddPI("b")
	g.AddPO(g.And(a, b), "f")
	c := g.Clone()
	c.AddPI("c")
	c.And(a, b.Not())
	if g.NumPIs() != 2 || g.NumAnds() != 1 {
		t.Fatalf("mutating clone affected original")
	}
	if c.NumPIs() != 3 || c.NumAnds() != 2 {
		t.Fatalf("clone did not accept mutations")
	}
}

func TestCopyWithSelfComplement(t *testing.T) {
	// Substituting a node by its own complement must terminate and flip
	// the node's function in place.
	g := New()
	a := g.AddPI("a")
	b := g.AddPI("b")
	ab := g.And(a, b)
	g.AddPO(ab, "f")
	ng := g.CopyWith(map[Node]Lit{ab.Node(): ab.Not()})
	if !ng.PO(0).IsCompl() {
		t.Fatalf("PO should be the complemented AND")
	}
	if ng.NumAnds() != 1 {
		t.Fatalf("ANDs = %d, want 1", ng.NumAnds())
	}
}

// TestCopyWithIdentityProperty: substituting every AND node by itself must
// reproduce a functionally identical graph (checked structurally thanks to
// canonical strashing of the copy).
func TestCopyWithIdentityProperty(t *testing.T) {
	g := New()
	xs := g.AddPIs(4, "x")
	f1 := g.Or(g.And(xs[0], xs[1]), g.Xor(xs[2], xs[3]))
	f2 := g.Mux(xs[0], f1, xs[2])
	g.AddPO(f1, "f1")
	g.AddPO(f2.Not(), "f2")

	sub := map[Node]Lit{}
	for n := Node(1); int(n) < g.NumNodes(); n++ {
		if g.IsAnd(n) {
			sub[n] = MakeLit(n, false)
		}
	}
	ng := g.CopyWith(sub)
	plain := g.Sweep()
	if ng.NumAnds() != plain.NumAnds() || ng.NumPOs() != plain.NumPOs() {
		t.Fatalf("identity substitution changed the graph: %d vs %d ANDs",
			ng.NumAnds(), plain.NumAnds())
	}
	for i := 0; i < ng.NumPOs(); i++ {
		if ng.PO(i) != plain.PO(i) {
			t.Fatalf("PO %d differs after identity substitution", i)
		}
	}
}
