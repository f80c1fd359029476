package aig_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/aig"
	"repro/internal/sim"
	"repro/internal/tt"
)

// mffcOracle counts n plus every AND node of n's cone above leaves that a
// backward walk from the POs and from the leaves, which never enters n,
// does not reach: the nodes that die with n when nothing below a leaf may
// die. g must be swept, so every node reaches a PO.
func mffcOracle(g *aig.Graph, n aig.Node, leaves []aig.Node) int {
	alive := make([]bool, g.NumNodes())
	var stack []aig.Node
	push := func(m aig.Node) {
		if m != n && !alive[m] {
			alive[m] = true
			stack = append(stack, m)
		}
	}
	for i := 0; i < g.NumPOs(); i++ {
		push(g.PO(i).Node())
	}
	for _, l := range leaves {
		push(l)
	}
	for len(stack) > 0 {
		m := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if g.IsAnd(m) {
			push(g.Fanin0(m).Node())
			push(g.Fanin1(m).Node())
		}
	}

	count := 1
	seen := map[aig.Node]bool{n: true}
	stack = append(stack[:0], n)
	for len(stack) > 0 {
		m := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, f := range [2]aig.Node{g.Fanin0(m).Node(), g.Fanin1(m).Node()} {
			if seen[f] || !g.IsAnd(f) || slices.Contains(leaves, f) {
				continue
			}
			seen[f] = true
			if !alive[f] {
				count++
			}
			stack = append(stack, f)
		}
	}
	return count
}

// tfiOracle returns the transitive-fanin cone of seeds, found by a
// depth-first walk over fanins, in descending id order and without the
// constant node.
func tfiOracle(g *aig.Graph, seeds []aig.Node) []aig.Node {
	seen := make([]bool, g.NumNodes())
	stack := slices.Clone(seeds)
	for len(stack) > 0 {
		m := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !seen[m] {
			seen[m] = true
			if g.IsAnd(m) {
				stack = append(stack, g.Fanin0(m).Node(), g.Fanin1(m).Node())
			}
		}
	}
	var cone []aig.Node
	for m := aig.Node(g.NumNodes() - 1); m >= 1; m-- {
		if seen[m] {
			cone = append(cone, m)
		}
	}
	return cone
}

// FuzzMFFC checks MFFCSize against mffcOracle on a random swept AIG, for
// every AND root, with no stop set and with a random one, and requires the
// reference counts back unchanged. On the same graph it checks one
// ConeMarker, marking every AND root and then a random set of 1–3 seeds,
// against tfiOracle: the listed order and InCone for every node.
func FuzzMFFC(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(128))
	f.Add(int64(2), uint8(60), uint8(40))
	f.Add(int64(3), uint8(5), uint8(250))
	f.Add(int64(4), uint8(90), uint8(200))
	f.Fuzz(func(t *testing.T, seed int64, size, density uint8) {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 2+rng.Intn(6), 4+int(size)%100)
		refs := g.RefCounts()
		want := slices.Clone(refs)
		for _, n := range liveAnds(g) {
			var leaves []aig.Node
			for m := aig.Node(0); int(m) < g.NumNodes(); m++ {
				if m != n && rng.Intn(256) < int(density) {
					leaves = append(leaves, m)
				}
			}
			for _, l := range [][]aig.Node{nil, leaves} {
				if got, exp := g.MFFCSize(n, refs, l), mffcOracle(g, n, l); got != exp {
					t.Fatalf("node %d, leaves %v: MFFCSize %d, oracle %d", n, l, got, exp)
				}
				if !slices.Equal(refs, want) {
					t.Fatalf("node %d, leaves %v: MFFCSize left the reference counts changed", n, l)
				}
			}
		}

		var marker aig.ConeMarker
		var cone []aig.Node
		for _, n := range liveAnds(g) {
			cone = checkCone(t, g, &marker, cone, []aig.Node{n})
		}
		checkCone(t, g, &marker, cone, randomSeeds(rng, g))
	})
}

// randomSeeds returns 1–3 nodes of g drawn at random, the constant included.
func randomSeeds(rng *rand.Rand, g *aig.Graph) []aig.Node {
	seeds := make([]aig.Node, 1+rng.Intn(3))
	for i := range seeds {
		seeds[i] = aig.Node(rng.Intn(g.NumNodes()))
	}
	return seeds
}

// checkCone marks the cone of seeds on m, reusing dst, and requires the
// listed order and InCone for every node to match tfiOracle. It returns the
// listed cone, so the caller can hand its storage to the next mark.
func checkCone(t *testing.T, g *aig.Graph, m *aig.ConeMarker, dst, seeds []aig.Node) []aig.Node {
	t.Helper()
	exp := tfiOracle(g, seeds)
	cone := m.Mark(g, dst[:0], seeds...)
	if !slices.Equal(cone, exp) {
		t.Fatalf("seeds %v: Mark listed %v, oracle %v", seeds, cone, exp)
	}
	for u := aig.Node(0); int(u) < g.NumNodes(); u++ {
		if m.InCone(u) != slices.Contains(exp, u) {
			t.Fatalf("seeds %v: InCone(%d) = %v", seeds, u, m.InCone(u))
		}
	}
	return cone
}

// TestConeMarkerMatchesTFICone checks one ConeMarker against tfiOracle
// across repeated marks of random seeds in random order, on graphs of
// shrinking size: stale stamps from bigger earlier cones, or from a bigger
// earlier graph, must never leak into later ones.
func TestConeMarkerMatchesTFICone(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	var marker aig.ConeMarker
	var cone []aig.Node
	for _, size := range []int{80, 30, 8} {
		g := randomGraph(rng, 5, size)
		for trial := 0; trial < 200; trial++ {
			cone = checkCone(t, g, &marker, cone, randomSeeds(rng, g))
		}
	}
}

// TestSOP builds random covers over 1–4 fresh PIs, some complemented, and
// requires the literal's function to be the cover's table and the graph to
// grow by at most SOPCost, and by exactly SOPCost for covers of disjoint
// non-empty cubes, which share no node.
func TestSOP(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(4)
		disjoint := trial%2 == 1
		var cov tt.Cover
		if disjoint {
			cubes := make([]tt.Cube, n)
			for v := 0; v < n; v++ {
				c := &cubes[rng.Intn(n)]
				switch rng.Intn(3) {
				case 1:
					*c = c.WithPos(v)
				case 2:
					*c = c.WithNeg(v)
				}
			}
			for _, c := range cubes {
				if c.NumLits() > 0 {
					cov = append(cov, c)
				}
			}
		} else {
			for c := rng.Intn(6); c > 0; c-- {
				var cube tt.Cube
				for v := 0; v < n; v++ {
					switch rng.Intn(3) {
					case 1:
						cube = cube.WithPos(v)
					case 2:
						cube = cube.WithNeg(v)
					}
				}
				cov = append(cov, cube)
			}
		}

		g := aig.New()
		ins := g.AddPIs(n, "x")
		flip := 0 // minterm bits of the complemented inputs
		for v := range ins {
			if rng.Intn(2) == 0 {
				ins[v] = ins[v].Not()
				flip |= 1 << v
			}
		}
		lit := g.SOP(cov, ins)
		added := g.NumAnds()
		if cost := aig.SOPCost(cov); added > cost || disjoint && added != cost {
			t.Fatalf("cover %v: SOP added %d ANDs, SOPCost %d", cov, added, cost)
		}

		vecs := sim.Simulate(g, sim.Exhaustive(n))
		got := vecs.LitInto(lit, make([]uint64, vecs.Words))[0]
		want := cov.Table(n)
		for m := 0; m < 1<<n; m++ {
			if got>>m&1 == 1 != want.Get(m^flip) {
				t.Fatalf("cover %v, inputs %v: SOP is wrong on minterm %d", cov, ins, m)
			}
		}
		vecs.Release()
	}
}
