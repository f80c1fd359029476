package window

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/aig"
	"repro/internal/bench"
	"repro/internal/resub"
	"repro/internal/sim"
)

func liveAndNodes(g *aig.Graph) []aig.Node {
	var out []aig.Node
	for n := aig.Node(1); int(n) < g.NumNodes(); n++ {
		if g.IsAnd(n) {
			out = append(out, n)
		}
	}
	return out
}

// TestWindowedEqualsGlobal is the window-vs-global equivalence property:
// with an unbounded Config{} every window expands until its leaves are the
// circuit PIs, so the windowed generator must produce candidate sets and
// scores (divisors, covers, gains) bitwise identical to the global
// resub.Generate path — for workers 1, 2 and 4, across circuits and scan
// configurations. CI runs this under -race (scripts/verify.sh).
func TestWindowedEqualsGlobal(t *testing.T) {
	circuits := []struct {
		name  string
		build func() *aig.Graph
	}{
		{"rca16", func() *aig.Graph { return bench.RCA(16) }},
		{"cla16", func() *aig.Graph { return bench.CLA(16) }},
		{"mtp6", func() *aig.Graph { return bench.ArrayMult(6) }},
		{"ctrl", func() *aig.Graph { return bench.RandomControl("ctrl", 12, 6, 120, 5) }},
	}
	configs := []resub.Config{
		resub.DefaultConfig(),
		{MaxLACsPerNode: 2, MaxDivisors: 3, MaxReplaceTries: 12},
		{MaxLACsPerNode: 1, MaxDivisors: 2, DescendingLevels: true},
	}
	total := 0
	for _, c := range circuits {
		g := c.build()
		pats := sim.UniformN(g.NumPIs(), 64, 11)
		vecs := sim.Simulate(g, pats)
		for ci, rcfg := range configs {
			want := resub.Generate(g, vecs, pats.Valid, rcfg, 1, nil, nil)
			total += len(want)
			for _, workers := range []int{1, 2, 4} {
				got := Generate(g, vecs, pats.Valid, Config{}, rcfg, workers, nil, nil)
				if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
					t.Errorf("%s cfg %d workers %d: windowed full-PI scan diverged from global generation (%d vs %d candidates)",
						c.name, ci, workers, len(got), len(want))
				}
			}
		}
		vecs.Release()
	}
	if total == 0 {
		t.Fatal("no circuit produced candidates — equivalence untested")
	}
}

// TestExtractBounds checks the structural window invariants on bounded
// configurations: budgets respected, inner closed over the leaves (every
// path from the root to a PI crosses a leaf before leaving the window), and
// the inner set exactly the volume between cut and root.
func TestExtractBounds(t *testing.T) {
	g := bench.CLA(32)
	cfg := Config{MaxPIs: 6, MaxNodes: 16}
	ex := NewExtractor(g, cfg, g.Levels(), g.RefCounts())
	for _, root := range liveAndNodes(g) {
		win := ex.Extract(root)
		if win == nil {
			t.Fatalf("root %d: skipped without a skip limit", root)
		}
		if win.Root != root {
			t.Fatalf("root %d: window reports root %d", root, win.Root)
		}
		if len(win.Cut.Leaves) > max(cfg.MaxPIs, 2) {
			t.Fatalf("root %d: %d leaves exceeds MaxPIs %d", root, len(win.Cut.Leaves), cfg.MaxPIs)
		}
		if len(win.Inner) > cfg.MaxNodes {
			t.Fatalf("root %d: %d inner nodes exceeds MaxNodes %d", root, len(win.Inner), cfg.MaxNodes)
		}
		inLeaves := map[aig.Node]bool{}
		for _, l := range win.Cut.Leaves {
			inLeaves[l] = true
		}
		inInner := map[aig.Node]bool{}
		for _, n := range win.Inner {
			if inLeaves[n] {
				t.Fatalf("root %d: node %d is both leaf and inner", root, n)
			}
			inInner[n] = true
		}
		// The cut property: walking down from the root must stay on inner
		// nodes until a leaf is crossed.
		var walk func(aig.Node)
		walk = func(n aig.Node) {
			if inLeaves[n] {
				return
			}
			if !inInner[n] {
				t.Fatalf("root %d: node %d reachable from the root without crossing a leaf", root, n)
			}
			walk(g.Fanin0(n).Node())
			walk(g.Fanin1(n).Node())
		}
		walk(root)
		// And the volume property: every inner node is reachable that way.
		seen := map[aig.Node]bool{}
		var count func(aig.Node) int
		count = func(n aig.Node) int {
			if seen[n] || inLeaves[n] || !g.IsAnd(n) {
				return 0
			}
			seen[n] = true
			return 1 + count(g.Fanin0(n).Node()) + count(g.Fanin1(n).Node())
		}
		if vol := count(root); vol != len(win.Inner) {
			t.Fatalf("root %d: volume %d but %d inner nodes", root, vol, len(win.Inner))
		}
	}
}

// TestExtractSkipsAndCaps pins the fanout skip limits and the divisor cap.
func TestExtractSkipsAndCaps(t *testing.T) {
	g := bench.CLA(16)
	levels, fanout := g.Levels(), g.RefCounts()

	skipped, kept := 0, 0
	ex := NewExtractor(g, Config{SkipFanoutRoots: 2}, levels, fanout)
	for _, root := range liveAndNodes(g) {
		if win := ex.Extract(root); win == nil {
			if fanout[root] <= 2 {
				t.Fatalf("root %d: skipped with fanout %d ≤ 2", root, fanout[root])
			}
			skipped++
		} else {
			if fanout[root] > 2 {
				t.Fatalf("root %d: kept with fanout %d > 2", root, fanout[root])
			}
			kept++
		}
	}
	if skipped == 0 || kept == 0 {
		t.Fatalf("skip limit untested: %d skipped, %d kept", skipped, kept)
	}

	ex = NewExtractor(g, Config{MaxDivisors: 5, SkipFanoutDivisors: 3}, levels, fanout)
	for _, root := range liveAndNodes(g) {
		win := ex.Extract(root)
		pool := ex.Divisors(false)
		if len(pool) > 5 {
			t.Fatalf("root %d: pool size %d exceeds MaxDivisors 5", root, len(pool))
		}
		for _, u := range pool {
			if fanout[u] > 3 {
				t.Fatalf("root %d: divisor %d with fanout %d > 3", root, u, fanout[u])
			}
		}
		for i := 1; i < len(pool); i++ {
			a, b := pool[i-1], pool[i]
			if levels[a] > levels[b] || (levels[a] == levels[b] && a >= b) {
				t.Fatalf("root %d: pool not in (level, id) order at %d", root, i)
			}
		}
		_ = win
	}
}

// TestWindowedGenerateReuse drives random in-place replacement sequences
// through the windowed generator with bounded windows: after each commit,
// Generate with the stale closure and the previous candidate list must
// reproduce a from-scratch full scan exactly, while actually sparing unstale
// nodes.
func TestWindowedGenerateReuse(t *testing.T) {
	rcfg := resub.DefaultConfig()
	wcfg := Config{MaxPIs: 5, MaxNodes: 12, MaxDivisors: 20}
	for _, workers := range []int{1, 2, 4} {
		for seed := int64(0); seed < 4; seed++ {
			rng := rand.New(rand.NewSource(seed*23 + int64(workers)))
			g := genTestGraph(rng, 8, 60)
			pats := sim.Uniform(g.NumPIs(), 2, seed+300)
			arena := sim.NewArena(g, pats, workers)
			cache := Generate(g, arena.Vectors(), pats.Valid, wcfg, rcfg, workers, nil, nil)
			reused := false
			for step := 0; step < 12; step++ {
				ands := liveAndNodes(g)
				if len(ands) == 0 {
					break
				}
				v := ands[rng.Intn(len(ands))]
				epochs := g.EpochsInto(nil)
				var touched []aig.Node
				g.ReplaceNode(v, replacementLit(rng, g, v), &touched)
				arena.Update()

				stale := g.StaleClosure(epochs, touched)
				got := Generate(g, arena.Vectors(), pats.Valid, wcfg, rcfg, workers, stale, cache)
				want := Generate(g, arena.Vectors(), pats.Valid, wcfg, rcfg, workers, nil, nil)
				if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
					t.Fatalf("workers %d seed %d step %d: windowed reuse diverged from full generation",
						workers, seed, step)
				}
				for _, n := range ands {
					if g.IsAnd(n) && int(n) < len(stale) && !stale[n] {
						reused = true
					}
				}
				cache = got
			}
			if !reused {
				t.Fatalf("workers %d seed %d: stale mask never spared a node — reuse untested", workers, seed)
			}
			arena.Release()
		}
	}
}

// TestGenerateReuseDegradesToFull pins the nil-mask and nil-cache paths.
func TestGenerateReuseDegradesToFull(t *testing.T) {
	g := bench.RCA(8)
	pats := sim.Uniform(g.NumPIs(), 2, 9)
	vecs := sim.Simulate(g, pats)
	defer vecs.Release()
	wcfg, rcfg := DefaultConfig(), resub.DefaultConfig()
	want := Generate(g, vecs, pats.Valid, wcfg, rcfg, 1, nil, nil)
	if got := Generate(g, vecs, pats.Valid, wcfg, rcfg, 1, nil, want); !reflect.DeepEqual(got, want) {
		t.Fatal("nil stale mask did not degrade to a full scan")
	}
	stale := make([]bool, g.NumNodes())
	if got := Generate(g, vecs, pats.Valid, wcfg, rcfg, 1, stale, nil); !reflect.DeepEqual(got, want) {
		t.Fatal("nil cache did not degrade to a full scan")
	}
}

func genTestGraph(rng *rand.Rand, nPIs, size int) *aig.Graph {
	g := aig.New()
	lits := g.AddPIs(nPIs, "x")
	for len(lits) < nPIs+size {
		a := lits[rng.Intn(len(lits))].NotCond(rng.Intn(2) == 0)
		b := lits[rng.Intn(len(lits))].NotCond(rng.Intn(2) == 0)
		if rng.Intn(2) == 0 {
			lits = append(lits, g.And(a, b))
		} else {
			lits = append(lits, g.Xor(a, b))
		}
	}
	for i := 0; i < 4; i++ {
		g.AddPO(lits[len(lits)-1-i].NotCond(i%2 == 0), "")
	}
	return g.Sweep()
}

func replacementLit(rng *rand.Rand, g *aig.Graph, v aig.Node) aig.Lit {
	if rng.Intn(8) == 0 {
		return aig.LitFalse
	}
	pick := func() aig.Lit {
		n := aig.Node(rng.Intn(int(v)))
		for g.Kind(n) == aig.KindDead {
			n--
		}
		return aig.MakeLit(n, rng.Intn(2) == 0)
	}
	return g.And(pick(), pick())
}
