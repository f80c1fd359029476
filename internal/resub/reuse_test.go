package resub

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/aig"
	"repro/internal/sim"
)

// TestGenerateReuseMatchesFull drives random in-place replacement sequences
// and checks after each commit that Generate with the stale-closure mask
// and the previous candidate list reproduces a from-scratch full scan
// exactly — covers, divisors, gains, order — while actually reusing cached
// entries.
func TestGenerateReuseMatchesFull(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxLACsPerNode = 2
	for _, workers := range []int{1, 2, 4} {
		for seed := int64(0); seed < 4; seed++ {
			rng := rand.New(rand.NewSource(seed*17 + int64(workers)))
			g := genTestGraph(rng, 8, 60)
			pats := sim.Uniform(g.NumPIs(), 2, seed+900)
			arena := sim.NewArena(g, pats, workers)
			cache := Generate(g, arena.Vectors(), pats.Valid, cfg, workers, nil, nil)
			reused := false
			for step := 0; step < 12; step++ {
				ands := liveAndNodes(g)
				if len(ands) == 0 {
					break
				}
				v := ands[rng.Intn(len(ands))]
				epochs := make([]uint32, g.NumNodes())
				for i := range epochs {
					epochs[i] = g.Epoch(aig.Node(i))
				}
				var touched []aig.Node
				g.ReplaceNode(v, replacementLit(rng, g, v), &touched)
				arena.Update()

				stale := g.StaleClosure(epochs, touched)
				got := Generate(g, arena.Vectors(), pats.Valid, cfg, workers, stale, cache)
				want := Generate(g, arena.Vectors(), pats.Valid, cfg, workers, nil, nil)
				if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
					t.Fatalf("workers %d seed %d step %d: reuse diverged from full generation:\n got %v\nwant %v",
						workers, seed, step, got, want)
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

// TestApplyInPlaceMatchesApply: committing a generated LAC in place (graph
// mutation + garbage collection) must leave exactly the live circuit that the
// copying Apply path produces — same function, same AND count — across random
// graphs and sequences of commits.
func TestApplyInPlaceMatchesApply(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxLACsPerNode = 2
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed * 31))
		g := genTestGraph(rng, 8, 60)
		pats := sim.Uniform(g.NumPIs(), 2, seed+450)
		for step := 0; step < 6; step++ {
			vecs := sim.Simulate(g, pats)
			lacs := Generate(g, vecs, pats.Valid, cfg, 1, nil, nil)
			vecs.Release()
			if len(lacs) == 0 {
				break
			}
			lac := lacs[rng.Intn(len(lacs))]
			want := lac.Apply(g)

			var touched []aig.Node
			lac.ApplyInPlace(g, &touched)
			if err := g.CheckStrict(); err != nil {
				t.Fatalf("seed %d step %d: in-place commit corrupted the graph: %v", seed, step, err)
			}
			if g.NumAnds() != want.NumAnds() {
				t.Fatalf("seed %d step %d: in-place %d ANDs, Apply %d",
					seed, step, g.NumAnds(), want.NumAnds())
			}
			full := sim.Exhaustive(g.NumPIs())
			gotV := sim.Simulate(g, full)
			wantV := sim.Simulate(want, full)
			for po := 0; po < g.NumPOs(); po++ {
				gw, ginv := gotV.LitWords(g.PO(po))
				ww, winv := wantV.LitWords(want.PO(po))
				for w := range gw {
					if gw[w]^ginv != ww[w]^winv {
						t.Fatalf("seed %d step %d: PO %d diverges between in-place and Apply",
							seed, step, po)
					}
				}
			}
			gotV.Release()
			wantV.Release()
		}
	}
}

// TestGenerateReuseDegradesToFull pins the nil-mask and nil-cache paths.
func TestGenerateReuseDegradesToFull(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := genTestGraph(rng, 6, 40)
	pats := sim.Uniform(g.NumPIs(), 2, 77)
	vecs := sim.Simulate(g, pats)
	defer vecs.Release()
	cfg := DefaultConfig()
	want := Generate(g, vecs, pats.Valid, cfg, 1, nil, nil)
	if got := Generate(g, vecs, pats.Valid, cfg, 1, nil, want); !reflect.DeepEqual(got, want) {
		t.Fatal("nil stale mask did not degrade to a full scan")
	}
	stale := make([]bool, g.NumNodes())
	if got := Generate(g, vecs, pats.Valid, cfg, 1, stale, nil); !reflect.DeepEqual(got, want) {
		t.Fatal("nil cache did not degrade to a full scan")
	}
	// All-stale mask with an empty cache must also reproduce the full scan.
	for i := range stale {
		stale[i] = true
	}
	if got := Generate(g, vecs, pats.Valid, cfg, 1, stale, []LAC{}); !reflect.DeepEqual(got, want) {
		t.Fatal("all-stale mask did not reproduce the full scan")
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

func liveAndNodes(g *aig.Graph) []aig.Node {
	var out []aig.Node
	for n := aig.Node(1); int(n) < g.NumNodes(); n++ {
		if g.IsAnd(n) {
			out = append(out, n)
		}
	}
	return out
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
