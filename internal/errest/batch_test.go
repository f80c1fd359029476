package errest

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/aig"
	"repro/internal/sim"
)

func randomAIG(rng *rand.Rand, nPIs, nAnds, nPOs int) *aig.Graph {
	g := aig.New()
	lits := g.AddPIs(nPIs, "x")
	for i := 0; i < nAnds; i++ {
		a := lits[rng.Intn(len(lits))].NotCond(rng.Intn(2) == 0)
		b := lits[rng.Intn(len(lits))].NotCond(rng.Intn(2) == 0)
		lits = append(lits, g.And(a, b))
	}
	for i := 0; i < nPOs; i++ {
		g.AddPO(lits[len(lits)-1-rng.Intn(min(4, len(lits)))], "f")
	}
	return g
}

// TestBatchForkMatchesRoot: a Fork evaluating the same (node, vector)
// candidates concurrently must report exactly the root batch's errors.
func TestBatchForkMatchesRoot(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomAIG(rng, 8, 120, 4)
	pats := sim.Uniform(g.NumPIs(), 8, 3)
	ev := NewEvaluator(g, pats, ER)

	var nodes []aig.Node
	for n := aig.Node(1); int(n) < g.NumNodes(); n++ {
		if g.IsAnd(n) {
			nodes = append(nodes, n)
		}
	}
	cands := make([][]uint64, 12)
	candNode := make([]aig.Node, len(cands))
	for i := range cands {
		candNode[i] = nodes[rng.Intn(len(nodes))]
		cands[i] = make([]uint64, pats.Words)
		for w := range cands[i] {
			cands[i][w] = rng.Uint64()
		}
	}

	arena := sim.NewArena(g, pats, 1)
	defer arena.Release()
	batch := NewBatch(ev, arena)
	want := make([]float64, len(cands))
	for i := range cands {
		want[i] = batch.Score(candNode[i], cands[i:i+1], nil)[0]
	}

	// Re-evaluate everything on several forks concurrently.
	got := make([]float64, len(cands))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			f := batch.Fork()
			defer f.Release()
			for i := w; i < len(cands); i += 4 {
				got[i] = f.Score(candNode[i], cands[i:i+1], nil)[0]
			}
		}(w)
	}
	wg.Wait()
	for i := range cands {
		if got[i] != want[i] {
			t.Fatalf("candidate %d: fork err %v, root err %v", i, got[i], want[i])
		}
	}
	batch.Release()
}

// TestEvaluatorWorkersIdentical: the sharded golden run and EvalGraph must
// produce the same error values as the sequential evaluator.
func TestEvaluatorWorkersIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := randomAIG(rng, 8, 100, 4)
	approx := randomAIG(rng, 8, 90, 4) // same interface, different logic
	pats := sim.Uniform(g.NumPIs(), 5, 21)
	for _, metric := range []Metric{ER, NMED, MRED} {
		seq := NewEvaluator(g, pats, metric)
		for _, workers := range []int{2, 4, 9} {
			par := NewEvaluatorWorkers(g, pats, metric, workers)
			if a, b := seq.EvalGraph(approx, pats), par.EvalGraph(approx, pats); a != b {
				t.Fatalf("%v workers=%d: EvalGraph %v vs %v", metric, workers, a, b)
			}
		}
	}
}

// TestScoreMatchesResimulation checks Batch.Score end to end on random
// circuits: each candidate's error must equal a full-width resimulation of
// its node with the candidate's own vector, scored by EvalPOWords, or be
// +Inf exactly when that error exceeds the bound in force when the
// candidate was scored (the entry bound, lowered by each earlier exact
// error). It covers ER, NMED and MRED, pattern counts that are not
// multiples of 64, and entry bounds at +Inf (one full-width walk), at each
// exact error, just below it, and at 0, where the probe prunes every
// candidate that errs on the first word. The trials after the first 12
// have 8–24 POs, driven also by PIs, the constant and low AND nodes, so
// that PO drivers interleave with the walk and the ER early exit fires;
// the test fails if it never does.
func TestScoreMatchesResimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	exits := 0
	for trial := 0; trial < 24; trial++ {
		var g *aig.Graph
		if trial < 12 {
			g = randomAIG(rng, 6+rng.Intn(5), 40+rng.Intn(100), 1+rng.Intn(8))
		} else {
			g = randomAIG(rng, 6+rng.Intn(5), 40+rng.Intn(100), 0)
			addSpreadPOs(rng, g, 8+rng.Intn(17))
		}
		pats := sim.UniformN(g.NumPIs(), 64*rng.Intn(4)+1+rng.Intn(63), int64(trial))
		cur := g
		ands := andNodes(g)
		if trial%2 == 1 {
			// Score against an approximate circuit, whose error is not 0.
			cur = g.CopyWith(map[aig.Node]aig.Lit{ands[rng.Intn(len(ands))]: aig.LitFalse})
			ands = andNodes(cur)
		}
		if len(ands) == 0 {
			continue
		}
		for _, metric := range []Metric{ER, NMED, MRED} {
			ev := NewEvaluator(g, pats, metric)
			arena := sim.NewArena(cur, pats, 1)
			b := NewBatch(ev, arena)
			ref := sim.NewResimulator(arena)
			words := pats.Words
			rows := make([][]uint64, cur.NumPOs())
			for i := range rows {
				rows[i] = make([]uint64, words)
			}
			for rep := 0; rep < 6; rep++ {
				n := ands[rng.Intn(len(ands))]
				news := candidateVectors(rng, arena.Vectors().Node(n))
				want := make([]float64, len(news))
				for i, nv := range news {
					ref.Resimulate(n, nv, 0, words)
					ref.POWordsInto(rows)
					want[i] = ev.EvalPOWords(rows)
				}
				entry := []float64{math.Inf(1), 0}
				for _, w := range want {
					entry = append(entry, w, math.Nextafter(w, 0))
				}
				for _, x := range entry {
					bound := NewBound()
					bound.Lower(x)
					got := b.Score(n, news, bound)
					limit := x
					for i := range news {
						exp := math.Inf(1)
						if want[i] <= limit {
							exp, limit = want[i], want[i]
						}
						if got[i] != exp {
							t.Fatalf("trial %d %v node %d entry bound %v: candidate %d scored %v, want %v",
								trial, metric, n, x, i, got[i], exp)
						}
					}
					if bound.Load() != limit {
						t.Fatalf("trial %d %v: bound ended at %v, want %v", trial, metric, bound.Load(), limit)
					}
				}
			}
			exits += b.exits
			ref.Release()
			b.Release()
			arena.Release()
		}
	}
	if exits == 0 {
		t.Fatal("the ER early exit never abandoned a walk")
	}
}

// addSpreadPOs adds nPOs outputs to g, driven, at random and complemented
// at random, by the constant, a PI, one of the lowest AND nodes, or one of
// the topmost nodes.
func addSpreadPOs(rng *rand.Rand, g *aig.Graph, nPOs int) {
	ands := andNodes(g)
	for i := 0; i < nPOs; i++ {
		var l aig.Lit
		switch k := rng.Intn(4); {
		case k == 0:
			l = aig.LitFalse
		case k == 1 || len(ands) == 0:
			l = aig.MakeLit(g.PI(rng.Intn(g.NumPIs())), false)
		case k == 2:
			l = aig.MakeLit(ands[rng.Intn(min(8, len(ands)))], false)
		default:
			l = aig.MakeLit(ands[len(ands)-1-rng.Intn(min(4, len(ands)))], false)
		}
		g.AddPO(l.NotCond(rng.Intn(2) == 0), "f")
	}
}

// candidateVectors returns replacement vectors for a node whose current
// vector is cur: itself, sparse flips of it (one equal to it on the first
// word, so that only the words after the probe decide it), the constant 0
// and a random vector.
func candidateVectors(rng *rand.Rand, cur []uint64) [][]uint64 {
	news := make([][]uint64, 5)
	for i := range news {
		news[i] = append([]uint64(nil), cur...)
	}
	for w := range cur {
		news[1][w] ^= rng.Uint64() & rng.Uint64() & rng.Uint64()
		if w > 0 {
			news[2][w] ^= rng.Uint64() & rng.Uint64() & rng.Uint64()
		}
		news[3][w] = 0
		news[4][w] = rng.Uint64()
	}
	return news
}

func andNodes(g *aig.Graph) []aig.Node {
	var out []aig.Node
	for n := aig.Node(1); int(n) < g.NumNodes(); n++ {
		if g.IsAnd(n) {
			out = append(out, n)
		}
	}
	return out
}
