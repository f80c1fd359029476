package errest

import (
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
		batch.Prepare(candNode[i])
		want[i] = batch.EvalCandidate(candNode[i], cands[i])
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
				f.Prepare(candNode[i])
				got[i] = f.EvalCandidate(candNode[i], cands[i])
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
