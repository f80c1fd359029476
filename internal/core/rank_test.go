package core

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/aig"
	"repro/internal/errest"
	"repro/internal/sim"
)

// TestRankCandidatesExact checks the bounded ranking against unbounded
// scoring on random small circuits, for ER, NMED and MRED, pattern counts
// that are not multiples of 64, and 1, 2 and 4 workers. The reference
// error of each candidate is a full-width resimulation of its node with
// the candidate's own vector, scored by EvalPOWords. rankCandidates must
// pick the reference winner (smallest error, then largest gain, then first
// in node order), and every candidate it did not prune must carry exactly
// its reference error. The first group of every round sees a +Inf bound.
// In the rounds scored against the exact circuit, the first group holds an
// identity change of error 0, so the probe prunes every later candidate
// that errs on the first word.
func TestRankCandidatesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 16; trial++ {
		orig := randomGraph(rng, 6+rng.Intn(5), 40+rng.Intn(120), 1+rng.Intn(8))
		pats := sim.UniformN(orig.NumPIs(), 64*(1+rng.Intn(3))+1+rng.Intn(63), int64(trial))
		cur := orig
		if trial%2 == 1 {
			ands := andsOf(orig)
			cur = orig.CopyWith(map[aig.Node]aig.Lit{ands[rng.Intn(len(ands))]: aig.LitTrue})
		}
		ands := andsOf(cur)
		if len(ands) == 0 {
			continue
		}
		for _, metric := range []errest.Metric{errest.ER, errest.NMED, errest.MRED} {
			ev := errest.NewEvaluator(orig, pats, metric)
			arena := sim.NewArena(cur, pats, 1)
			cands := syntheticCandidates(rng, ands, pats.Words, trial%2 == 0)
			want := referenceErrors(ev, arena, cands)
			win := 0
			for i := range cands {
				if want[i] < want[win] || (want[i] == want[win] && cands[i].Gain > cands[win].Gain) {
					win = i
				}
			}
			for _, workers := range []int{1, 2, 4} {
				cs := slices.Clone(cands)
				best := rankCandidates(context.Background(), ev, arena, cs, workers)
				if best != &cs[win] {
					t.Fatalf("trial %d %v workers=%d: winner node %d (err %v), want node %d (err %v)",
						trial, metric, workers, best.Node, best.Err, cs[win].Node, want[win])
				}
				for i := range cs {
					switch got := cs[i].Err; {
					case math.IsInf(got, 1) && want[i] <= want[win]:
						t.Fatalf("trial %d %v workers=%d: candidate %d pruned with error %v ≤ the winner's %v",
							trial, metric, workers, i, want[i], want[win])
					case !math.IsInf(got, 1) && got != want[i]:
						t.Fatalf("trial %d %v workers=%d: candidate %d scored %v, want %v",
							trial, metric, workers, i, got, want[i])
					}
				}
			}
			arena.Release()
		}
	}
}

// syntheticCandidates draws 2–5 candidates at each of several nodes, sorted
// by node as rankCandidates sorts them: sparse flips of the node's vector
// (some equal to it on the first word), constants, random vectors and
// identity changes, with small gains so that errors tie. With identityFirst
// the first group opens with an identity change.
func syntheticCandidates(rng *rand.Rand, ands []aig.Node, words int, identityFirst bool) []Candidate {
	var cands []Candidate
	for _, n := range pickNodes(rng, ands, 1+rng.Intn(8)) {
		for k := 2 + rng.Intn(4); k > 0; k-- {
			kind, seed := rng.Intn(5), rng.Int63()
			if identityFirst && len(cands) == 0 {
				kind = 0
			}
			cands = append(cands, Candidate{Node: n, Gain: rng.Intn(3), NewVec: func(vecs *sim.Vectors, out []uint64) {
				r := rand.New(rand.NewSource(seed))
				copy(out, vecs.Node(n))
				for w := range out {
					switch kind {
					case 1:
						out[w] ^= r.Uint64() & r.Uint64() & r.Uint64()
					case 2:
						if w > 0 {
							out[w] ^= r.Uint64() & r.Uint64()
						}
					case 3:
						out[w] = 0
					case 4:
						out[w] = r.Uint64()
					}
				}
			}})
		}
	}
	return cands
}

// referenceErrors scores every candidate by resimulating its node with the
// candidate's vector at full width and evaluating the PO words unbounded.
func referenceErrors(ev *errest.Evaluator, arena *sim.Arena, cands []Candidate) []float64 {
	g, vecs := arena.Graph(), arena.Vectors()
	r := sim.NewResimulator(arena)
	defer r.Release()
	rows := make([][]uint64, g.NumPOs())
	for i := range rows {
		rows[i] = make([]uint64, vecs.Words)
	}
	nv := make([]uint64, vecs.Words)
	want := make([]float64, len(cands))
	for i, c := range cands {
		c.NewVec(vecs, nv)
		r.Resimulate(c.Node, nv, 0, vecs.Words)
		r.POWordsInto(rows)
		want[i] = ev.EvalPOWords(rows)
	}
	return want
}

// pickNodes returns up to k distinct nodes of ands in ascending order.
func pickNodes(rng *rand.Rand, ands []aig.Node, k int) []aig.Node {
	picked := slices.Clone(ands)
	rng.Shuffle(len(picked), func(i, j int) { picked[i], picked[j] = picked[j], picked[i] })
	picked = picked[:min(k, len(picked))]
	slices.Sort(picked)
	return picked
}

func andsOf(g *aig.Graph) []aig.Node {
	var out []aig.Node
	for n := aig.Node(1); int(n) < g.NumNodes(); n++ {
		if g.IsAnd(n) {
			out = append(out, n)
		}
	}
	return out
}

// randomGraph builds a random DAG with nPIs inputs, nAnds AND attempts and
// nPOs outputs taken from its last nodes.
func randomGraph(rng *rand.Rand, nPIs, nAnds, nPOs int) *aig.Graph {
	g := aig.New()
	lits := g.AddPIs(nPIs, "x")
	for i := 0; i < nAnds; i++ {
		a := lits[rng.Intn(len(lits))].NotCond(rng.Intn(2) == 0)
		b := lits[rng.Intn(len(lits))].NotCond(rng.Intn(2) == 0)
		lits = append(lits, g.And(a, b))
	}
	for i := 0; i < nPOs; i++ {
		g.AddPO(lits[len(lits)-1-rng.Intn(min(4*nPOs, len(lits)))], "f")
	}
	return g
}
