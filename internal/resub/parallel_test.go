package resub

import (
	"math/rand"
	"reflect"
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
		g.AddPO(lits[len(lits)-1-rng.Intn(min(8, len(lits)))], "f")
	}
	return g
}

// TestGenerateWorkersDeterministic: the sharded scan must produce exactly
// the sequential candidate list — same LACs, same order — for any worker
// count, including counts above the chunk count.
func TestGenerateWorkersDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 4; trial++ {
		g := randomAIG(rng, 8, 150, 4)
		care := sim.UniformN(g.NumPIs(), 32, int64(trial+5))
		vecs := sim.Simulate(g, care)
		for _, cfg := range []Config{
			DefaultConfig(),
			{MaxLACsPerNode: 2},
		} {
			ref := Generate(g, vecs, care.Valid, cfg, 1, nil, nil)
			for _, workers := range []int{2, 3, 7, 64} {
				got := Generate(g, vecs, care.Valid, cfg, workers, nil, nil)
				if !reflect.DeepEqual(ref, got) {
					t.Fatalf("trial %d cfg %+v workers %d: candidate list differs (%d vs %d LACs)",
						trial, cfg, workers, len(ref), len(got))
				}
			}
		}
		vecs.Release()
	}
}

// TestEvalVecPooledScratch: EvalVec with pooled scratch must produce the
// same replacement vector as a naive evaluation, for plain and complemented
// divisors.
func TestEvalVecPooledScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	g := randomAIG(rng, 6, 80, 3)
	care := sim.UniformN(g.NumPIs(), 128, 11)
	vecs := sim.Simulate(g, care)
	lacs := Generate(g, vecs, care.Valid, Config{MaxLACsPerNode: 4}, 1, nil, nil)
	if len(lacs) == 0 {
		t.Skip("no candidates generated")
	}
	for li := range lacs {
		l := &lacs[li]
		// Force a complemented divisor variant too.
		variants := []LAC{*l}
		if len(l.Divisors) > 0 {
			flipped := *l
			flipped.Divisors = append([]aig.Lit(nil), l.Divisors...)
			flipped.Divisors[0] = flipped.Divisors[0].Not()
			variants = append(variants, flipped)
		}
		for _, v := range variants {
			got := make([]uint64, vecs.Words)
			v.EvalVec(vecs, got)

			// Naive reference evaluation.
			ins := make([][]uint64, len(v.Divisors))
			for i, d := range v.Divisors {
				ins[i] = vecs.LitInto(d, make([]uint64, vecs.Words))
			}
			want := make([]uint64, vecs.Words)
			v.Cover.EvalWords(ins, vecs.Words, want)
			for w := range want {
				if got[w] != want[w] {
					t.Fatalf("LAC %d word %d: %x want %x", li, w, got[w], want[w])
				}
			}
		}
	}
	vecs.Release()
}
