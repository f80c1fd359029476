package errest

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/wordops"
)

func randPOWords(rng *rand.Rand, nPOs, words int) [][]uint64 {
	out := make([][]uint64, nPOs)
	for o := range out {
		out[o] = make([]uint64, words)
		for w := range out[o] {
			out[o][w] = rng.Uint64()
		}
	}
	return out
}

// TestEvalPOWordsBoundedMatchesUnbounded property-tests the pruned
// evaluation against the unbounded one for all three metrics: any bound at
// or above the true error must return the exact value (bit-identical), and
// any bound strictly below it must return +Inf.
func TestEvalPOWordsBoundedMatchesUnbounded(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 60; trial++ {
		nPOs := 1 + rng.Intn(12)
		words := 1 + rng.Intn(6)
		valid := 1 + rng.Intn(64*words)
		golden := randPOWords(rng, nPOs, words)
		approx := randPOWords(rng, nPOs, words)
		// Occasionally evaluate an exact copy so the err==0 edge is hit.
		if trial%7 == 0 {
			for o := range approx {
				copy(approx[o], golden[o])
			}
		}
		for _, metric := range []Metric{ER, NMED, MRED} {
			e := NewEvaluatorFromWords(golden, words, valid, metric)
			err := e.EvalPOWords(approx)

			// Exactly at the bound: pruning must not fire (determinism of
			// the candidate ranking depends on this).
			if got := e.EvalPOWordsBounded(approx, err); got != err {
				t.Fatalf("%v trial %d: bound==err returned %v, want %v", metric, trial, got, err)
			}
			if got := e.EvalPOWordsBounded(approx, math.Inf(1)); got != err {
				t.Fatalf("%v trial %d: bound=+Inf returned %v, want %v", metric, trial, got, err)
			}
			if err > 0 {
				lower := math.Nextafter(err, 0)
				if got := e.EvalPOWordsBounded(approx, lower); !math.IsInf(got, 1) {
					t.Fatalf("%v trial %d: bound just below err=%v returned %v, want +Inf",
						metric, trial, err, got)
				}
				if got := e.EvalPOWordsBounded(approx, 0); !math.IsInf(got, 1) {
					t.Fatalf("%v trial %d: bound 0 with err=%v returned %v, want +Inf",
						metric, trial, err, got)
				}
			}
		}
	}
}

// TestEvalFlipBoundedMatchesMerge property-tests the candidate scorers
// against explicitly merging with wordops.SelectFlip and then evaluating:
// EvalFlipBounded, and the batch's ranking kernels with the words split at
// a random probe point, must give bit-identical results at bound +Inf, at
// exactly the error, and just below it. The shapes cover 1–12 outputs,
// the widths at the NMED integer limit (40 outputs fit at 8192 patterns,
// 41 do not) and 64, with valid counts that are not multiples of 64.
func TestEvalFlipBoundedMatchesMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 120; trial++ {
		words := 1 + rng.Intn(6)
		valid := 1 + rng.Intn(64*words)
		if trial%2 == 1 {
			valid = 64*(words-1) + 1 + rng.Intn(64) // in the last word
		}
		checkRankKernels(t, rng, 1+rng.Intn(12), words, valid)
	}
	for _, nPOs := range []int{40, 41, 64} {
		checkRankKernels(t, rng, nPOs, 128, 8192)
		checkRankKernels(t, rng, nPOs, 128, 8192-1-rng.Intn(63))
		checkRankKernels(t, rng, nPOs, 3, 129+rng.Intn(64))
	}
}

// TestIntSumsLimit pins where NMED switches to float sums: integer sums
// are exact while nPat·(2^nPOs−1) < 2^53.
func TestIntSumsLimit(t *testing.T) {
	for _, c := range []struct {
		nPOs, valid int
		want        bool
	}{
		{40, 8192, true},
		{41, 8192, false},
		{41, 4096, true},
		{41, 4097, false},
		{52, 2, true},
		{52, 3, false},
		{53, 1, true},
		{53, 2, false},
		{54, 1, false},
		{64, 64, false},
	} {
		golden := randPOWords(rand.New(rand.NewSource(1)), c.nPOs, (c.valid+63)/64)
		e := NewEvaluatorFromWords(golden, len(golden[0]), c.valid, NMED)
		if got := e.intSums(); got != c.want {
			t.Errorf("nPOs=%d valid=%d: intSums = %v, want %v", c.nPOs, c.valid, got, c.want)
		}
	}
	golden := randPOWords(rand.New(rand.NewSource(1)), 4, 1)
	if NewEvaluatorFromWords(golden, 1, 64, MRED).intSums() {
		t.Errorf("MRED must never keep integer sums")
	}
}

// checkRankKernels draws golden, current and flipped PO words of the given
// shape and a few candidates, and checks for every metric that
// EvalFlipBounded and the batch kernels agree with merge-then-evaluate.
// The kernels are checked only on shapes whose valid count falls in the
// last word: those are the shapes a sim.Patterns has, and the batch's
// per-round data assumes them.
// The candidates share one old vector and one set of flipped words, as the
// candidates of one node do, so the kernels' lazily computed flipped data
// is reused across them.
func checkRankKernels(t *testing.T, rng *rand.Rand, nPOs, words, valid int) {
	t.Helper()
	golden := randPOWords(rng, nPOs, words)
	// A current circuit close to the golden one keeps errors small, as in
	// a flow; a random one drives NMED sums of wide outputs toward 2^53.
	cur := randPOWords(rng, nPOs, words)
	if rng.Intn(2) == 0 && nPOs < 40 {
		cur = noisyCopy(rng, golden)
	}
	flipped := noisyCopy(rng, cur)
	old := randPOWords(rng, 1, words)[0]
	news := make([][]uint64, 4)
	for i := range news {
		news[i] = noisyCopy(rng, [][]uint64{old})[0]
	}
	news[0] = append([]uint64(nil), old...) // the identity change
	news[1] = randPOWords(rng, 1, words)[0] // dense
	copy(news[2][:1], old[:1])              // differs only after the probe word
	split := rng.Intn(words + 1)

	for _, metric := range []Metric{ER, NMED, MRED} {
		e := NewEvaluatorFromWords(golden, words, valid, metric)
		want := make([]float64, len(news))
		for i, nv := range news {
			merged := make([][]uint64, nPOs)
			for o := range merged {
				merged[o] = make([]uint64, words)
				wordops.SelectFlip(merged[o], cur[o], flipped[o], old, nv)
			}
			want[i] = e.EvalPOWords(merged)
		}
		bounds := []float64{math.Inf(1)}
		for _, w := range want {
			bounds = append(bounds, w, math.Nextafter(w, 0))
		}
		var b *Batch
		if valid > 64*(words-1) {
			b = &Batch{Eval: e, cur: cur}
			b.initRound()
			b.allocNode()
			for o := range flipped {
				copy(b.flipped[o], flipped[o])
			}
		}
		for _, bound := range bounds {
			for i, nv := range news {
				exp := want[i]
				if exp > bound {
					exp = math.Inf(1)
				}
				if f := e.EvalFlipBounded(cur, flipped, old, nv, bound); f != exp {
					t.Fatalf("%v nPOs=%d words=%d valid=%d cand %d bound %v: EvalFlipBounded %v, want %v",
						metric, nPOs, words, valid, i, bound, f, exp)
				}
			}
			if b == nil {
				continue
			}
			for i, got := range scorePhases(b, old, news, split, bound) {
				exp := want[i]
				if exp > bound {
					exp = math.Inf(1)
				}
				if got != exp {
					t.Fatalf("%v nPOs=%d words=%d valid=%d split=%d cand %d bound %v: kernel %v, want %v",
						metric, nPOs, words, valid, split, i, bound, got, exp)
				}
			}
		}
	}
}

// scorePhases scores the candidates the way Batch.Score does after each
// walk — words [0, split), then the rest — with the flipped words already
// in place, and returns their errors (+Inf when pruned).
func scorePhases(b *Batch, old []uint64, news [][]uint64, split int, bound float64) []float64 {
	b.flipChanged(old, news)
	errs := make([]float64, len(news)) // partial sums, then errors
	for _, r := range [][2]int{{0, split}, {split, b.Eval.words}} {
		if r[0] == r[1] {
			continue
		}
		b.forget(r[0], r[1])
		for i, nv := range news {
			if math.IsInf(errs[i], 1) {
				continue
			}
			sum, ok := b.score(old, nv, r[0], r[1], errs[i], bound)
			errs[i] = sum
			if !ok {
				errs[i] = math.Inf(1)
			}
		}
	}
	for i := range errs {
		if !math.IsInf(errs[i], 1) {
			errs[i] = b.Eval.value(errs[i])
		}
	}
	return errs
}

// noisyCopy returns rows with a random sparse subset of bits flipped.
func noisyCopy(rng *rand.Rand, rows [][]uint64) [][]uint64 {
	out := make([][]uint64, len(rows))
	for o, row := range rows {
		out[o] = make([]uint64, len(row))
		for w, x := range row {
			out[o][w] = x ^ rng.Uint64()&rng.Uint64()&rng.Uint64()&rng.Uint64()
		}
	}
	return out
}

// TestTailPatternsIgnored is the regression test for tail-pattern handling:
// with a valid count that is not a multiple of 64, differences confined to
// the garbage bits of the last word must not contribute to any metric, and
// a single differing valid pattern contributes exactly 1/valid to ER.
func TestTailPatternsIgnored(t *testing.T) {
	const valid = 100 // 2 words, last word has 36 garbage bit positions
	const words = 2
	rng := rand.New(rand.NewSource(4))
	golden := randPOWords(rng, 4, words)
	for _, metric := range []Metric{ER, NMED, MRED} {
		e := NewEvaluatorFromWords(golden, words, valid, metric)
		if n := e.NumPatterns(); n != valid {
			t.Fatalf("%v: NumPatterns = %d, want %d", metric, n, valid)
		}

		// Corrupt only bits at or beyond the valid count.
		approx := make([][]uint64, len(golden))
		for o := range approx {
			approx[o] = append([]uint64(nil), golden[o]...)
			approx[o][words-1] ^= ^wordops.TailMask(valid)
		}
		if err := e.EvalPOWords(approx); err != 0 {
			t.Fatalf("%v: tail-only difference scored %v, want 0", metric, err)
		}

		// Flip PO 0 on the last VALID pattern: exactly one pattern differs.
		approx[0][words-1] ^= 1 << uint((valid-1)%64)
		err := e.EvalPOWords(approx)
		if err <= 0 {
			t.Fatalf("%v: valid-pattern difference scored %v, want > 0", metric, err)
		}
		if metric == ER && err != 1.0/valid {
			t.Fatalf("ER: one bad pattern scored %v, want %v", err, 1.0/valid)
		}
	}
}

// TestEvaluatorFromWordsClampsValid checks the valid-count defaulting.
func TestEvaluatorFromWordsClampsValid(t *testing.T) {
	golden := [][]uint64{{0, 0}}
	for _, valid := range []int{0, -5, 129, 1 << 20} {
		e := NewEvaluatorFromWords(golden, 2, valid, ER)
		if e.NumPatterns() != 128 {
			t.Fatalf("valid=%d: NumPatterns = %d, want 128", valid, e.NumPatterns())
		}
	}
}
