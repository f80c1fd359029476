// Package errest implements the error metrics of approximate logic
// synthesis (error rate, normalized mean error distance, mean relative
// error distance) and the batch local-approximate-change error estimator of
// Su et al. (DAC 2018) that ALSRAC uses to rank candidate changes.
//
// All measurements are Monte-Carlo estimates over a fixed, seeded pattern
// set, exactly as in the paper (which uses 10^7 simulation rounds; the
// pattern budget here is a knob). Golden values always come from the
// ORIGINAL circuit, so errors are cumulative across applied changes.
package errest

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/aig"
	"repro/internal/sim"
	"repro/internal/wordops"
)

// Metric identifies an error metric.
type Metric int

// The metrics used in the paper's evaluation.
const (
	// ER is the error rate: the probability that at least one primary
	// output differs from the exact circuit.
	ER Metric = iota
	// NMED is the mean error distance normalized by the maximum output
	// value 2^O−1, with outputs read as an unsigned binary number (PO 0 is
	// the least significant bit).
	NMED
	// MRED is the mean of |ŷ−y| / max(y,1).
	MRED
)

// String returns the conventional abbreviation of the metric.
func (m Metric) String() string {
	switch m {
	case ER:
		return "ER"
	case NMED:
		return "NMED"
	case MRED:
		return "MRED"
	}
	return fmt.Sprintf("Metric(%d)", int(m))
}

// Evaluator measures the error of approximate primary-output words against
// golden outputs captured from the original circuit on a fixed pattern set.
type Evaluator struct {
	metric  Metric
	words   int
	nPOs    int
	nPat    int    // number of VALID patterns (≤ 64·words)
	tail    uint64 // valid-bit mask of the last word
	workers int

	golden [][]uint64 // golden PO words, one slice per PO
	// goldenVal[p] is the golden output value of pattern p (value metrics
	// only, computed lazily at construction).
	goldenVal []uint64
	maxVal    float64
}

// NewEvaluator simulates the exact circuit g on the given patterns and
// returns an evaluator for the chosen metric. For the value metrics (NMED,
// MRED) the circuit must have at most 64 primary outputs; wider outputs are
// outside the supported encoding (the paper's arithmetic benchmarks fit).
func NewEvaluator(g *aig.Graph, p *sim.Patterns, metric Metric) *Evaluator {
	return NewEvaluatorWorkers(g, p, metric, 1)
}

// NewEvaluatorWorkers is NewEvaluator with the golden simulation sharded
// over the given number of worker goroutines (0 = GOMAXPROCS); the worker
// count is retained and reused by EvalGraph. The evaluator itself is
// identical for every worker count.
func NewEvaluatorWorkers(g *aig.Graph, p *sim.Patterns, metric Metric, workers int) *Evaluator {
	v := sim.SimulateWorkers(g, p, workers)
	golden := sim.POWords(g, v)
	v.Release()
	e := NewEvaluatorFromWords(golden, p.Words, p.Valid, metric)
	e.workers = workers
	return e
}

// NewEvaluatorFromWords builds an evaluator directly from golden PO words.
// valid is the number of meaningful patterns: bits at or beyond it in the
// last word are masked out of every metric (out of range, it defaults to
// the full 64·words).
func NewEvaluatorFromWords(golden [][]uint64, words, valid int, metric Metric) *Evaluator {
	if valid <= 0 || valid > 64*words {
		valid = 64 * words
	}
	e := &Evaluator{
		metric:  metric,
		words:   words,
		nPOs:    len(golden),
		nPat:    valid,
		tail:    wordops.TailMask(valid),
		workers: 1,
		golden:  golden,
	}
	if metric != ER {
		if e.nPOs > 64 {
			panic("errest: value metrics support at most 64 outputs")
		}
		e.goldenVal = make([]uint64, 64*words)
		transposeValues(golden, words, e.goldenVal)
		e.maxVal = math.Pow(2, float64(e.nPOs)) - 1
	}
	return e
}

// Words returns the pattern word count.
func (e *Evaluator) Words() int { return e.words }

// NumPatterns returns the number of evaluation patterns.
func (e *Evaluator) NumPatterns() int { return e.nPat }

// EvalPOWords computes the metric for the given approximate PO words. It
// only reads evaluator state, so it is safe to call concurrently.
//
//alsrac:hotpath
func (e *Evaluator) EvalPOWords(approx [][]uint64) float64 {
	if len(approx) != e.nPOs {
		panic("errest: PO count mismatch")
	}
	switch e.metric {
	case ER:
		return e.errorRate(approx)
	case NMED:
		return e.meanED(approx, false)
	case MRED:
		return e.meanED(approx, true)
	}
	panic("errest: unknown metric")
}

// EvalGraph simulates an approximate circuit on the evaluator's patterns
// and returns its error. The circuit must have the same PI/PO interface as
// the original. Simulation uses the evaluator's worker count and pooled
// buffers throughout.
func (e *Evaluator) EvalGraph(g *aig.Graph, p *sim.Patterns) float64 {
	v := sim.SimulateWorkers(g, p, e.workers)
	approx := make([][]uint64, g.NumPOs())
	for i := range approx {
		approx[i] = v.LitInto(g.PO(i), wordops.Get(v.Words))
	}
	err := e.EvalPOWords(approx)
	for _, w := range approx {
		wordops.Put(w)
	}
	v.Release()
	return err
}

// EvalFlipBounded computes the metric of the candidate outputs
// ŷ_o = (y_o &^ c) | (yf_o & c) with c = old ⊕ new — the batch-estimation
// merge — without materializing them, pruned by bound as flipSum describes.
// The accumulation order matches EvalPOWords word for word, so the result
// is bit-identical to merging first and evaluating after. It is the
// reference the batch's differential kernels are tested against, and the
// batch scores MRED, and NMED beyond the integer limit (see intSums), with
// its word-range form flipSum.
//
//alsrac:hotpath
func (e *Evaluator) EvalFlipBounded(y, yf [][]uint64, old, new []uint64, bound float64) float64 {
	if len(y) != e.nPOs || len(yf) != e.nPOs {
		panic("errest: PO count mismatch")
	}
	sum, ok := e.flipSum(y, yf, old, new, 0, e.words, 0, bound)
	if !ok {
		return math.Inf(1)
	}
	return e.value(sum)
}

// flipSum adds the per-pattern errors of the merged candidate outputs on
// words [lo, hi) to the running sum — bad-pattern counts for ER, error
// distances for NMED and MRED — in the order EvalPOWords adds them. It
// reports false as soon as the partial error value(sum) strictly exceeds
// bound. A sum carried from [0, lo) therefore resumes the scoring
// bit-identically.
//
// The pruning is exact, not heuristic. All three metrics accumulate
// non-negative per-word contributions, so the partial value is
// non-decreasing in the word index; the partial is checked with the same
// floating-point expression that produces the final value, and IEEE
// division is monotone, so a result ≤ bound can never be pruned — callers
// always get the exact value for any candidate at least as good as the
// bound, and false strictly above it. This is what lets the candidate
// ranking thread a best-so-far bound through without changing the winner.
//
//alsrac:hotpath
func (e *Evaluator) flipSum(y, yf [][]uint64, old, new []uint64, lo, hi int, sum, bound float64) (float64, bool) {
	if e.metric == ER {
		for w := lo; w < hi; w++ {
			c := old[w] ^ new[w]
			var acc uint64
			for o := 0; o < e.nPOs; o++ {
				yo := y[o][w]&^c | yf[o][w]&c
				acc |= yo ^ e.golden[o][w]
			}
			if w == e.words-1 {
				acc &= e.tail
			}
			sum += float64(bits.OnesCount64(acc))
			if e.value(sum) > bound {
				return sum, false
			}
		}
		return sum, true
	}

	relative := e.metric == MRED
	var valsArr [64]uint64
	vals := valsArr[:]
	for w := lo; w < hi; w++ {
		c := old[w] ^ new[w]
		for b := range vals {
			vals[b] = 0
		}
		for o := 0; o < e.nPOs; o++ {
			word := y[o][w]&^c | yf[o][w]&c
			for ; word != 0; word &= word - 1 {
				vals[bits.TrailingZeros64(word)] |= 1 << uint(o)
			}
		}
		base, valid := w*64, e.validIn(w)
		for b := 0; b < valid; b++ {
			sum += e.distance(vals[b], e.goldenVal[base+b], relative)
		}
		if e.value(sum) > bound {
			return sum, false
		}
	}
	return sum, true
}

// value turns a sum of per-pattern errors into the metric: the sum over
// the valid pattern count, and for NMED over the maximum output value too.
// Every bounded scorer checks its partial sums with this same expression,
// so that pruning never fires on a result that would end up ≤ bound.
func (e *Evaluator) value(sum float64) float64 {
	v := sum / float64(e.nPat)
	if e.metric == NMED {
		v /= e.maxVal
	}
	return v
}

// validIn returns the number of valid patterns in word w.
func (e *Evaluator) validIn(w int) int {
	if w == e.words-1 {
		return e.nPat - w*64
	}
	return 64
}

// maskOf returns the mask of word w's valid patterns.
func (e *Evaluator) maskOf(w int) uint64 {
	if w == e.words-1 {
		return e.tail
	}
	return ^uint64(0)
}

// distance is the error distance of output value yhat against golden
// value y, relative to max(y, 1) for MRED.
func (e *Evaluator) distance(yhat, y uint64, relative bool) float64 {
	ed := float64(absDiff(yhat, y))
	if relative {
		den := float64(y)
		if den < 1 {
			den = 1
		}
		ed /= den
	}
	return ed
}

func absDiff(a, b uint64) uint64 {
	if a >= b {
		return a - b
	}
	return b - a
}

// intSums reports whether NMED sums may be kept as integers: every partial
// sum is at most nPat·(2^nPOs−1), and below 2^53 each is an integer that a
// float64 holds exactly, so the float running sum of EvalPOWords equals
// the integer sum bit for bit.
func (e *Evaluator) intSums() bool {
	if e.metric != NMED || e.nPOs == 0 {
		return false
	}
	maxED := uint64(1)<<uint(e.nPOs) - 1 // all ones at 64 outputs
	return uint64(e.nPat) <= (1<<53-1)/maxED
}

//alsrac:hotpath
func (e *Evaluator) errorRate(approx [][]uint64) float64 {
	bad := 0
	for w := 0; w < e.words; w++ {
		var acc uint64
		for o := 0; o < e.nPOs; o++ {
			acc |= approx[o][w] ^ e.golden[o][w]
		}
		if w == e.words-1 {
			acc &= e.tail // patterns beyond Valid never count
		}
		bad += bits.OnesCount64(acc)
	}
	return e.value(float64(bad))
}

//alsrac:hotpath
func (e *Evaluator) meanED(approx [][]uint64, relative bool) float64 {
	// Stack-allocated scratch keeps concurrent calls allocation-free.
	var valsArr [64]uint64
	vals := valsArr[:]
	sum := 0.0
	for w := 0; w < e.words; w++ {
		transposeWord(approx, w, vals)
		base, valid := w*64, e.validIn(w) // patterns beyond Valid never count
		for b := 0; b < valid; b++ {
			sum += e.distance(vals[b], e.goldenVal[base+b], relative)
		}
	}
	return e.value(sum)
}

// transposeValues converts PO word slices into per-pattern output values.
func transposeValues(po [][]uint64, words int, out []uint64) {
	// Stack-allocated scratch: construction-time use only today, but kept
	// allocation-free like the eval path.
	var valsArr [64]uint64
	for w := 0; w < words; w++ {
		transposeWord(po, w, valsArr[:])
		copy(out[w*64:], valsArr[:])
	}
}

// transposeWord extracts the 64 output values encoded in word index w of
// the PO slices: vals[b] has bit o equal to bit b of po[o][w].
//
//alsrac:hotpath
func transposeWord(po [][]uint64, w int, vals []uint64) {
	for b := range vals {
		vals[b] = 0
	}
	for o, pw := range po {
		word := pw[w]
		for ; word != 0; word &= word - 1 {
			vals[bits.TrailingZeros64(word)] |= 1 << uint(o)
		}
	}
}
