package errest

import (
	"math"
	"math/bits"
	"slices"
	"sync/atomic"

	"repro/internal/aig"
	"repro/internal/sim"
	"repro/internal/wordops"
)

// probeWords is the width of the probe walk of Batch.Score: the pattern
// words a node's fanout cone is first resimulated and scored on when a
// finite bound can prune its candidates.
const probeWords = 1

// Batch ranks candidate local approximate changes at single nodes using the
// batch estimation idea of Su et al. (DAC 2018): for a node v, the circuit
// is re-simulated ONCE with v's value vector complemented, which yields for
// every primary output the exact words Y' the circuit produces on the
// patterns where v flips. Any candidate that replaces v's vector by ṽ then
// takes, on the patterns c = v ⊕ ṽ, the flipped outputs Y', and elsewhere
// the current outputs Y. This is exact — bit-parallel pattern independence
// means complementing the vector evaluates the single-pattern flip for all
// patterns at once, reconvergence included — and matches the accuracy of
// per-candidate resimulation, as the paper notes. Score complements v only
// on the union of its candidates' c, the only patterns on which any of
// them reads Y', so the flip dies out sooner in the cone.
//
// Score ranks all candidates at one node and pays only for what decides
// them:
//   - Differential scoring. A candidate's error differs from the current
//     circuit's only on the patterns in c. For ER it scores
//     e_cur &^ c | e_flip & c per word, where e_cur and e_flip are the
//     error masks (any PO wrong) of Y and Y'. For NMED it re-scores only
//     the patterns in c against the current circuit's per-pattern error
//     distances, computed once per round, with integer sums (exact while
//     intSums holds). e_flip and the flipped error distances are computed
//     lazily, per word and per pattern, and shared by the node's
//     candidates. MRED, and NMED beyond the integer limit, score with
//     Evaluator.flipSum.
//   - A one-word probe. Under a finite pruning bound the cone is first
//     resimulated and scored on the first probeWords words only. Most
//     candidates are pruned there; the remaining words are resimulated in
//     one more walk only if one survives, and its sum resumes where the
//     probe stopped.
//   - An early exit for ER. A walk visits ids in ascending order, so a PO
//     whose driver id is below the next id to visit is final. Under a
//     finite bound each final PO's error bits join the flipped error mask
//     as soon as the walk passes its driver; the mask so far is a subset
//     of the final one, so scoring a candidate with it gives a lower bound
//     on its sum. Once that bound prunes every live candidate, the walk is
//     abandoned and they all get +Inf, which is what the full walk would
//     give them.
//
// Every candidate gets exactly the error EvalFlipBounded gives it, or +Inf
// when that error strictly exceeds the bound: partial sums are monotone and
// checked with the final expression (see Evaluator.flipSum).
//
// A Batch ranks against a sim.Arena's simulation of the current circuit on
// the evaluation patterns, and borrows the arena's vectors, fanout index
// and an event queue through its sim.Resimulator: setting up a ranking
// round simulates nothing, and builds the fanout index only when the arena
// has none for its graph yet. A Batch is confined to one goroutine, but
// Fork returns additional views that share the (read-only) base simulation,
// index and per-round error data while owning their own re-simulation
// state, queue and scratch, so disjoint nodes can be ranked concurrently.
type Batch struct {
	Eval *Evaluator

	vecs  *sim.Vectors
	resim *sim.Resimulator
	kind  scoring

	// Read-only after NewBatch and shared with forks.
	cur     [][]uint64 // current circuit PO words Y
	curFlat []uint64   // backing of cur, one pooled block
	errCur  []uint64   // ER: per word, the patterns on which some PO is wrong
	pos     []uint64   // ER: uint64(PO literal)<<32 | PO index, in ascending order
	edCur   []uint64   // NMED: per pattern, the current error distance
	edWord  []uint64   // NMED: per word, the sum of edCur over its valid patterns

	// The node being scored, owned by each view.
	flipped  [][]uint64 // NMED, MRED: PO words Y' with the node complemented, on the walked words
	flipFlat []uint64   // backing of flipped
	flipBuf  []uint64   // the node's vector, complemented where a candidate differs
	errFlip  []uint64   // ER: the error mask of Y' on the walked words, over the POs final so far
	edDelta  []uint64   // NMED: per pattern, flipped minus current distance (mod 2^64)
	known    []uint64   // NMED: per word, the patterns whose edDelta is computed
	vals     []uint64   // NMED: learnFlipped's flipped output values, by pattern
	errs     []float64  // Score's result
	rows     [][]uint64 // Rows' scratch
	rowsFlat []uint64   // backing of rows
	exits    int        // ER walks the early exit abandoned

	isFork bool
}

// scoring selects a Batch's candidate kernel.
type scoring int

const (
	scoreER   scoring = iota // differential error masks
	scoreNMED                // differential integer error distances
	scoreFlip                // Evaluator.flipSum over the merged outputs
)

// NewBatch prepares batch estimation against the given evaluator (whose
// golden values come from the original circuit) over the arena's current
// simulation of its graph. The arena must be up to date, and the batch and
// every fork must be released before the arena's next Update, Rebind or
// Release.
func NewBatch(ev *Evaluator, arena *sim.Arena) *Batch {
	g, vecs := arena.Graph(), arena.Vectors()
	b := &Batch{Eval: ev, vecs: vecs, resim: sim.NewResimulator(arena)}
	b.cur, b.curFlat = allocPO(g.NumPOs(), vecs.Words)
	for i := range b.cur {
		vecs.LitInto(g.PO(i), b.cur[i])
	}
	b.initRound()
	if b.kind == scoreER {
		b.pos = wordops.Get(g.NumPOs())
		for o := range b.pos {
			b.pos[o] = uint64(g.PO(o))<<32 | uint64(o)
		}
		slices.Sort(b.pos)
	}
	b.allocNode()
	return b
}

// initRound picks the scoring kernel and computes the per-round error data
// of the current PO words b.cur.
func (b *Batch) initRound() {
	e := b.Eval
	switch {
	case e.metric == ER:
		b.kind = scoreER
		b.errCur = wordops.Get(e.words)
		for w := range b.errCur {
			var acc uint64
			for o, row := range b.cur {
				acc |= row[w] ^ e.golden[o][w]
			}
			b.errCur[w] = acc & e.maskOf(w)
		}
	case e.intSums():
		b.kind = scoreNMED
		b.edCur = wordops.Get(64 * e.words)
		b.edWord = wordops.Get(e.words)
		var vals [64]uint64
		for w := range b.edWord {
			transposeWord(b.cur, w, vals[:])
			var sum uint64
			for i, valid := 0, e.validIn(w); i < valid; i++ {
				p := w*64 + i
				b.edCur[p] = absDiff(vals[i], e.goldenVal[p])
				sum += b.edCur[p]
			}
			b.edWord[w] = sum
		}
	default:
		b.kind = scoreFlip
	}
}

// Fork returns a Batch sharing the base simulation, current PO words and
// per-round error data with b but owning its own re-simulation state and
// scratch, so it can rank candidates on another goroutine concurrently
// with b. Forks must be released before the root batch.
func (b *Batch) Fork() *Batch {
	f := &Batch{
		Eval:   b.Eval,
		vecs:   b.vecs,
		resim:  b.resim.Fork(),
		kind:   b.kind,
		cur:    b.cur,
		errCur: b.errCur,
		pos:    b.pos,
		edCur:  b.edCur,
		edWord: b.edWord,
		isFork: true,
	}
	f.allocNode()
	return f
}

// allocNode takes the per-node scratch of one view from the pools.
func (b *Batch) allocNode() {
	words := b.Eval.words
	b.flipBuf = wordops.Get(words)
	if b.kind == scoreER {
		b.errFlip = wordops.Get(words)
		return
	}
	b.flipped, b.flipFlat = allocPO(len(b.cur), words)
	if b.kind == scoreNMED {
		b.edDelta = wordops.Get(64 * words)
		b.known = wordops.Get(words)
		b.vals = wordops.Get(64)
	}
}

// Release returns the batch's buffers to the shared word pool; the base
// simulation stays with the arena. A fork releases only its private state;
// the root batch also releases the PO words and error data the forks share
// (so every fork must be released first). The Batch must not be used
// afterwards.
func (b *Batch) Release() {
	b.resim.Release()
	releasePO(b.flipped, b.flipFlat)
	releasePO(b.rows, b.rowsFlat)
	for _, s := range [][]uint64{b.flipBuf, b.errFlip, b.edDelta, b.known, b.vals} {
		wordops.Put(s) // a nil slice is ignored
	}
	if !b.isFork {
		releasePO(b.cur, b.curFlat)
		for _, s := range [][]uint64{b.errCur, b.pos, b.edCur, b.edWord} {
			wordops.Put(s)
		}
	}
	*b = Batch{}
}

// allocPO carves n rows (PO words, or Rows' candidate vectors) of `words`
// words each out of a single pooled block — one pool round-trip instead of
// n+1, which keeps Fork cheap enough that multi-worker ranking amortizes on
// small circuits.
func allocPO(n, words int) (rows [][]uint64, flat []uint64) {
	rows = wordops.GetVecsZero(n)
	flat = wordops.Get(n * words)
	for i := range rows {
		rows[i] = flat[i*words : (i+1)*words]
	}
	return rows, flat
}

func releasePO(rows [][]uint64, flat []uint64) {
	wordops.Put(flat)
	wordops.PutVecs(rows)
}

// Vectors returns the node value vectors of the current circuit on the
// evaluation patterns.
func (b *Batch) Vectors() *sim.Vectors { return b.vecs }

// CurrentError returns the error of the current circuit (before any
// candidate is applied).
func (b *Batch) CurrentError() float64 { return b.Eval.EvalPOWords(b.cur) }

// Rows returns k scratch rows of Vectors().Words words each, for the
// replacement vectors of the next Score call. They belong to the batch and
// stay valid until the next Rows call.
func (b *Batch) Rows(k int) [][]uint64 {
	words := b.vecs.Words
	if len(b.rows) < k {
		releasePO(b.rows, b.rowsFlat)
		b.rows, b.rowsFlat = allocPO(k, words)
	}
	return b.rows[:k]
}

// Score ranks the candidates at node n: news[i] is the value vector
// candidate i gives n. It returns each candidate's error, or +Inf for one
// whose error strictly exceeds the bound; the slice belongs to the batch
// and stays valid until the next Score call. Candidates are scored in
// order, each against the bound as it stands then, and each exact error
// lowers the bound. A nil bound is +Inf and is never lowered.
//
// Under a finite bound the node's cone is probed on its first probeWords
// words before the rest are walked, and an ER walk stops once the final
// POs prune every live candidate (see Batch); under +Inf nothing can be
// pruned, and the cone is walked at full width once.
//
//alsrac:hotpath
func (b *Batch) Score(n aig.Node, news [][]uint64, bound *Bound) []float64 {
	// errs[i] carries candidate i's partial sum until it is pruned (+Inf)
	// or its last word turns the sum into its error.
	words := b.vecs.Words
	b.errs = growFloats(b.errs, len(news))
	errs := b.errs
	clear(errs)

	old := b.vecs.Node(n)
	b.flipChanged(old, news)
	hi := words
	if words > probeWords && !math.IsInf(bound.Load(), 1) {
		hi = probeWords
	}
	for lo, live := 0, len(news); lo < words && live > 0; lo, hi = hi, words {
		if !b.walk(n, old, news, lo, hi, bound) {
			for i := range errs {
				errs[i] = math.Inf(1)
			}
			break
		}
		for i, nv := range news {
			if math.IsInf(errs[i], 1) {
				continue
			}
			sum, ok := b.score(old, nv, lo, hi, errs[i], bound.Load())
			switch {
			case !ok:
				errs[i] = math.Inf(1)
				live--
			case hi < words:
				errs[i] = sum
			default:
				errs[i] = b.Eval.value(sum)
				bound.Lower(errs[i])
			}
		}
	}
	return errs
}

// flipChanged sets flipBuf to old complemented on the patterns some
// candidate changes. Candidates read Y' nowhere else, and fewer flipped
// patterns die out sooner in the cone.
func (b *Batch) flipChanged(old []uint64, news [][]uint64) {
	for w := range b.flipBuf {
		var c uint64
		for _, nv := range news {
			c |= old[w] ^ nv[w]
		}
		b.flipBuf[w] = old[w] ^ c
	}
}

// walk resimulates words [lo, hi) of the cone of n with n's vector set to
// flipBuf, into the ER error mask errFlip or, for the other metrics, the
// flipped PO words. Under ER and a finite bound it stops at each PO
// driver, folds the POs the walk has passed into errFlip, and reports
// false, leaving the walk unfinished, once the partial mask prunes every
// candidate of news still live on the walked words.
//
//alsrac:hotpath
func (b *Batch) walk(n aig.Node, old []uint64, news [][]uint64, lo, hi int, bound *Bound) bool {
	r := b.resim
	r.Start(n, b.flipBuf, lo, hi)
	b.forget(lo, hi)
	if b.kind != scoreER {
		r.RunTo(sim.WalkEnd)
		r.POWordsInto(b.flipped)
		return true
	}
	exit := !math.IsInf(bound.Load(), 1)
	for j := 0; j < len(b.pos); {
		stop := sim.WalkEnd
		if exit {
			stop = aig.Lit(b.pos[j]>>32).Node() + 1
		}
		next := r.RunTo(stop)
		grew := false
		for ; j < len(b.pos); j++ {
			po := aig.Lit(b.pos[j] >> 32)
			if po.Node() >= next {
				break
			}
			grew = b.fold(int(uint32(b.pos[j])), r.Words(po.Node()), po.IsCompl(), lo, hi) || grew
		}
		if grew && j < len(b.pos) && b.allPruned(old, news, lo, hi, bound.Load()) {
			b.exits++
			return false
		}
	}
	return true
}

// forget drops the flipped error data of words [lo, hi), which a walk is
// about to rewrite.
func (b *Batch) forget(lo, hi int) {
	switch b.kind {
	case scoreER:
		clear(b.errFlip[lo:hi])
	case scoreNMED:
		clear(b.known[lo:hi])
	}
}

// fold adds PO o's flipped error bits on words [lo, hi) to errFlip, given
// the words of its driver on them (index 0 holds word lo) and whether the
// PO complements the driver, and reports whether any bit was new.
//
//alsrac:hotpath
func (b *Batch) fold(o int, driver []uint64, compl bool, lo, hi int) bool {
	e := b.Eval
	var inv, grew uint64
	if compl {
		inv = ^uint64(0)
	}
	golden := e.golden[o]
	for w := lo; w < hi; w++ {
		x := (driver[w-lo] ^ inv ^ golden[w]) & e.maskOf(w)
		grew |= x &^ b.errFlip[w]
		b.errFlip[w] |= x
	}
	return grew != 0
}

// allPruned reports whether the ER kernel prunes every live candidate on
// words [lo, hi) with errFlip as it stands. Before the walk ends errFlip
// holds only the final POs' bits, a subset of its final value, so each
// candidate's sum is then a lower bound on its exact one.
//
//alsrac:hotpath
func (b *Batch) allPruned(old []uint64, news [][]uint64, lo, hi int, bound float64) bool {
	for i, nv := range news {
		if math.IsInf(b.errs[i], 1) {
			continue
		}
		if _, ok := b.score(old, nv, lo, hi, b.errs[i], bound); ok {
			return false
		}
	}
	return true
}

// score adds the errors of one candidate on words [lo, hi) to its partial
// sum, and reports false once the partial error strictly exceeds bound.
// The ER and NMED sums are integers, exact in a float64 below 2^53 (see
// Evaluator.intSums).
//
//alsrac:hotpath
func (b *Batch) score(old, new []uint64, lo, hi int, sum, bound float64) (float64, bool) {
	e := b.Eval
	switch b.kind {
	case scoreER:
		s := uint64(sum)
		for w := lo; w < hi; w++ {
			c := old[w] ^ new[w]
			s += uint64(bits.OnesCount64(b.errCur[w]&^c | b.errFlip[w]&c))
			if e.value(float64(s)) > bound {
				return 0, false
			}
		}
		return float64(s), true
	case scoreNMED:
		s := uint64(sum)
		for w := lo; w < hi; w++ {
			c := (old[w] ^ new[w]) & e.maskOf(w)
			if need := c &^ b.known[w]; need != 0 {
				b.learnFlipped(w, need)
			}
			s += b.edWord[w]
			for ; c != 0; c &= c - 1 {
				s += b.edDelta[w*64+bits.TrailingZeros64(c)]
			}
			if e.value(float64(s)) > bound {
				return 0, false
			}
		}
		return float64(s), true
	}
	return e.flipSum(b.cur, b.flipped, old, new, lo, hi, sum, bound)
}

// learnFlipped computes the NMED edDelta of the patterns in need, a subset
// of word w's valid patterns: it reads their flipped output values off the
// flipped PO words and scores them against the golden values.
//
//alsrac:hotpath
func (b *Batch) learnFlipped(w int, need uint64) {
	e := b.Eval
	vals := b.vals[:64]
	for m := need; m != 0; m &= m - 1 {
		vals[bits.TrailingZeros64(m)] = 0
	}
	for o, row := range b.flipped {
		for word := row[w] & need; word != 0; word &= word - 1 {
			vals[bits.TrailingZeros64(word)] |= 1 << uint(o)
		}
	}
	for m := need; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		p := w*64 + i
		b.edDelta[p] = absDiff(vals[i], e.goldenVal[p]) - b.edCur[p]
	}
	b.known[w] |= need
}

// Bound is the pruning bound of a ranking round: the smallest exact error
// published so far, shared by every worker that ranks the round. A nil
// *Bound is +Inf and ignores Lower.
type Bound struct {
	bits atomic.Uint64 // math.Float64bits of the bound
}

// NewBound returns a bound at +Inf.
func NewBound() *Bound {
	b := &Bound{}
	b.bits.Store(math.Float64bits(math.Inf(1)))
	return b
}

// Load returns the current bound.
func (b *Bound) Load() float64 {
	if b == nil {
		return math.Inf(1)
	}
	return math.Float64frombits(b.bits.Load())
}

// Lower CAS-mins e into the bound. Errors are non-negative, so the loop
// converges; +Inf never lowers the bound.
func (b *Bound) Lower(e float64) {
	if b == nil {
		return
	}
	for {
		old := b.bits.Load()
		if e >= math.Float64frombits(old) {
			return
		}
		if b.bits.CompareAndSwap(old, math.Float64bits(e)) {
			return
		}
	}
}

// growFloats returns s resized to length n, reusing its storage when it is
// large enough. Contents are unspecified.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		//alsrac:alloc-ok amortized capacity growth; the scratch is reused by every later call
		return make([]float64, n)
	}
	return s[:n]
}
