package errest

import (
	"math"

	"repro/internal/aig"
	"repro/internal/sim"
	"repro/internal/wordops"
)

// Batch ranks candidate local approximate changes at single nodes using the
// batch estimation idea of Su et al. (DAC 2018): for a node v, the circuit
// is re-simulated ONCE with v's value vector complemented, which yields for
// every primary output the exact words Y' the circuit produces on the
// patterns where v flips. Any candidate that replaces v's vector by ṽ then
// costs only O(words·POs): on the patterns where ṽ differs from v the
// outputs take their flipped values Y', elsewhere the current values Y.
// This is exact — bit-parallel pattern independence means complementing the
// whole vector evaluates the single-pattern flip for all patterns at once,
// reconvergence included — and matches the accuracy of per-candidate
// resimulation, as the paper notes.
//
// A Batch ranks against a sim.Arena's simulation of the current circuit on
// the evaluation patterns, and borrows the arena's vectors, fanout index
// and an event queue through its sim.Resimulator: setting up a ranking
// round simulates nothing, and builds the fanout index only when the arena
// has none for its graph yet. A Batch is confined to one goroutine, but
// Fork returns additional views that share the (read-only) base simulation
// and index while owning their own re-simulation state and queue, so
// disjoint candidate subsets can be ranked concurrently.
type Batch struct {
	Eval *Evaluator

	g     *aig.Graph
	vecs  *sim.Vectors
	resim *sim.Resimulator

	cur      [][]uint64 // current circuit PO words Y (read-only after construction)
	curFlat  []uint64   // backing of cur, one pooled block
	flipped  [][]uint64 // PO words Y' with the prepared node complemented
	flipFlat []uint64   // backing of flipped
	flipBuf  []uint64

	prepared aig.Node
	isFork   bool
}

// NewBatch prepares batch estimation against the given evaluator (whose
// golden values come from the original circuit) over the arena's current
// simulation of its graph. The arena must be up to date, and the batch and
// every fork must be released before the arena's next Update, Rebind or
// Release.
func NewBatch(ev *Evaluator, arena *sim.Arena) *Batch {
	g, vecs := arena.Graph(), arena.Vectors()
	b := &Batch{
		Eval:     ev,
		g:        g,
		vecs:     vecs,
		resim:    sim.NewResimulator(arena),
		prepared: -1,
	}
	b.cur, b.curFlat = allocPO(g.NumPOs(), vecs.Words)
	b.flipped, b.flipFlat = allocPO(g.NumPOs(), vecs.Words)
	b.flipBuf = wordops.Get(vecs.Words)
	for i := range b.cur {
		vecs.LitInto(g.PO(i), b.cur[i])
	}
	return b
}

// Fork returns a Batch sharing the base simulation and current PO words
// with b but owning its own re-simulation state and scratch buffers, so it
// can rank candidates on another goroutine concurrently with b. Forks must
// be released before the root batch.
func (b *Batch) Fork() *Batch {
	f := &Batch{
		Eval:     b.Eval,
		g:        b.g,
		vecs:     b.vecs,
		resim:    b.resim.Fork(),
		cur:      b.cur,
		flipBuf:  wordops.Get(b.vecs.Words),
		prepared: -1,
		isFork:   true,
	}
	f.flipped, f.flipFlat = allocPO(b.g.NumPOs(), b.vecs.Words)
	return f
}

// Release returns the batch's buffers to the shared word pool; the base
// simulation stays with the arena. A fork releases only its private state;
// the root batch also releases the current PO words the forks share (so
// every fork must be released first). The Batch must not be used
// afterwards.
func (b *Batch) Release() {
	b.resim.Release()
	releasePO(b.flipped, b.flipFlat)
	wordops.Put(b.flipBuf)
	b.flipped, b.flipFlat, b.flipBuf = nil, nil, nil
	if !b.isFork {
		releasePO(b.cur, b.curFlat)
		b.cur, b.curFlat = nil, nil
	}
	b.vecs = nil
}

// allocPO carves n PO rows of `words` words each out of a single pooled
// block — one pool round-trip instead of n+1, which keeps Fork cheap enough
// that multi-worker ranking amortizes on small circuits.
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

// Prepare computes the flipped output words Y' for node n. It must be
// called before EvalCandidate for candidates at n.
func (b *Batch) Prepare(n aig.Node) {
	wordops.Not(b.flipBuf, b.vecs.Node(n))
	b.resim.Resimulate(n, b.flipBuf)
	b.resim.POWordsInto(b.flipped)
	b.prepared = n
}

// EvalCandidate returns the circuit error that would result from replacing
// the prepared node's value vector by newVec.
func (b *Batch) EvalCandidate(n aig.Node, newVec []uint64) float64 {
	return b.EvalCandidateBounded(n, newVec, math.Inf(1))
}

// EvalCandidateBounded is EvalCandidate with branch-and-bound pruning:
// candidates whose error strictly exceeds bound return +Inf, with the
// metric accumulation aborted at the first word that passes the bound. A
// candidate at least as good as the bound always gets its exact error (see
// Evaluator.EvalPOWordsBounded for the monotonicity argument).
func (b *Batch) EvalCandidateBounded(n aig.Node, newVec []uint64, bound float64) float64 {
	if n != b.prepared {
		panic("errest: EvalCandidate called without Prepare")
	}
	old := b.vecs.Node(n)
	return b.Eval.EvalFlipBounded(b.cur, b.flipped, old, newVec, bound)
}
