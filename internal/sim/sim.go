// Package sim implements 64-way bit-parallel logic simulation over AIGs.
//
// A simulation run evaluates the circuit on 64·W input patterns at once,
// where W is the word count: every node carries a []uint64 whose bit b of
// word w is the node's value under pattern 64·w+b. This is the workhorse
// behind ALSRAC's approximate care sets, its feasibility checks, and the
// batch error estimator.
//
// Word columns are independent under bit-parallel evaluation, so Simulate
// can shard the [0, Words) range across worker goroutines (see
// SimulateWorkers): every worker evaluates the full topological order over
// its own word chunk, writing disjoint sub-ranges of every node vector.
// The result is bitwise identical for every worker count.
package sim

import (
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/aig"
	"repro/internal/wordops"
)

// Patterns holds input stimuli: In[i] is the value word slice of primary
// input i, all of length Words. Valid is the number of meaningful patterns;
// consumers that look at individual patterns (care-set construction,
// feasibility checks) must ignore bit positions at or beyond Valid. Word-
// granular consumers (the simulator itself) may process whole words.
type Patterns struct {
	Words int
	Valid int
	In    [][]uint64
}

// NumPatterns returns the number of valid input patterns.
func (p *Patterns) NumPatterns() int { return p.Valid }

// Uniform returns uniformly random patterns for nPIs inputs, seeded
// deterministically.
func Uniform(nPIs, words int, seed int64) *Patterns {
	rng := rand.New(rand.NewSource(seed))
	p := &Patterns{Words: words, Valid: 64 * words, In: make([][]uint64, nPIs)}
	for i := range p.In {
		w := make([]uint64, words)
		for j := range w {
			w[j] = rng.Uint64()
		}
		p.In[i] = w
	}
	return p
}

// UniformN returns exactly n uniformly random patterns (the backing words
// are rounded up to a multiple of 64; Valid is set to n). This supports the
// paper's care-set simulation rounds such as N=32.
func UniformN(nPIs, n int, seed int64) *Patterns {
	words := (n + 63) / 64
	if words == 0 {
		words = 1
	}
	p := Uniform(nPIs, words, seed)
	p.Valid = n
	return p
}

// Biased returns patterns where input i is 1 with probability probs[i],
// independently per pattern. It implements the paper's "user-specified
// distribution" knob for non-uniform primary inputs.
func Biased(probs []float64, words int, seed int64) *Patterns {
	rng := rand.New(rand.NewSource(seed))
	p := &Patterns{Words: words, Valid: 64 * words, In: make([][]uint64, len(probs))}
	for i, prob := range probs {
		w := make([]uint64, words)
		for j := range w {
			var word uint64
			for b := 0; b < 64; b++ {
				if rng.Float64() < prob {
					word |= 1 << uint(b)
				}
			}
			w[j] = word
		}
		p.In[i] = w
	}
	return p
}

// Exhaustive returns all 2^nPIs input patterns (nPIs ≤ 20). When nPIs < 6
// the 64-pattern word cycles through the minterms repeatedly, which keeps
// every pattern equally weighted, so averages over the pattern set are still
// exact expectations under the uniform distribution.
func Exhaustive(nPIs int) *Patterns {
	if nPIs > 20 {
		panic("sim: Exhaustive limited to 20 inputs")
	}
	words := 1
	if nPIs > 6 {
		words = 1 << (nPIs - 6)
	}
	p := &Patterns{Words: words, Valid: 64 * words, In: make([][]uint64, nPIs)}
	for i := 0; i < nPIs; i++ {
		w := make([]uint64, words)
		if i < 6 {
			// Repeating intra-word mask.
			var mask uint64
			period := uint(1) << uint(i)
			for b := uint(0); b < 64; b++ {
				if b&period != 0 {
					mask |= 1 << b
				}
			}
			for j := range w {
				w[j] = mask
			}
		} else {
			block := 1 << (i - 6)
			for j := range w {
				if j&block != 0 {
					w[j] = ^uint64(0)
				}
			}
		}
		p.In[i] = w
	}
	return p
}

// FromFunc builds patterns by calling fill(i, w) for every input, allowing
// arbitrary (e.g. correlated) stimulus distributions.
func FromFunc(nPIs, words int, fill func(pi int, w []uint64)) *Patterns {
	p := &Patterns{Words: words, Valid: 64 * words, In: make([][]uint64, nPIs)}
	for i := range p.In {
		w := make([]uint64, words)
		fill(i, w)
		p.In[i] = w
	}
	return p
}

// Workers resolves a worker-count knob against the number of shardable work
// units: n ≤ 0 means GOMAXPROCS, and the result never exceeds units (nor
// drops below 1).
func Workers(n, units int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > units {
		n = units
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Vectors holds the simulated value words of every node of a graph.
type Vectors struct {
	Words int
	flat  []uint64
}

// NewVectors returns a Vectors able to hold vectors of `words` words for
// `nodes` nodes. The backing array is drawn from the shared word pool; the
// constant node's words are zeroed, all other node vectors are expected to
// be fully written by simulation before being read.
func NewVectors(nodes, words int) *Vectors {
	flat := wordops.Get(nodes * words)
	for i := 0; i < words; i++ {
		flat[i] = 0
	}
	return &Vectors{Words: words, flat: flat}
}

// Release returns the backing array to the shared word pool. The Vectors
// (and every slice previously obtained from Node) must not be used
// afterwards. Release on an already-released or nil Vectors is a no-op.
func (v *Vectors) Release() {
	if v == nil || v.flat == nil {
		return
	}
	wordops.Put(v.flat)
	v.flat = nil
}

// Node returns the value words of node n (a live sub-slice, not a copy).
func (v *Vectors) Node(n aig.Node) []uint64 {
	return v.flat[int(n)*v.Words : (int(n)+1)*v.Words]
}

// LitInto writes the value words of literal l into dst (complementing when
// needed) and returns dst.
func (v *Vectors) LitInto(l aig.Lit, dst []uint64) []uint64 {
	wordops.CopyOrNot(dst, v.Node(l.Node()), l.IsCompl())
	return dst
}

// LitBit returns the value of literal l under pattern index p.
func (v *Vectors) LitBit(l aig.Lit, p int) bool {
	bit := v.Node(l.Node())[p>>6]>>(uint(p)&63)&1 == 1
	return bit != l.IsCompl()
}

// LitWords returns the raw value words of literal l's node together with
// the complement mask to XOR them with (all ones for a complemented
// literal, zero otherwise). Word-level kernels consume literals through
// this accessor without copying or materializing the complement.
func (v *Vectors) LitWords(l aig.Lit) (ws []uint64, inv uint64) {
	ws = v.Node(l.Node())
	if l.IsCompl() {
		inv = ^uint64(0)
	}
	return ws, inv
}

// Simulate evaluates graph g on the given patterns and returns the value
// vectors of every node. The pattern input count must match g.NumPIs().
// It runs on the calling goroutine; see SimulateWorkers for the sharded
// version (the results are bitwise identical).
func Simulate(g *aig.Graph, p *Patterns) *Vectors { return SimulateWorkers(g, p, 1) }

// minSimWorkPerWorker is the minimum number of word-level AND evaluations
// (NumAnds × words) each extra worker goroutine must bring before fanning
// out pays for its spawn/join and cache traffic. Below it, small
// simulations (a few hundred gates × a few hundred words) ran measurably
// SLOWER with more workers; large AIGs are far above it and keep full
// parallelism.
const minSimWorkPerWorker = 1 << 17

// simWorkers resolves the worker count for a simulation of ands AND nodes
// over W words: the caller's knob, bounded by the word count and by the
// total work per the minSimWorkPerWorker floor.
func simWorkers(workers, ands, W int) int {
	workers = Workers(workers, W)
	if maxByWork := ands * W / minSimWorkPerWorker; workers > maxByWork {
		workers = maxByWork
		if workers < 1 {
			workers = 1
		}
	}
	return workers
}

// shardBounds writes the word-range shard descriptors for the given worker
// count into a pooled array: worker w owns [bounds[w], bounds[w+1]). The
// caller returns the array with wordops.PutI32. Reusing one pooled
// descriptor array keeps the fan-out path off the allocator instead of
// materializing per-worker range pairs each call.
func shardBounds(workers, W int) []int32 {
	bounds := wordops.GetI32(workers + 1)
	for w := 0; w <= workers; w++ {
		bounds[w] = int32(w * W / workers)
	}
	return bounds
}

// SimulateWorkers evaluates graph g on the given patterns with the given
// number of worker goroutines (0 = GOMAXPROCS). The word range [0, Words)
// is split into one chunk per worker; each worker evaluates the full
// topological order over its chunk, so the result is bitwise identical to
// the sequential evaluation regardless of the worker count. Fan-out is
// skipped entirely when the simulation is too small to amortize it.
func SimulateWorkers(g *aig.Graph, p *Patterns, workers int) *Vectors {
	if len(p.In) != g.NumPIs() {
		panic("sim: pattern input count does not match graph")
	}
	W := p.Words
	v := NewVectors(g.NumNodes(), W)
	for i := 0; i < g.NumPIs(); i++ {
		copy(v.Node(g.PI(i)), p.In[i])
	}
	workers = simWorkers(workers, g.NumAnds(), W)
	if workers <= 1 {
		simulateRange(g, v, 0, W)
		return v
	}
	bounds := shardBounds(workers, W)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := bounds[w], bounds[w+1]
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			simulateRange(g, v, lo, hi)
		}(int(lo), int(hi))
	}
	wg.Wait()
	wordops.PutI32(bounds)
	return v
}

// simulateRange evaluates every AND node over the word sub-range [lo, hi).
//
//alsrac:hotpath
func simulateRange(g *aig.Graph, v *Vectors, lo, hi int) {
	for n := aig.Node(1); int(n) < g.NumNodes(); n++ {
		if !g.IsAnd(n) {
			continue
		}
		f0, f1 := g.Fanin0(n), g.Fanin1(n)
		wordops.And(v.Node(n)[lo:hi],
			v.Node(f0.Node())[lo:hi], v.Node(f1.Node())[lo:hi],
			f0.IsCompl(), f1.IsCompl())
	}
}

// POWords collects the primary-output value words of a simulated graph into
// a freshly allocated [nPOs][Words] slice.
func POWords(g *aig.Graph, v *Vectors) [][]uint64 {
	out := make([][]uint64, g.NumPOs())
	for i := range out {
		out[i] = v.LitInto(g.PO(i), make([]uint64, v.Words))
	}
	return out
}

// Resimulator incrementally re-simulates the transitive fanout of a single
// node whose value vector has been replaced, leaving the base Vectors
// untouched. It is the core primitive of the batch error estimator: one
// Resimulate call per (node, replacement-vector) pair yields the exact
// primary-output words the circuit would produce.
//
// A Resimulator is created from an Arena and borrows the arena's vectors,
// fanout index and one of its event queues, so Resimulate walks the actual
// transitive fanout of the changed node instead of scanning every node
// above it, and a Resimulator keeps no adjacency of its own.
type Resimulator struct {
	arena *Arena
	g     *aig.Graph
	base  *Vectors
	queue aig.EventQueue // lent by the arena until Release

	// The overlay of the last walk, over words [lo, hi): touched[k] is the
	// k-th node the walk gave new words (the replaced node first), slot[m]
	// is k+1 for it and 0 for a node that kept its base words, and its
	// words are the k-th run of hi−lo words in words.
	lo, hi  int
	slot    []int32
	touched []int32
	words   []uint64

	// Forks run concurrently and are allocated back to back. The pad keeps
	// every field above, which the walk rewrites on each push and pop, off
	// the cache lines of the next Resimulator's fields.
	_ [64]byte
}

// NewResimulator prepares incremental re-simulation over the arena's
// current simulation of its graph. The arena must be up to date (Update
// after every in-place edit), and the Resimulator and its Forks must be
// released before the arena's next Update, Rebind or Release.
func NewResimulator(a *Arena) *Resimulator {
	a.fanouts() // built here, before any Fork can read it concurrently
	return newResimulator(a)
}

// Fork returns a Resimulator over the same arena state as r with its own
// overlay and event queue, so it can run on another goroutine concurrently
// with r (the shared state is only read).
func (r *Resimulator) Fork() *Resimulator { return newResimulator(r.arena) }

func newResimulator(a *Arena) *Resimulator {
	n := a.g.NumNodes()
	r := &Resimulator{
		arena: a, g: a.g, base: a.vecs, queue: a.borrowQueue(),
		slot:    wordops.GetI32(n),
		touched: wordops.GetI32(n)[:0],
	}
	clear(r.slot)
	r.queue.Reset(n)
	return r
}

// Words returns node n's words [lo, hi) of the last Resimulate call under
// its overlay; index 0 holds word lo. The view is valid until the next
// Resimulate call.
//
//alsrac:hotpath
func (r *Resimulator) Words(n aig.Node) []uint64 {
	if k := int(r.slot[n]); k != 0 {
		w := r.hi - r.lo
		return r.words[(k-1)*w : k*w]
	}
	return r.base.Node(n)[r.lo:r.hi]
}

// Resimulate replaces words [lo, hi) of node n's value vector with those of
// newVec and recomputes the same words of n's transitive fanout. Word
// columns are independent, so the walk is exact on its range; it prunes a
// node whose words in the range equal the base, as event-driven simulation
// does. Words outside the range are not computed. Read the result through
// Words and POWordsInto until the next Resimulate call.
//
//alsrac:hotpath
func (r *Resimulator) Resimulate(n aig.Node, newVec []uint64, lo, hi int) {
	for _, m := range r.touched {
		r.slot[m] = 0
	}
	r.touched = r.touched[:0]
	r.lo, r.hi = lo, hi
	copy(r.next(), newVec[lo:hi])
	r.keep(n)
	fo := &r.arena.fo
	r.queue.PushFanouts(fo, n)
	for r.queue.Len() > 0 {
		m := r.queue.Pop()
		f0, f1 := r.g.Fanin0(m), r.g.Fanin1(m)
		out := r.next()
		if wordops.AndDiff(out, r.Words(f0.Node()), r.Words(f1.Node()), r.base.Node(m)[lo:hi],
			f0.IsCompl(), f1.IsCompl()) {
			r.keep(m)
			r.queue.PushFanouts(fo, m)
		}
	}
}

// next returns the words run of the next touched node, growing the overlay
// storage through the word pool when it is full.
//
//alsrac:hotpath
func (r *Resimulator) next() []uint64 {
	w := r.hi - r.lo
	k := len(r.touched)
	if (k+1)*w > len(r.words) {
		grown := wordops.Get(max(2*len(r.words), (k+1)*w, 1024))
		copy(grown, r.words[:k*w])
		wordops.Put(r.words)
		r.words = grown
	}
	return r.words[k*w : (k+1)*w]
}

// keep records the words run next returned as node m's.
func (r *Resimulator) keep(m aig.Node) {
	r.touched = append(r.touched, int32(m))
	r.slot[m] = int32(len(r.touched))
}

// POWordsInto writes words [lo, hi) of the primary outputs of the last
// Resimulate call into out[i][lo:hi] for PO i.
func (r *Resimulator) POWordsInto(out [][]uint64) {
	for i := 0; i < r.g.NumPOs(); i++ {
		po := r.g.PO(i)
		wordops.CopyOrNot(out[i][r.lo:r.hi], r.Words(po.Node()), po.IsCompl())
	}
}

// Release returns the Resimulator's overlay storage to the shared pools and
// its event queue to the arena. The Resimulator must not be used
// afterwards.
func (r *Resimulator) Release() {
	wordops.PutI32(r.slot)
	wordops.PutI32(r.touched)
	wordops.Put(r.words)
	r.arena.returnQueue(r.queue)
	r.slot, r.touched, r.words, r.queue = nil, nil, nil, aig.EventQueue{}
}
