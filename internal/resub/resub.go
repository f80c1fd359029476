// Package resub implements ALSRAC's local approximate change (LAC):
// approximate resubstitution with an approximate care set.
//
// Given a node V and a set of divisor signals, the care set of V at the
// divisors is approximated by logic simulation with a small number of
// random patterns (Section III-A of the paper). A divisor set is feasible
// when, on the simulated patterns, equal divisor valuations always imply
// equal values of V — the sampled version of the classical resubstitution
// theorem (Theorem 1). For a feasible set, the replacement function is an
// irredundant sum-of-products computed over the sampled truth table, with
// all unseen divisor patterns as don't-cares (Section III-B3).
//
// Candidate generation (Algorithm 2) has one driver, Scan: a sharded scan
// over the live AND nodes with stale-mask reuse of the previous candidate
// list, which asks a per-worker Source for each root's divisor pool and
// gain base. Generate supplies the paper's source — the node's TFI cone in
// level order (Algorithm 1) — and package window a windowed one.
package resub

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/aig"
	"repro/internal/espresso"
	"repro/internal/sim"
	"repro/internal/tt"
	"repro/internal/wordops"
)

// Config controls candidate generation (Algorithm 2 of the paper).
type Config struct {
	// MaxLACsPerNode is the paper's parameter L: at most this many feasible
	// candidates are produced per node. The paper uses L=1.
	MaxLACsPerNode int
	// MaxReplaceTries caps how many TFI-cone nodes are tried as the
	// replacement divisor u per removed fanin. 0 means the whole cone, as
	// in the paper; benches set a cap for very large circuits.
	MaxReplaceTries int
	// MaxDivisors caps the divisor-set size. The paper's AIG flow uses 2
	// (Algorithm 1); setting 3 or more enables the triple-divisor
	// extension, which scans bounded pairs of replacement candidates.
	MaxDivisors int
	// DescendingLevels scans the TFI cone from the highest logic level
	// down (divisors near the node first) instead of the paper's ascending
	// order. Ablation knob.
	DescendingLevels bool
	// UseEspresso derives covers with the Espresso-style minimizer of
	// package espresso instead of plain Minato ISOP, matching the paper's
	// tooling. For the ≤2-divisor functions of the AIG flow the two nearly
	// always coincide; the knob matters for wider divisor sets.
	UseEspresso bool
}

// DefaultConfig mirrors the paper's experiment setup: L=1, unbounded cone
// scan, at most 2 divisors (the AIG flow of Section IV).
func DefaultConfig() Config {
	return Config{MaxLACsPerNode: 1, MaxReplaceTries: 0, MaxDivisors: 2}
}

// LAC is a candidate local approximate change: replace node Node by the
// sum-of-products Cover evaluated over the Divisors (Cover variable i is
// the value of Divisors[i]).
type LAC struct {
	Node     aig.Node
	Divisors []aig.Lit
	// Cover may be shared with other LACs and with the minimizer's
	// two-divisor table (Minimizer.Cover): every reader — BuildLit,
	// EvalVec's EvalWords, aig.SOPCost and String — only reads it, and
	// nothing may write to it.
	Cover tt.Cover

	// Gain is the structural gain estimate in AND nodes: the node's MFFC
	// size minus the cost of materializing the cover.
	Gain int
	// Err is the estimated circuit error after applying the LAC; filled by
	// the flow after batch estimation.
	Err float64
}

// String renders the LAC for logs.
func (l *LAC) String() string {
	return fmt.Sprintf("resub n%d <- %v over %v (gain %d, err %.4g)",
		l.Node, l.Cover, l.Divisors, l.Gain, l.Err)
}

// BuildCover checks the feasibility of the divisors for target on the first
// valid simulated patterns and, when feasible, returns the ISOP cover of
// the sampled incompletely specified function. ok is false when two
// patterns agree on every divisor but disagree on the target (Theorem 1
// violated on the sample).
func BuildCover(vecs *sim.Vectors, divs []aig.Lit, target aig.Lit, valid int) (tt.Cover, bool) {
	return BuildCoverWith(vecs, divs, target, valid, ISOP)
}

// wordCoverMaxVars is the widest divisor set handled by the word-parallel
// cover kernel: wordops.CoverScan packs the 2^k minterm masks into uint64s.
const wordCoverMaxVars = 6

// BuildCoverWith is BuildCover with an explicit two-level minimizer.
//
// For up to wordCoverMaxVars divisors — every set the generator produces —
// the sampled truth table is extracted straight from the 64-way simulation
// words: wordops.CoverScan ANDs the (possibly complemented) divisor words
// into the 2^k divisor-minterm masks, detects infeasibility as a mask
// intersecting both the target and its complement, and reads the onset and
// care bits off the surviving masks; Minimizer.Cover turns them into the
// cover. Infeasible sets are rejected without allocating. Wider sets fall
// back to the per-pattern reference loop.
func BuildCoverWith(vecs *sim.Vectors, divs []aig.Lit, target aig.Lit, valid int,
	m Minimizer) (tt.Cover, bool) {

	k := len(divs)
	if k > tt.MaxVars {
		return nil, false
	}
	if k > wordCoverMaxVars {
		return buildCoverPerPattern(vecs, divs, target, valid, minimizers[m])
	}
	var dw [wordCoverMaxVars][]uint64
	var dinv [wordCoverMaxVars]uint64
	for j, d := range divs {
		dw[j], dinv[j] = vecs.LitWords(d)
	}
	tgt, tinv := vecs.LitWords(target)
	on, care, ok := wordops.CoverScan(dw[:k], dinv[:k], tgt, tinv, valid)
	if !ok {
		return nil, false
	}
	return m.Cover(k, on, care), true
}

// Minimizer names the two-level minimizer that turns the sampled function
// of a feasible divisor set into a cover.
type Minimizer uint8

const (
	// ISOP is Minato–Morreale ISOP (tt.ISOP), the default.
	ISOP Minimizer = iota
	// Espresso is the Espresso-style minimizer (espresso.Minimize),
	// selected by Config.UseEspresso.
	Espresso
)

// minimizers holds each Minimizer's function.
var minimizers = [...]func(on, dc tt.Table) tt.Cover{ISOP: tt.ISOP, Espresso: espresso.Minimize}

// tableMaxVars is the widest divisor set whose cover comes from a table: a
// set of k ≤ 2 divisors has a 2^k-bit onset inside a 2^k-bit care mask, so
// 4 + 16 + 256 (onset, care) pairs cover every such function.
const tableMaxVars = 2

// coverTable holds one minimizer's cover of every function of at most
// tableMaxVars divisors: entry [k][care<<2^k | on] for on ⊆ care.
type coverTable [tableMaxVars + 1][]tt.Cover

// coverTables holds each Minimizer's table, filled on first use with that
// minimizer, so a table entry is exactly the cover the minimizer returns.
var coverTables = [...]func() *coverTable{
	ISOP:     sync.OnceValue(func() *coverTable { return newCoverTable(ISOP) }),
	Espresso: sync.OnceValue(func() *coverTable { return newCoverTable(Espresso) }),
}

func newCoverTable(m Minimizer) *coverTable {
	t := new(coverTable)
	for k := range t {
		bits := uint(1) << k
		t[k] = make([]tt.Cover, 1<<(2*bits))
		for i := range t[k] {
			on, care := uint64(i)&(1<<bits-1), uint64(i)>>bits
			if on&^care == 0 {
				// Clipped, so an append by any holder reallocates.
				t[k][i] = slices.Clip(minimizers[m](tt.FromOnCare(k, on, care)))
			}
		}
	}
	return t
}

// Cover returns the minimized cover of the k-variable function whose
// observed minterms are care and whose onset is on ⊆ care (the masks
// wordops.CoverScan returns); every other minterm is a don't-care. For
// k ≤ 2 the cover comes from the minimizer's table and is shared: the
// caller must not modify it.
func (m Minimizer) Cover(k int, on, care uint64) tt.Cover {
	if k <= tableMaxVars {
		return coverTables[m]()[k][care<<(1<<k)|on]
	}
	return minimizers[m](tt.FromOnCare(k, on, care))
}

// buildCoverPerPattern is the per-pattern reference implementation of
// BuildCoverWith: one bit probe per (pattern, divisor). It remains the
// specification the word-parallel kernel is property-tested against, and
// the fallback for divisor sets wider than wordCoverMaxVars.
func buildCoverPerPattern(vecs *sim.Vectors, divs []aig.Lit, target aig.Lit, valid int,
	minimize func(on, dc tt.Table) tt.Cover) (tt.Cover, bool) {

	k := len(divs)
	onset := tt.New(k)
	care := tt.New(k)
	for p := 0; p < valid; p++ {
		key := 0
		for j, d := range divs {
			if vecs.LitBit(d, p) {
				key |= 1 << uint(j)
			}
		}
		v := vecs.LitBit(target, p)
		if care.Get(key) {
			if onset.Get(key) != v {
				return nil, false
			}
			continue
		}
		care.Set(key, true)
		if v {
			onset.Set(key, true)
		}
	}
	return minimize(onset, care.Not()), true
}

// BuildLit materializes the LAC's cover in graph g and returns the literal
// of the new function. The graph gains nodes; callers normally follow with
// aig.Graph.CopyWith to substitute and sweep.
func (l *LAC) BuildLit(g *aig.Graph) aig.Lit { return g.SOP(l.Cover, l.Divisors) }

// Apply substitutes the LAC into g and returns the swept result. g itself
// gains scratch nodes but is otherwise unchanged.
func (l *LAC) Apply(g *aig.Graph) *aig.Graph {
	lit := l.BuildLit(g)
	return g.CopyWith(map[aig.Node]aig.Lit{l.Node: lit})
}

// ApplyInPlace commits the LAC into g itself: the replacement cover is
// materialized over the divisors and every reference to Node is rewired
// with ReplaceNode, which preserves the ids of untouched logic and frees
// the change's MFFC for slot recycling. Cover terms that strash-fold during
// construction can strand scratch nodes; the trailing garbage sweep frees
// them, so the live-node set matches Apply's swept result. When touched is
// non-nil it accumulates every node whose structure or reference count
// changed — together with an epoch snapshot taken before this call it seeds
// Graph.StaleClosure, the invalidation mask Scan consumes.
func (l *LAC) ApplyInPlace(g *aig.Graph, touched *[]aig.Node) {
	g.ReplaceNode(l.Node, l.BuildLit(g), touched)
	g.CollectGarbage(touched)
}

// EvalVec evaluates the LAC's new function on the divisor value vectors,
// writing the node's replacement vector into out. Plain divisors alias the
// value vectors directly and complemented ones use pooled scratch, so
// steady-state calls do not allocate.
func (l *LAC) EvalVec(vecs *sim.Vectors, out []uint64) {
	var ins [tt.MaxVars][]uint64
	var owned [tt.MaxVars]bool
	for i, d := range l.Divisors {
		if d.IsCompl() {
			buf := wordops.Get(vecs.Words)
			wordops.Not(buf, vecs.Node(d.Node()))
			ins[i], owned[i] = buf, true
		} else {
			ins[i] = vecs.Node(d.Node())
		}
	}
	l.Cover.EvalWords(ins[:len(l.Divisors)], vecs.Words, out)
	for i := range l.Divisors {
		if owned[i] {
			wordops.Put(ins[i])
		}
	}
}

// Source supplies the divisor pool of each root the candidate scan visits.
// Pool returns root v's divisor pool (candidate nodes in scan order) and its
// structural gain base mffc, or ok false to skip v. refs is the calling
// worker's mutable copy of the graph's reference counts: Pool may change it
// but must restore it before returning. The result must be a pure function
// of the graph and the root — independent of any earlier call — because
// Scan shards roots across workers and keeps the cached entries of roots the
// stale mask spares. A Source is single-goroutine scratch; Scan asks for one
// per worker.
type Source interface {
	Pool(v aig.Node, refs []int32) (pool []aig.Node, mffc int, ok bool)
}

// Generate is Scan over the paper's divisor source (Algorithm 1): each
// root's full TFI cone in level order, with its full MFFC size as the gain
// base.
func Generate(g *aig.Graph, vecs *sim.Vectors, valid int, cfg Config, workers int,
	stale []bool, cached []LAC) []LAC {

	levels := g.Levels()
	order, lstart := g.LevelOrder(levels)
	return Scan(g, vecs, valid, cfg, workers, stale, cached, func() Source {
		return &coneSource{g: g, desc: cfg.DescendingLevels,
			levels: levels, order: order, lstart: lstart, marker: aig.NewConeMarker(g)}
	})
}

// Scan produces the LAC candidate set of Algorithm 2: for every root, the
// divisor sets drawn from the pool its Source returns are checked for
// feasibility on the valid patterns of vecs, and feasible ones yield
// ISOP-based candidates. Candidates whose new structure would be larger than
// the logic they free are dropped — they cannot shrink the circuit.
// Zero-gain candidates are kept: exchanging a function for an equally sized
// one over more distant divisors regularly unlocks sharing for the follow-up
// optimization pass. Candidates come in ascending node order.
//
// A nil stale mask or nil cache scans every live AND node. Otherwise cached
// is the previous candidate list (as Scan returned it) and only the nodes
// stale flags are rescanned; every other live AND node keeps its cached
// entries verbatim. Nodes at or beyond len(stale) are stale (freshly grown
// slots). The result equals a full scan whenever the mask covers every node
// whose pool, gain base or value words may have changed, which core's
// dirty-TFO closure does by construction: a pool, its level order and its
// MFFC are functions of the root's TFI — structure, logic levels, value
// words and reference counts.
//
// Roots are sharded across worker goroutines (0 = GOMAXPROCS). Each worker
// owns a Source from newSource and a private copy of the reference counts,
// claims chunks of chunkRoots roots from an atomic cursor, and the chunk
// outputs are concatenated in root order, so the candidate list is identical
// for every worker count.
func Scan(g *aig.Graph, vecs *sim.Vectors, valid int, cfg Config, workers int,
	stale []bool, cached []LAC, newSource func() Source) []LAC {

	reuse := stale != nil && cached != nil
	isStale := func(v aig.Node) bool {
		return int(v) >= len(stale) || stale[v]
	}
	var roots []aig.Node
	for v := aig.Node(1); int(v) < g.NumNodes(); v++ {
		if g.IsAnd(v) && (!reuse || isStale(v)) {
			roots = append(roots, v)
		}
	}
	fresh := scanRoots(g, vecs, valid, cfg, workers, roots, newSource)
	if !reuse {
		return fresh
	}

	// Merge in ascending node order: stale nodes take their fresh entries,
	// the others their cached ones; entries of dead nodes are dropped.
	out := make([]LAC, 0, len(cached)+len(fresh))
	ci, fi := 0, 0
	for v := aig.Node(1); int(v) < g.NumNodes(); v++ {
		if !g.IsAnd(v) {
			continue
		}
		for ci < len(cached) && cached[ci].Node < v {
			ci++
		}
		if isStale(v) {
			for fi < len(fresh) && fresh[fi].Node == v {
				out = append(out, fresh[fi])
				fi++
			}
			continue
		}
		for ci < len(cached) && cached[ci].Node == v {
			out = append(out, cached[ci])
			ci++
		}
	}
	return out
}

// chunkRoots is how many consecutive roots a worker claims at a time. Late
// roots have larger TFI cones, so fixed per-worker halves would imbalance
// badly; the output does not depend on the chunk size.
const chunkRoots = 16

// scanRoots runs the per-root scan over an explicit, ascending root list.
func scanRoots(g *aig.Graph, vecs *sim.Vectors, valid int, cfg Config, workers int,
	roots []aig.Node, newSource func() Source) []LAC {

	refs := g.RefCounts()
	if workers = sim.Workers(workers, len(roots)); workers <= 1 {
		// Every Pool call restores the counts, so the one array is lent to
		// the one source.
		return newGenState(g, vecs, valid, cfg, newSource(), refs).scan(roots)
	}

	nChunks := (len(roots) + chunkRoots - 1) / chunkRoots
	results := make([][]LAC, nChunks)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := newGenState(g, vecs, valid, cfg, newSource(), append([]int32(nil), refs...))
			for {
				c := int(next.Add(1)) - 1
				if c >= nChunks {
					return
				}
				lo := c * chunkRoots
				results[c] = st.scan(roots[lo:min(lo+chunkRoots, len(roots))])
			}
		}()
	}
	wg.Wait()
	return slices.Concat(results...)
}

// genState is the per-worker scratch of the candidate scan. The graph and
// the value vectors are shared read-only; the source, the reference counts,
// the divisor buffers and the word test's masks are private, so the
// per-root loop allocates only when a feasible candidate is emitted.
type genState struct {
	g     *aig.Graph
	vecs  *sim.Vectors
	valid int
	cfg   Config
	m     Minimizer

	src    Source
	refs   []int32
	tried  []aig.Node // scanned replacement candidates, reused for triples
	divBuf [3]aig.Lit
	wt     wordTest
}

func newGenState(g *aig.Graph, vecs *sim.Vectors, valid int, cfg Config,
	src Source, refs []int32) *genState {

	m := ISOP
	if cfg.UseEspresso {
		m = Espresso
	}
	return &genState{
		g: g, vecs: vecs, valid: valid, cfg: cfg, m: m,
		src: src, refs: refs, wt: newWordTest(valid),
	}
}

// scan appends the candidates of every root in order.
func (s *genState) scan(roots []aig.Node) []LAC {
	var lacs []LAC
	for _, v := range roots {
		if pool, mffc, ok := s.src.Pool(v, s.refs); ok {
			lacs = s.scanPool(lacs, v, pool, mffc)
		}
	}
	return lacs
}

// coneSource is the paper's divisor source (Algorithm 1): the pool is the
// root's full TFI cone sorted by logic level, the gain base its full MFFC
// size. The graph and its level order are shared read-only; the marker and
// the cone buffer are private.
type coneSource struct {
	g      *aig.Graph
	desc   bool // Config.DescendingLevels
	levels []int32
	order  []aig.Node // nodes sorted by (level, id), CSR per level
	lstart []int32
	marker *aig.ConeMarker
	cone   []aig.Node
}

// Pool implements Source.
func (s *coneSource) Pool(v aig.Node, refs []int32) ([]aig.Node, int, bool) {
	mffc := s.g.MFFCSize(v, refs, nil)
	s.coneInLevelOrder(v)
	return s.cone, mffc, true
}

// coneInLevelOrder fills s.cone with the TFI cone of v in the configured
// level order: (level, id) ascending, or descending levels with ascending
// ids within a level — the exact order the previous stable sort produced.
// Only the level buckets up to v's own level are visited.
//
//alsrac:hotpath
func (s *coneSource) coneInLevelOrder(v aig.Node) {
	s.marker.MarkTFI(s.g, v)
	s.cone = s.cone[:0]
	vl := int(s.levels[v])
	if s.desc {
		for lev := vl; lev >= 0; lev-- {
			for _, u := range s.order[s.lstart[lev]:s.lstart[lev+1]] {
				if s.marker.InCone(u) {
					s.cone = append(s.cone, u)
				}
			}
		}
	} else {
		for lev := 0; lev <= vl; lev++ {
			for _, u := range s.order[s.lstart[lev]:s.lstart[lev+1]] {
				if s.marker.InCone(u) {
					s.cone = append(s.cone, u)
				}
			}
		}
	}
}

// scanPool runs the divisor-set scan of Algorithm 2 for node v over its
// divisor pool (entries equal to v, v's fanins or the constant node are
// skipped) with the structural gain base mffc. It is the one kernel of
// every Source: the cone source (pool = full TFI cone, mffc = full MFFC)
// and package window's (pool = window nodes, mffc = window-bounded MFFC).
func (s *genState) scanPool(lacs []LAC, v aig.Node, pool []aig.Node, mffc int) []LAC {
	g, cfg := s.g, &s.cfg
	target := aig.MakeLit(v, false)

	fanins := [2]aig.Node{g.Fanin0(v).Node(), g.Fanin1(v).Node()}
	count := 0

	try := func(divs []aig.Lit) bool {
		if count >= cfg.MaxLACsPerNode {
			return false
		}
		cover, ok := BuildCoverWith(s.vecs, divs, target, s.valid, s.m)
		if !ok {
			return true // infeasible; keep scanning
		}
		gain := mffc - aig.SOPCost(cover)
		if gain < 0 {
			// A growing replacement cannot simplify the circuit directly;
			// skip it (the paper's resubstitutions are cost-reducing).
			return true
		}
		lacs = append(lacs, LAC{
			Node:     v,
			Divisors: append([]aig.Lit(nil), divs...),
			Cover:    cover,
			Gain:     gain,
		})
		count++
		return count < cfg.MaxLACsPerNode
	}

	for i := 0; i < 2 && count < cfg.MaxLACsPerNode; i++ {
		removed := fanins[i]
		other := fanins[1-i]
		otherLit := aig.MakeLit(other, false)
		// Divisor set A: remove fanin i. The constant node is not a useful
		// divisor; use the empty set then (a constant resubstitution).
		// The sets share s.divBuf, so building them never allocates.
		a := s.divBuf[:0]
		if other != 0 {
			a = append(a, otherLit)
		}
		if !try(a) {
			break
		}
		// Divisor sets B: replace the removed fanin by a pool node. The word
		// test rejects exactly the nodes try would find infeasible, so only
		// the survivors build a cover; tries, s.tried and the accepted
		// sequence are those of trying every node.
		s.wt.prepare(s.vecs, a, target)
		tries := 0
		s.tried = s.tried[:0]
		for _, u := range pool {
			if count >= cfg.MaxLACsPerNode {
				break
			}
			if cfg.MaxReplaceTries > 0 && tries >= cfg.MaxReplaceTries {
				break
			}
			if u == v || u == removed || u == other || u == 0 {
				continue
			}
			tries++
			s.tried = append(s.tried, u)
			ul := aig.MakeLit(u, false)
			if s.wt.rejects(s.vecs, ul) {
				continue
			}
			if !try(append(a, ul)) {
				break
			}
		}
		// Extension beyond the paper's AIG flow: when wider divisor sets
		// are allowed, also try triples {other, u1, u2} over a bounded
		// prefix of the scanned candidates. Richer functions approximate
		// more closely at a slightly higher structural cost.
		if cfg.MaxDivisors >= 3 && count < cfg.MaxLACsPerNode {
			limit := min(len(s.tried), 16)
			for x := 0; x < limit && count < cfg.MaxLACsPerNode; x++ {
				for y := x + 1; y < limit && count < cfg.MaxLACsPerNode; y++ {
					b := append(a,
						aig.MakeLit(s.tried[x], false), aig.MakeLit(s.tried[y], false))
					if !try(b) {
						break
					}
				}
			}
		}
	}
	return lacs
}

// wordTest decides, word-parallel and without building a cover, whether a
// divisor set A ∪ {u} is infeasible, for one root's target, one kept set A
// of at most one divisor and any number of candidates u. prepare splits
// every valid care pattern by A's value c and the target's value: pq[w][c]
// holds word w of P_c, the patterns with A = c and target 1, and pq[w][2+c]
// word w of Q_c, those with A = c and target 0. With A empty every pattern
// is in class 0 and class 1 is empty. A candidate u splits each class by
// its own value b, and A ∪ {u} is infeasible exactly when some minterm
// (c, b) holds a pattern of P_c and one of Q_c — wordops.CoverScan's
// onset ∩ offset verdict on the same set, word for word.
type wordTest struct {
	tail uint64      // valid bits of the last care word
	pq   [][4]uint64 // one entry per care word
}

// newWordTest sizes a word test for valid care patterns.
func newWordTest(valid int) wordTest {
	return wordTest{tail: wordops.TailMask(valid), pq: make([][4]uint64, (valid+63)>>6)}
}

// prepare fills the class masks for kept set a (at most one divisor) and
// target.
//
//alsrac:hotpath
func (t *wordTest) prepare(vecs *sim.Vectors, a []aig.Lit, target aig.Lit) {
	tw, tinv := vecs.LitWords(target)
	var aw []uint64
	var ainv uint64
	if len(a) > 0 {
		aw, ainv = vecs.LitWords(a[0])
	}
	for w := range t.pq {
		vmask := ^uint64(0)
		if w == len(t.pq)-1 {
			vmask = t.tail
		}
		tv := tw[w] ^ tinv
		c1 := uint64(0) // patterns with A = 1
		if aw != nil {
			c1 = (aw[w] ^ ainv) & vmask
		}
		c0 := vmask &^ c1
		t.pq[w] = [4]uint64{c0 & tv, c1 & tv, c0 &^ tv, c1 &^ tv}
	}
}

// rejects reports whether the prepared set plus u is infeasible. Bit 2c+b
// of has1 (has0) records that minterm (c, b) holds a target-1 (target-0)
// pattern on some word so far; a bit set in both is a conflict.
//
//alsrac:hotpath
func (t *wordTest) rejects(vecs *sim.Vectors, u aig.Lit) bool {
	uw, uinv := vecs.LitWords(u)
	var has1, has0 uint8
	for w := range t.pq {
		x, m := uw[w]^uinv, &t.pq[w]
		has1 |= nonzero(m[0]&^x) | nonzero(m[0]&x)<<1 | nonzero(m[1]&^x)<<2 | nonzero(m[1]&x)<<3
		has0 |= nonzero(m[2]&^x) | nonzero(m[2]&x)<<1 | nonzero(m[3]&^x)<<2 | nonzero(m[3]&x)<<3
		if has1&has0 != 0 {
			return true
		}
	}
	return false
}

// nonzero is 1 when x has a set bit and 0 otherwise. The compiler emits a
// flag set, not a branch, so rejects runs branch-free up to its exit test.
func nonzero(x uint64) uint8 {
	if x != 0 {
		return 1
	}
	return 0
}
