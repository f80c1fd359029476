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

	// MaxDivisors and UseEspresso are not read. Every divisor set holds at
	// most two divisors, as in the paper's AIG flow (Algorithm 1), and its
	// cover is tt.ISOP's, which on such sets equals the Espresso-style
	// cover. Both fields stay for the benchmark harness, which sets them,
	// until its next revision. Scan panics on a MaxDivisors above 2 rather
	// than drop the wider sets a caller asked for.
	MaxDivisors int
	UseEspresso bool
}

// DefaultConfig mirrors the paper's experiment setup: L=1 and an unbounded
// cone scan.
func DefaultConfig() Config {
	return Config{MaxLACsPerNode: 1}
}

// LAC is a candidate local approximate change: replace node Node by the
// sum-of-products Cover evaluated over the Divisors (Cover variable i is
// the value of Divisors[i]).
type LAC struct {
	Node     aig.Node
	Divisors []aig.Lit
	// Cover may be shared with other LACs and with tt.ISOPOnCare's table:
	// every reader — BuildLit, EvalVec's EvalWords, aig.SOPCost and
	// String — only reads it, and nothing may write to it.
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

	return Scan(g, vecs, valid, cfg, workers, stale, cached, coneSources(g))
}

// coneSources returns the factory of Generate's sources over g, which share
// g's logic levels. Each source's buffers hold any cone of g.
func coneSources(g *aig.Graph) func() Source {
	levels := g.Levels()
	maxLevel := slices.Max(levels)
	return func() Source {
		return &coneSource{g: g, levels: levels, count: make([]int32, maxLevel+2),
			tfi: make([]aig.Node, 0, g.NumNodes()), cone: make([]aig.Node, 0, g.NumNodes())}
	}
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
//
// Scan panics when cfg.MaxDivisors asks for divisor sets wider than two.
func Scan(g *aig.Graph, vecs *sim.Vectors, valid int, cfg Config, workers int,
	stale []bool, cached []LAC, newSource func() Source) []LAC {

	if cfg.MaxDivisors > 2 {
		panic(fmt.Sprintf("resub: Config.MaxDivisors %d: divisor sets hold at most 2 divisors", cfg.MaxDivisors))
	}
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
// the divisor buffers and the cover test's masks are private, so the
// per-root loop allocates only when a feasible candidate is emitted.
type genState struct {
	g    *aig.Graph
	vecs *sim.Vectors
	cfg  Config

	src    Source
	refs   []int32
	divBuf [2]aig.Lit
	ct     wordops.CoverTest
}

func newGenState(g *aig.Graph, vecs *sim.Vectors, valid int, cfg Config,
	src Source, refs []int32) *genState {

	return &genState{
		g: g, vecs: vecs, cfg: cfg,
		src: src, refs: refs, ct: wordops.NewCoverTest(valid),
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
// size. The graph and its levels are shared read-only; the marker and the
// buffers are private.
type coneSource struct {
	g      *aig.Graph
	levels []int32
	marker aig.ConeMarker
	tfi    []aig.Node // the root's cone as the marker lists it, ids descending
	count  []int32    // the level sort's offsets: max level + 2 entries
	cone   []aig.Node // the pool
}

// Pool implements Source.
func (s *coneSource) Pool(v aig.Node, refs []int32) ([]aig.Node, int, bool) {
	mffc := s.g.MFFCSize(v, refs, nil)
	s.coneInLevelOrder(v)
	return s.cone, mffc, true
}

// coneInLevelOrder fills s.cone with the TFI cone of v in (level, id)
// ascending order: a counting sort by level over the cone's nodes only,
// fed in ascending id so ids stay ascending within a level. No cone node
// is above v's level.
//
//alsrac:hotpath
func (s *coneSource) coneInLevelOrder(v aig.Node) {
	s.tfi = s.marker.Mark(s.g, s.tfi[:0], v)
	count := s.count[:s.levels[v]+2]
	clear(count)
	for _, u := range s.tfi {
		count[s.levels[u]+1]++
	}
	for l := 1; l < len(count); l++ {
		count[l] += count[l-1]
	}
	s.cone = s.cone[:len(s.tfi)] // its capacity holds every node of g
	for i := len(s.tfi) - 1; i >= 0; i-- {
		u := s.tfi[i]
		s.cone[count[s.levels[u]]] = u
		count[s.levels[u]]++
	}
}

// scanPool runs the divisor-set scan of Algorithm 2 for node v over its
// divisor pool (entries equal to v, v's fanins or the constant node are
// skipped) with the structural gain base mffc. It is the one kernel of
// every Source: the cone source (pool = full TFI cone, mffc = full MFFC)
// and package window's (pool = window nodes, mffc = window-bounded MFFC).
func (s *genState) scanPool(lacs []LAC, v aig.Node, pool []aig.Node, mffc int) []LAC {
	g, cfg := s.g, &s.cfg
	fanins := [2]aig.Node{g.Fanin0(v).Node(), g.Fanin1(v).Node()}
	count := 0

	// try takes a feasible divisor set with its sampled function and
	// reports whether the scan may go on.
	try := func(divs []aig.Lit, on, care uint64) bool {
		cover := tt.ISOPOnCare(len(divs), on, care)
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

	tw := s.vecs.Node(v)
	for i := 0; i < 2 && count < cfg.MaxLACsPerNode; i++ {
		removed := fanins[i]
		other := fanins[1-i]
		otherLit := aig.MakeLit(other, false)
		// Divisor set A: remove fanin i. The constant node is not a useful
		// divisor; use the empty set then (a constant resubstitution).
		// The sets share s.divBuf, so building them never allocates.
		a := s.divBuf[:0]
		var aw []uint64
		if other != 0 {
			a = append(a, otherLit)
			aw = s.vecs.Node(other)
		}
		if on, care, ok := s.ct.Prepare(aw, 0, tw, 0); ok && !try(a, on, care) {
			break
		}
		// Divisor sets B: replace the removed fanin by a pool node. Every
		// node counts towards tries; only those the cover test accepts
		// reach try.
		tries := 0
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
			on, care, ok := s.ct.Add(s.vecs.Node(u), 0)
			if !ok {
				continue
			}
			if !try(append(a, aig.MakeLit(u, false)), on, care) {
				break
			}
		}
	}
	return lacs
}
