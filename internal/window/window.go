// Package window implements reconvergence-driven windowed resubstitution:
// ALSRAC's candidate scan restricted, per root node, to a bounded local
// window instead of the root's entire transitive fanin cone. The global
// scan touches O(|TFI|) nodes per root — quadratic over the circuit — so it
// cannot reach million-node AIGs; a window bounds the per-root work by a
// constant, making a full generation pass linear in circuit size with flat
// peak memory.
//
// Window extraction follows mockturtle's reconvergence-driven cut
// computation: starting from the root's fanins, the leaf whose expansion
// adds the fewest new leaves is replaced by its fanins (cost 0 expansions
// are exactly reconvergences), subject to a leaf budget MaxPIs and a volume
// budget MaxNodes, with fanout-based skip limits for roots and divisors.
//
// The care patterns a window is scored on are the global simulation words
// of package sim's persistent Arena: the window function of every inner
// node on the window's input stimuli (the leaves' arena words) equals its
// global function on the circuit stimuli, so the arena words of the window
// nodes ARE the local simulation — reused, not recomputed, which keeps
// local patterns bitwise consistent with global ones.
//
// A window is only a divisor source: Generate runs resub.Scan — the one
// candidate driver and kernel, shared with the global path — and supplies
// each root's window pool and window-bounded MFFC in place of its TFI cone
// and full MFFC. A window that reaches the circuit PIs therefore produces
// bitwise-identical candidates (see the equivalence property test). Flows
// use the constant DefaultConfig bounds; other bounds are for Go callers.
package window

import (
	"slices"

	"repro/internal/aig"
	"repro/internal/cut"
)

// Config bounds window extraction. The zero value of every field means
// "unbounded" / "no skip": Config{} degrades to full-TFI windows, which is
// what the window-vs-global equivalence property runs on. DefaultConfig
// returns production bounds.
type Config struct {
	// MaxPIs bounds the number of window inputs (cut leaves). A leaf
	// expansion that would leave more than MaxPIs leaves is not taken.
	MaxPIs int
	// MaxNodes bounds the window volume: the number of inner nodes
	// (expanded leaves plus the root).
	MaxNodes int
	// MaxDivisors caps the divisor pool handed to the candidate scan, after
	// level ordering — the pool keeps its first MaxDivisors entries. (This
	// is mockturtle's max_divisors, a pool cap; resub.Config.MaxDivisors is
	// the divisor-set width and unrelated.)
	MaxDivisors int
	// SkipFanoutRoots skips root nodes with more than this many fanout
	// references entirely — high-fanout nodes are rarely replaceable and
	// their windows are expensive.
	SkipFanoutRoots int
	// SkipFanoutDivisors drops divisor candidates with more than this many
	// fanout references from the pool.
	SkipFanoutDivisors int
}

// DefaultConfig returns the production window bounds, in the spirit of
// mockturtle's resubstitution_params (max_pis 8, max_divisors 150,
// skip_fanout_limit_for_roots 1000, skip_fanout_limit_for_divisors 100).
func DefaultConfig() Config {
	return Config{
		MaxPIs:             8,
		MaxNodes:           128,
		MaxDivisors:        150,
		SkipFanoutRoots:    1000,
		SkipFanoutDivisors: 100,
	}
}

// Window is one extracted reconvergence-driven window: Cut.Leaves are the
// window inputs (every PI-to-root path crosses a leaf) and Inner the nodes
// between them, root included. Both slices are sorted by node id and owned
// by the Extractor — valid until its next Extract call.
type Window struct {
	Root  aig.Node
	Cut   cut.Cut
	Inner []aig.Node
}

// Extractor computes windows over one graph. The graph, the logic levels
// and the fanout counts are shared read-only across extractors; the
// membership stamps and result slices are private, so concurrent workers
// each own an Extractor. Fanout counts are aig.Graph.RefCounts — AND fanins
// plus PO references — matching what the skip limits mean elsewhere in the
// module.
type Extractor struct {
	g      *aig.Graph
	cfg    Config
	levels []int32
	fanout []int32

	// Window membership is epoch-stamped: mark[n]==epoch means n is in the
	// current window.
	mark  []int32
	epoch int32

	leaves []aig.Node // current leaf set, in discovery order during expansion
	pool   []aig.Node // divisor pool scratch, reused across windows
	win    Window
}

// NewExtractor prepares an Extractor over g. levels must be g.Levels() and
// fanout g.RefCounts() for the same graph revision.
func NewExtractor(g *aig.Graph, cfg Config, levels, fanout []int32) *Extractor {
	n := g.NumNodes()
	return &Extractor{
		g: g, cfg: cfg, levels: levels, fanout: fanout,
		mark: make([]int32, n),
	}
}

// Extract computes the window of root (which must be a live AND node), or
// returns nil when the root's fanout exceeds Config.SkipFanoutRoots. The
// result is a pure function of the graph and the root — independent of any
// previously extracted window — which is what makes sharding roots across
// workers deterministic.
//
// Expansion policy: while the volume budget lasts, the AND leaf whose
// replacement by its fanins adds the fewest new leaves (ties: largest node
// id, i.e. deepest in the cone) is expanded, unless that would exceed the
// leaf budget. Cost-0 expansions are reconvergences — they shrink the leaf
// set — so reconvergent regions are absorbed first.
func (e *Extractor) Extract(root aig.Node) *Window {
	g, cfg := e.g, &e.cfg
	if cfg.SkipFanoutRoots > 0 && int(e.fanout[root]) > cfg.SkipFanoutRoots {
		return nil
	}
	e.epoch++
	e.mark[root] = e.epoch
	e.win.Root = root
	e.win.Inner = append(e.win.Inner[:0], root)
	e.leaves = e.leaves[:0]
	for _, f := range [2]aig.Node{g.Fanin0(root).Node(), g.Fanin1(root).Node()} {
		if e.mark[f] != e.epoch {
			e.mark[f] = e.epoch
			e.leaves = append(e.leaves, f)
		}
	}

	for cfg.MaxNodes <= 0 || len(e.win.Inner) < cfg.MaxNodes {
		best, bestCost := -1, 3
		for i, l := range e.leaves {
			if !g.IsAnd(l) {
				continue
			}
			cost := 0
			for _, f := range [2]aig.Node{g.Fanin0(l).Node(), g.Fanin1(l).Node()} {
				if e.mark[f] != e.epoch {
					cost++
				}
			}
			if cfg.MaxPIs > 0 && len(e.leaves)-1+cost > cfg.MaxPIs {
				continue
			}
			if cost < bestCost || (cost == bestCost && l > e.leaves[best]) {
				best, bestCost = i, cost
			}
		}
		if best < 0 {
			break
		}
		l := e.leaves[best]
		e.leaves = append(e.leaves[:best], e.leaves[best+1:]...)
		e.win.Inner = append(e.win.Inner, l)
		for _, f := range [2]aig.Node{g.Fanin0(l).Node(), g.Fanin1(l).Node()} {
			if e.mark[f] != e.epoch {
				e.mark[f] = e.epoch
				e.leaves = append(e.leaves, f)
			}
		}
	}

	slices.Sort(e.leaves)
	slices.Sort(e.win.Inner)
	e.win.Cut.Leaves = e.leaves
	return &e.win
}

// Divisors returns the divisor pool of the current window: every window
// node (leaves and inner, root included — the scan skips it) whose fanout
// does not exceed Config.SkipFanoutDivisors, sorted by (level, id)
// ascending — or descending levels with ascending ids within a level when
// descLevels is set — exactly the order the global path's cone scan
// produces, then truncated to Config.MaxDivisors entries. The slice is
// owned by the Extractor and valid until the next Extract call.
func (e *Extractor) Divisors(descLevels bool) []aig.Node {
	lim := int32(e.cfg.SkipFanoutDivisors)
	pool := append(e.pool[:0], e.win.Inner...)
	pool = append(pool, e.win.Cut.Leaves...)
	e.pool = pool
	if lim > 0 {
		kept := pool[:0]
		for _, u := range pool {
			if e.fanout[u] <= lim {
				kept = append(kept, u)
			}
		}
		pool = kept
	}
	slices.SortFunc(pool, func(a, b aig.Node) int {
		la, lb := e.levels[a], e.levels[b]
		if la != lb {
			if descLevels {
				return int(lb - la)
			}
			return int(la - lb)
		}
		return int(a - b)
	})
	if e.cfg.MaxDivisors > 0 && len(pool) > e.cfg.MaxDivisors {
		pool = pool[:e.cfg.MaxDivisors]
	}
	return pool
}
