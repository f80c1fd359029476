// Package opt implements traditional (exact) logic optimization over AIGs:
// structural sweeping, AND-tree balancing and cut-based rewriting. It
// stands in for the ABC commands "sweep; resyn2" that ALSRAC runs after
// every applied approximate change (Algorithm 3, line 9). All passes
// preserve the circuit function exactly.
package opt

import (
	"slices"
	"sync"

	"repro/internal/aig"
	"repro/internal/cut"
	"repro/internal/tt"
)

// Optimize runs the default script — the resyn2 analog: sweep, balance,
// rewrite, rewrite, balance, rewrite, sweep. The result computes the same
// function with, in practice, fewer AND nodes and smaller depth.
//
// A rewrite whose input is a fixpoint of Rewrite, a graph that Rewrite
// returns identical, is skipped: the second when the first changed nothing,
// and the third when the graph entering the second Balance is a fixpoint
// and that Balance changed nothing. Every graph here is freshly built by
// Sweep, Balance or Rewrite, so Rewrite is a deterministic function of the
// structure identical compares: a skipped pass would have returned its
// input, and the result is the one the full script gives.
func Optimize(g *aig.Graph) *aig.Graph {
	g = Balance(g.Sweep())
	r := Rewrite(g)
	fixpoint := identical(r, g)
	if !fixpoint {
		g, r = r, Rewrite(r)
		fixpoint = identical(r, g)
	}
	b := Balance(r)
	if !fixpoint || !identical(b, r) {
		b = Rewrite(b)
	}
	return b.Sweep()
}

// identical reports whether a and b have the same structure: name, node
// kinds and fanins by id, and primary inputs and outputs with their names.
func identical(a, b *aig.Graph) bool {
	if a == b {
		return true
	}
	if a.Name != b.Name || a.NumNodes() != b.NumNodes() || a.NumAnds() != b.NumAnds() ||
		!slices.Equal(a.PIs(), b.PIs()) || !slices.Equal(a.POs(), b.POs()) {
		return false
	}
	for i := 0; i < a.NumPIs(); i++ {
		if a.PIName(i) != b.PIName(i) {
			return false
		}
	}
	for i := 0; i < a.NumPOs(); i++ {
		if a.POName(i) != b.POName(i) {
			return false
		}
	}
	for n := aig.Node(1); int(n) < a.NumNodes(); n++ {
		if a.Kind(n) != b.Kind(n) ||
			a.IsAnd(n) && (a.Fanin0(n) != b.Fanin0(n) || a.Fanin1(n) != b.Fanin1(n)) {
			return false
		}
	}
	return true
}

// Balance rebuilds every multi-input AND tree in a balanced form, reducing
// circuit depth without changing the function (the ABC "balance" pass).
// Trees are broken at complemented edges and at shared (multi-fanout)
// nodes. When balancing does not help, the input graph is returned.
func Balance(g *aig.Graph) *aig.Graph {
	ng := aig.NewSized(g.NumNodes())
	ng.Name = g.Name
	refs := g.RefCounts()

	m := make([]aig.Lit, g.NumNodes())
	// lev[i] is the depth of new-graph node i.
	lev := make([]int32, 1, g.NumNodes())
	levOf := func(l aig.Lit) int32 { return lev[l.Node()] }
	and := func(a, b aig.Lit) aig.Lit {
		l := ng.And(a, b)
		for len(lev) < ng.NumNodes() {
			lev = append(lev, 0)
		}
		if ng.IsAnd(l.Node()) && lev[l.Node()] == 0 {
			lev[l.Node()] = max(levOf(a), levOf(b)) + 1
		}
		return l
	}

	m[0] = aig.LitFalse
	for i := 0; i < g.NumPIs(); i++ {
		m[g.PI(i)] = ng.AddPI(g.PIName(i))
		lev = append(lev, 0)
	}

	var leaves []aig.Lit
	var collect func(l aig.Lit)
	collect = func(l aig.Lit) {
		n := l.Node()
		if l.IsCompl() || !g.IsAnd(n) || refs[n] > 1 {
			leaves = append(leaves, m[n].NotCond(l.IsCompl()))
			return
		}
		collect(g.Fanin0(n))
		collect(g.Fanin1(n))
	}

	for n := aig.Node(1); int(n) < g.NumNodes(); n++ {
		if !g.IsAnd(n) {
			continue
		}
		leaves = leaves[:0]
		collect(g.Fanin0(n))
		collect(g.Fanin1(n))
		ls := append([]aig.Lit(nil), leaves...)
		// Repeatedly combine the two shallowest operands (Huffman style).
		for len(ls) > 1 {
			i0 := argminLevel(ls, lev)
			a := ls[i0]
			ls[i0] = ls[len(ls)-1]
			ls = ls[:len(ls)-1]
			i1 := argminLevel(ls, lev)
			b := ls[i1]
			ls[i1] = ls[len(ls)-1]
			ls = ls[:len(ls)-1]
			ls = append(ls, and(a, b))
		}
		m[n] = ls[0]
	}
	for i := 0; i < g.NumPOs(); i++ {
		po := g.PO(i)
		ng.AddPO(m[po.Node()].NotCond(po.IsCompl()), g.POName(i))
	}
	res := ng.Sweep()
	if res.NumAnds() > g.NumAnds() {
		return g
	}
	return res
}

func argminLevel(ls []aig.Lit, lev []int32) int {
	best := 0
	for i := 1; i < len(ls); i++ {
		if lev[ls[i].Node()] < lev[ls[best].Node()] {
			best = i
		}
	}
	return best
}

// Rewrite performs one round of DAG-aware cut rewriting: for every AND node
// it considers its 4-input cuts, resynthesizes the cut function from its
// ISOP (in the cheaper output polarity), and replaces the node when the new
// structure costs fewer AND nodes than the cut cone frees. All replacements
// are exact, so they can be applied simultaneously. When the rewritten
// graph is not smaller, an equivalent of the input graph is returned. The
// input graph is never modified.
func Rewrite(g *aig.Graph) *aig.Graph {
	sets := cut.Enumerate(g, cut.DefaultConfig())
	refs := g.RefCounts()

	var choices []replacement
	for n := aig.Node(1); int(n) < g.NumNodes(); n++ {
		if !g.IsAnd(n) {
			continue
		}
		bestGain := 0
		var best replacement
		for _, c := range sets.Cuts(n) {
			if c.IsTrivial(n) {
				continue
			}
			freed := g.MFFCSize(n, refs, c.Leaves)
			if freed <= bestGain {
				continue // the cover costs at least 0, so it cannot gain more
			}
			cov, compl := cheaperCover(len(c.Leaves), c.Truth)
			if gain := freed - aig.SOPCost(cov); gain > bestGain {
				bestGain = gain
				best = replacement{n: n, cov: cov, compl: compl, ins: c.Leaves}
			}
		}
		if bestGain > 0 {
			choices = append(choices, best)
		}
	}
	if len(choices) == 0 {
		return g
	}
	return rebuild(g, choices)
}

// replacement is an exact rewrite found by a pass: node n becomes the cover
// cov over the nodes ins, complemented when compl is set.
type replacement struct {
	n     aig.Node
	cov   tt.Cover
	compl bool
	ins   []aig.Node
}

// rebuild builds the replacements' covers on a clone of g, in order, and
// returns the clone copied with each replaced node substituted, or g swept
// when that copy is not smaller. A later replacement of a node supersedes an
// earlier one. g itself is never modified.
func rebuild(g *aig.Graph, reps []replacement) *aig.Graph {
	work := g.Clone()
	sub := make(map[aig.Node]aig.Lit, len(reps))
	ins := make([]aig.Lit, 0, tt.MaxVars)
	for _, r := range reps {
		ins = ins[:0]
		for _, n := range r.ins {
			ins = append(ins, aig.MakeLit(n, false))
		}
		sub[r.n] = work.SOP(r.cov, ins).NotCond(r.compl)
	}
	ng := work.CopyWith(sub)
	if ng.NumAnds() >= g.NumAnds() {
		return g.Sweep()
	}
	return ng
}

// cheaperCover returns the ISOP of the function with truth table bits over
// n variables (the Cut.Truth layout), or of its complement, whichever needs
// fewer AND nodes, along with whether the output must be inverted.
func cheaperCover(n int, bits uint64) (tt.Cover, bool) {
	if n > coverMemoMaxVars {
		return cheaperCoverUncached(tt.FromBits(n, bits))
	}
	key := uint32(n)<<16 | uint32(bits)
	coverMemo.RLock()
	ent, ok := coverMemo.m[key]
	coverMemo.RUnlock()
	if ok {
		return ent.cov, ent.compl
	}
	cov, compl := cheaperCoverUncached(tt.FromBits(n, bits))
	coverMemo.Lock()
	coverMemo.m[key] = coverMemoEntry{cov: cov, compl: compl}
	coverMemo.Unlock()
	return cov, compl
}

// coverMemoMaxVars bounds the memo key space: cut enumeration uses K=4, so
// every function Rewrite sees fits in 16 truth-table bits, and the cache
// tops out at 4·2^16 entries. The same handful of small functions recurs
// across cuts, passes and circuits, so the memo replaces two ISOP runs per
// cut with a lookup.
const coverMemoMaxVars = 4

type coverMemoEntry struct {
	cov   tt.Cover
	compl bool
}

// coverMemo caches cheaperCover results by (vars, truth bits). Covers are
// treated as immutable by every consumer (aig.Graph.SOP only reads), so
// sharing one Cover value across goroutines and calls is safe. Every flush
// of every session reads it, so a hit takes only the read lock and
// allocates nothing. Two goroutines that miss on one key store equal
// entries.
var coverMemo = struct {
	sync.RWMutex
	m map[uint32]coverMemoEntry
}{m: make(map[uint32]coverMemoEntry)}

func cheaperCoverUncached(tab tt.Table) (tt.Cover, bool) {
	n := tab.NumVars()
	on := tt.ISOP(tab, tt.New(n))
	off := tt.ISOP(tab.Not(), tt.New(n))
	if aig.SOPCost(off) < aig.SOPCost(on) {
		return off, true
	}
	return on, false
}
