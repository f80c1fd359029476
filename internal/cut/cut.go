// Package cut implements k-feasible cut enumeration over AIGs with
// dominance pruning and per-node priority lists, plus cut-function
// computation as truth tables. It is shared by the AIG rewriter (package
// opt) and the technology mappers (package mapper).
package cut

import (
	"math/bits"
	"slices"

	"repro/internal/aig"
	"repro/internal/tt"
)

// Cut is a set of leaf nodes that cuts the cone of a root node: every path
// from a PI to the root passes through a leaf. Leaves are sorted by id.
type Cut struct {
	Leaves []aig.Node
	// Truth is the root's function over the leaves, leaf i being variable i:
	// bit m holds the value on minterm m, and the bits from 2^len(Leaves) up
	// are zero, so Truth equals Table(g, root, Leaves).Words()[0]. Enumerate
	// fills it whenever its K is at most 6 and leaves it zero otherwise. A
	// Cut built outside Enumerate carries no function: window.Window uses
	// one only for its leaves and leaves Truth zero.
	Truth uint64
}

// Size returns the number of leaves.
func (c *Cut) Size() int { return len(c.Leaves) }

// IsTrivial reports whether the cut is the node's own trivial cut {n}.
func (c *Cut) IsTrivial(n aig.Node) bool {
	return len(c.Leaves) == 1 && c.Leaves[0] == n
}

// dominates reports whether the sorted leaf set a is a subset of the
// sorted leaf set b (then a cut with leaves b is redundant).
func dominates(a, b []aig.Node) bool {
	if len(a) > len(b) {
		return false
	}
	i := 0
	for _, l := range a {
		for i < len(b) && b[i] < l {
			i++
		}
		if i == len(b) || b[i] != l {
			return false
		}
		i++
	}
	return true
}

// mergeInto writes the union of the sorted leaf sets a and b into dst and
// returns its size, or -1 when the union has more than len(dst) leaves.
func mergeInto(dst, a, b []aig.Node) int {
	n, i, j := 0, 0, 0
	for i < len(a) || j < len(b) {
		var next aig.Node
		switch {
		case i == len(a):
			next = b[j]
			j++
		case j == len(b):
			next = a[i]
			i++
		case a[i] < b[j]:
			next = a[i]
			i++
		case a[i] > b[j]:
			next = b[j]
			j++
		default:
			next = a[i]
			i++
			j++
		}
		if n == len(dst) {
			return -1
		}
		dst[n] = next
		n++
	}
	return n
}

// Config controls enumeration.
type Config struct {
	K       int // maximum leaves per cut
	PerNode int // maximum stored cuts per node (the trivial cut is extra)
}

// DefaultConfig matches a typical rewriting setup: 4-input cuts, 8 per node.
func DefaultConfig() Config { return Config{K: 4, PerNode: 8} }

// Sets holds the enumerated cuts of every node.
type Sets struct {
	cuts [][]Cut
}

// Cuts returns the stored cuts of node n, including the trivial cut (always
// first) for AND nodes and PIs.
func (s *Sets) Cuts(n aig.Node) []Cut { return s.cuts[n] }

// maxTruthVars is the largest cut whose function fits one Truth word.
const maxTruthVars = 6

// Enumerate computes priority cuts for every node of g. Per AND node it
// keeps the trivial cut plus up to cfg.PerNode merged cuts, pruning
// dominated cuts and preferring smaller ones. When cfg.K ≤ 6 every stored
// cut also carries its function in Cut.Truth, derived from the truth tables
// of the two fanin cuts it was merged from.
func Enumerate(g *aig.Graph, cfg Config) *Sets {
	s := &Sets{cuts: make([][]Cut, g.NumNodes())}
	e := newEnumerator(g.NumNodes(), cfg)
	for i := 0; i < g.NumPIs(); i++ {
		pi := g.PI(i)
		s.cuts[pi] = e.store(pi, nil)
	}
	for n := aig.Node(1); int(n) < g.NumNodes(); n++ {
		if !g.IsAnd(n) {
			continue
		}
		f0, f1 := g.Fanin0(n), g.Fanin1(n)
		s.cuts[n] = e.node(n, f0, f1, s.cuts[f0.Node()], s.cuts[f1.Node()])
	}
	return s
}

// candidate is a merged cut of the node being enumerated: its leaves, kept
// in the enumerator's scratch, the leaf signature that speeds up the size
// and dominance tests, and the indices of the two fanin cuts it was merged
// from. It holds no pointers, so the candidate list is cheap to reshuffle.
type candidate struct {
	sig    uint64
	off, n int32 // leaves are buf[off : off+n]
	i, j   int32
}

// enumerator holds the storage of one Enumerate call. Stored leaves and cut
// lists are carved out of shared slabs; the candidates of the node being
// enumerated live in scratch that is reused for every node.
type enumerator struct {
	cfg    Config
	truth  bool // cfg.K ≤ maxTruthVars: fill Cut.Truth
	leaves slab[aig.Node]
	cuts   slab[Cut]
	cands  []candidate
	buf    []aig.Node // leaves of cands
	sigs   []uint64   // signatures of the second fanin's cuts
}

func newEnumerator(numNodes int, cfg Config) *enumerator {
	// Size the slabs for a few cuts of a few leaves per node, so a small
	// graph makes a handful of allocations and a large one a few per
	// thousand nodes.
	chunk := min(max(numNodes, 64), 1<<12)
	return &enumerator{
		cfg:    cfg,
		truth:  cfg.K <= maxTruthVars,
		leaves: slab[aig.Node]{chunk: 4 * chunk * max(cfg.K, 1)},
		cuts:   slab[Cut]{chunk: 4 * chunk},
	}
}

func (e *enumerator) leavesOf(c candidate) []aig.Node { return e.buf[c.off : c.off+c.n] }

// node enumerates the cuts of AND node n = f0 ∧ f1 from the fanin cut lists
// c0 and c1: every pairwise union of at most K leaves, minus dominated
// ones, stably sorted by size and truncated to PerNode.
func (e *enumerator) node(n aig.Node, f0, f1 aig.Lit, c0, c1 []Cut) []Cut {
	k := e.cfg.K
	if need := len(c0) * len(c1) * k; len(e.buf) < need {
		e.buf = make([]aig.Node, need)
	}
	e.sigs = e.sigs[:0]
	for j := range c1 {
		e.sigs = append(e.sigs, signature(c1[j].Leaves))
	}
	e.cands = e.cands[:0]
	used := 0
	for i := range c0 {
		sig0 := signature(c0[i].Leaves)
		for j := range c1 {
			sig := sig0 | e.sigs[j]
			if bits.OnesCount64(sig) > k {
				continue // more than k distinct leaves
			}
			m := mergeInto(e.buf[used:used+k], c0[i].Leaves, c1[j].Leaves)
			if m < 0 {
				continue
			}
			if e.add(candidate{sig: sig, off: int32(used), n: int32(m), i: int32(i), j: int32(j)}) {
				used += m
			}
		}
	}
	// Stable insertion sort by size: the candidate lists are short, and
	// equal sizes keep their merge order.
	for i := 1; i < len(e.cands); i++ {
		for j := i; j > 0 && e.cands[j].n < e.cands[j-1].n; j-- {
			e.cands[j], e.cands[j-1] = e.cands[j-1], e.cands[j]
		}
	}
	if len(e.cands) > e.cfg.PerNode {
		e.cands = e.cands[:e.cfg.PerNode]
	}
	out := e.store(n, e.cands)
	if e.truth {
		for x, c := range e.cands {
			leaves := out[x+1].Leaves
			t0 := stretch(c0[c.i].Truth, c0[c.i].Leaves, leaves)
			t1 := stretch(c1[c.j].Truth, c1[c.j].Leaves, leaves)
			if f0.IsCompl() {
				t0 = ^t0
			}
			if f1.IsCompl() {
				t1 = ^t1
			}
			out[x+1].Truth = t0 & t1 & lowBits(len(leaves))
		}
	}
	return out
}

// add inserts c into the candidate list unless it is dominated; candidates
// dominated by c are removed. It reports whether c was inserted.
func (e *enumerator) add(c candidate) bool {
	leaves := e.leavesOf(c)
	for _, d := range e.cands {
		if d.sig&^c.sig == 0 && dominates(e.leavesOf(d), leaves) {
			return false
		}
	}
	out := e.cands[:0]
	for _, d := range e.cands {
		if c.sig&^d.sig != 0 || !dominates(leaves, e.leavesOf(d)) {
			out = append(out, d)
		}
	}
	e.cands = append(out, c)
	return true
}

// store copies n's trivial cut followed by the given candidates into the
// slabs and returns the stored list. The trivial cut goes first so
// consumers can skip it easily. Truth is set for the trivial cut only: the
// function of n over itself is variable 0.
func (e *enumerator) store(n aig.Node, cands []candidate) []Cut {
	out := e.cuts.take(1 + len(cands))
	out[0] = Cut{Leaves: e.leaves.take(1)}
	out[0].Leaves[0] = n
	if e.truth {
		out[0].Truth = tt.VarWord(0, 0) & lowBits(1)
	}
	for i, c := range cands {
		leaves := e.leaves.take(int(c.n))
		copy(leaves, e.leavesOf(c))
		out[i+1] = Cut{Leaves: leaves}
	}
	return out
}

// slab hands out subslices of large chunks, so storing many small lists
// costs a few allocations. Each subslice is capped at its length, so an
// append by a consumer copies instead of overwriting a neighbour.
type slab[T any] struct {
	buf   []T
	chunk int
}

func (s *slab[T]) take(n int) []T {
	if cap(s.buf)-len(s.buf) < n {
		s.buf = make([]T, 0, max(s.chunk, n))
	}
	l := len(s.buf)
	s.buf = s.buf[:l+n]
	return s.buf[l : l+n : l+n]
}

// signature maps a leaf set to a 64-bit mask with bit id mod 64 set per
// leaf: a set with more bits than k has more than k leaves, and a cut
// whose signature is not a subset of another's cannot dominate it.
func signature(leaves []aig.Node) uint64 {
	var s uint64
	for _, l := range leaves {
		s |= 1 << (uint(l) & 63)
	}
	return s
}

// lowBits masks the 2^n meaningful bits of a truth table over n ≤ 6
// variables.
func lowBits(n int) uint64 {
	if n >= maxTruthVars {
		return ^uint64(0)
	}
	return 1<<(1<<uint(n)) - 1
}

// stretch re-expresses the truth table t over the sorted leaves from as a
// full six-variable word over the sorted leaves to ⊇ from. It first copies
// t across the variables from does not use, then moves each variable up to
// its position in to, highest first, so it always lands on a variable the
// function does not depend on.
func stretch(t uint64, from, to []aig.Node) uint64 {
	for v := len(from); v < maxTruthVars; v++ {
		t |= t << (1 << uint(v))
	}
	j := len(to) - 1
	for i := len(from) - 1; i >= 0; i-- {
		for to[j] != from[i] {
			j--
		}
		if j != i {
			t = swapVars(t, i, j)
		}
		j--
	}
	return t
}

// swapVars exchanges variables i < j of a six-variable truth table: a delta
// swap of each minterm with x_i = 1, x_j = 0 and its partner shift bits up.
func swapVars(t uint64, i, j int) uint64 {
	shift := uint(1<<uint(j) - 1<<uint(i))
	x := (t ^ t>>shift) & tt.VarWord(i, 0) &^ tt.VarWord(j, 0)
	return t ^ x ^ x<<shift
}

// Cone walks the cone of root above the cut leaves once, in post-order with
// fanin 0 first, and returns its AND nodes, root last, each with its
// function over the leaves (leaf i is variable i). root must not be a leaf,
// and the cut must cut root's cone.
func Cone(g *aig.Graph, root aig.Node, leaves []aig.Node) (nodes []aig.Node, tabs []tt.Table) {
	n := len(leaves)
	memo := make(map[aig.Node]tt.Table, 16)
	for i, l := range leaves {
		memo[l] = tt.Var(n, i)
	}
	var eval func(aig.Node) tt.Table
	eval = func(nd aig.Node) tt.Table {
		if t, ok := memo[nd]; ok {
			return t
		}
		if nd == 0 {
			return tt.New(n)
		}
		if !g.IsAnd(nd) {
			panic("cut: leaves do not cut the cone")
		}
		f0, f1 := g.Fanin0(nd), g.Fanin1(nd)
		t0 := eval(f0.Node())
		if f0.IsCompl() {
			t0 = t0.Not()
		}
		t1 := eval(f1.Node())
		if f1.IsCompl() {
			t1 = t1.Not()
		}
		t := t0.And(t1)
		memo[nd] = t
		nodes, tabs = append(nodes, nd), append(tabs, t)
		return t
	}
	eval(root)
	return nodes, tabs
}

// Table computes the function of root in terms of the cut leaves as a truth
// table (leaf i is variable i). The cut must actually cut root's cone.
func Table(g *aig.Graph, root aig.Node, leaves []aig.Node) tt.Table {
	if i := slices.Index(leaves, root); i >= 0 {
		return tt.Var(len(leaves), i)
	}
	_, tabs := Cone(g, root, leaves)
	return tabs[len(tabs)-1]
}
