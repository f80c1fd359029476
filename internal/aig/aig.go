// Package aig implements an And-Inverter Graph (AIG), the circuit
// representation used throughout this repository.
//
// An AIG is a directed acyclic graph in which every internal node is a
// two-input AND gate and every edge may carry an optional complement
// (inversion) marker. Following the convention of the ABC system, edges are
// encoded as literals: a literal is 2*node+1 if the edge is complemented and
// 2*node otherwise. Node 0 is the constant-zero node, so the literal 0 is
// Boolean false and the literal 1 is Boolean true.
//
// Graphs are built incrementally with And and its derived helpers (Or, Xor,
// Mux, ...). Construction maintains two invariants that the rest of the
// repository relies on:
//
//   - Structural hashing: at most one AND node exists for any ordered pair of
//     fanin literals, and trivial identities (x·0=0, x·1=x, x·x=x, x·¬x=0)
//     never allocate a node.
//   - Topological ordering by id: the fanins of a node always have smaller
//     ids than the node itself, so iterating ids in increasing order visits
//     the graph in topological order.
package aig

import (
	"fmt"
	"math"

	"repro/internal/tt"
)

// Node identifies a vertex of the graph. Node 0 is the constant-zero node.
type Node int32

// Lit is an edge reference: a node id shifted left by one, with the low bit
// set when the edge is complemented.
type Lit uint32

// Predefined literals for the Boolean constants.
const (
	LitFalse Lit = 0 // constant node, plain
	LitTrue  Lit = 1 // constant node, complemented
)

// MakeLit builds the literal that refers to node n, complemented when neg is
// true.
func MakeLit(n Node, neg bool) Lit {
	l := Lit(n) << 1
	if neg {
		l |= 1
	}
	return l
}

// Node returns the node the literal points at.
func (l Lit) Node() Node { return Node(l >> 1) }

// IsCompl reports whether the literal carries a complement marker.
func (l Lit) IsCompl() bool { return l&1 == 1 }

// Not returns the complement of the literal.
func (l Lit) Not() Lit { return l ^ 1 }

// NotCond complements the literal when c is true and returns it unchanged
// otherwise.
func (l Lit) NotCond(c bool) Lit {
	if c {
		return l ^ 1
	}
	return l
}

// Regular strips the complement marker.
func (l Lit) Regular() Lit { return l &^ 1 }

// String renders the literal in the conventional "¬n7"/"n7" form.
func (l Lit) String() string {
	if l.IsCompl() {
		return fmt.Sprintf("!n%d", l.Node())
	}
	return fmt.Sprintf("n%d", l.Node())
}

// Kind classifies a node.
type Kind uint8

// The node kinds of an AIG. KindDead marks a recycled slot: a node freed by
// an in-place replacement whose id may be reused by a later allocation (see
// ReplaceNode). Dead slots carry cleared fanins, are never referenced by live
// nodes or primary outputs, and are skipped by every consumer that filters on
// KindAnd — which is all of them.
const (
	KindConst Kind = iota // the constant-zero node (always node 0)
	KindPI                // primary input
	KindAnd               // two-input AND gate
	KindDead              // freed slot awaiting recycling
)

// Graph is a mutable, structurally hashed AIG.
//
// The zero value is not usable; call New.
type Graph struct {
	Name string // optional design name, carried through I/O

	kind   []Kind
	fanin0 []Lit // valid only for KindAnd nodes
	fanin1 []Lit // valid only for KindAnd nodes

	pis []Node
	pos []Lit

	piNames []string
	poNames []string

	strash map[uint64]Node
	nAnds  int

	// free holds the ids of KindDead slots in strictly increasing order;
	// And() recycles the smallest free slot whose id exceeds both fanin ids,
	// preserving the topological id-ordering invariant. epoch[n] is bumped
	// whenever slot n changes meaning (allocated, recycled or freed), so
	// simulation arenas detect structurally dirty slots by comparing a
	// remembered epoch against the graph's.
	free  []Node
	epoch []uint32

	// repl is scratch reused across ReplaceNode calls (never cloned).
	repl replaceScratch
}

// New returns an empty graph containing only the constant node.
func New() *Graph { return NewSized(64) }

// NewSized is New with room for n nodes: the node arrays and the structural
// hash hold n nodes before they grow. A rebuild of an n-node graph passes n.
func NewSized(n int) *Graph {
	n = max(n, 1)
	g := &Graph{
		kind:   make([]Kind, 1, n),
		fanin0: make([]Lit, 1, n),
		fanin1: make([]Lit, 1, n),
		epoch:  make([]uint32, 1, n),
		strash: make(map[uint64]Node, n),
	}
	g.kind[0] = KindConst
	return g
}

// NumNodes returns the total number of nodes including the constant node.
func (g *Graph) NumNodes() int { return len(g.kind) }

// NumPIs returns the number of primary inputs.
func (g *Graph) NumPIs() int { return len(g.pis) }

// NumPOs returns the number of primary outputs.
func (g *Graph) NumPOs() int { return len(g.pos) }

// NumAnds returns the number of AND nodes.
func (g *Graph) NumAnds() int { return g.nAnds }

// Kind returns the kind of node n.
func (g *Graph) Kind(n Node) Kind { return g.kind[n] }

// IsAnd reports whether node n is an AND gate.
func (g *Graph) IsAnd(n Node) bool { return g.kind[n] == KindAnd }

// Fanin0 returns the first fanin literal of an AND node.
func (g *Graph) Fanin0(n Node) Lit { return g.fanin0[n] }

// Fanin1 returns the second fanin literal of an AND node.
func (g *Graph) Fanin1(n Node) Lit { return g.fanin1[n] }

// PI returns the node of the i-th primary input.
func (g *Graph) PI(i int) Node { return g.pis[i] }

// PIs returns the primary input nodes in creation order. The returned slice
// is owned by the graph and must not be modified.
func (g *Graph) PIs() []Node { return g.pis }

// PO returns the literal driving the i-th primary output.
func (g *Graph) PO(i int) Lit { return g.pos[i] }

// POs returns the primary output literals in creation order. The returned
// slice is owned by the graph and must not be modified.
func (g *Graph) POs() []Lit { return g.pos }

// PIName returns the name of the i-th primary input ("" when unnamed).
func (g *Graph) PIName(i int) string {
	if i < len(g.piNames) {
		return g.piNames[i]
	}
	return ""
}

// POName returns the name of the i-th primary output ("" when unnamed).
func (g *Graph) POName(i int) string {
	if i < len(g.poNames) {
		return g.poNames[i]
	}
	return ""
}

// PIIndex returns the input index of PI node n, or -1 when n is not a PI.
func (g *Graph) PIIndex(n Node) int {
	if g.kind[n] != KindPI {
		return -1
	}
	for i, p := range g.pis {
		if p == n {
			return i
		}
	}
	return -1
}

// AddPI appends a primary input with the given name and returns its literal.
func (g *Graph) AddPI(name string) Lit {
	n := g.newNode(KindPI, 0, 0)
	g.pis = append(g.pis, n)
	g.piNames = append(g.piNames, name)
	return MakeLit(n, false)
}

// AddPIs appends k unnamed inputs named prefix0..prefix{k-1} and returns
// their literals.
func (g *Graph) AddPIs(k int, prefix string) []Lit {
	lits := make([]Lit, k)
	for i := range lits {
		lits[i] = g.AddPI(fmt.Sprintf("%s%d", prefix, i))
	}
	return lits
}

// AddPO registers lit as a primary output with the given name and returns
// the output index.
func (g *Graph) AddPO(l Lit, name string) int {
	g.pos = append(g.pos, l)
	g.poNames = append(g.poNames, name)
	return len(g.pos) - 1
}

// SetPO redirects the i-th primary output to drive lit.
func (g *Graph) SetPO(i int, l Lit) { g.pos[i] = l }

// Epoch returns the structural epoch of slot n (see the free/epoch fields).
func (g *Graph) Epoch(n Node) uint32 { return g.epoch[n] }

// NumDead returns the number of dead (recyclable) slots.
func (g *Graph) NumDead() int { return len(g.free) }

func (g *Graph) newNode(k Kind, f0, f1 Lit) Node {
	if k == KindAnd {
		if n, ok := g.recycleSlot(max(f0.Node(), f1.Node())); ok {
			g.kind[n] = KindAnd
			g.fanin0[n] = f0
			g.fanin1[n] = f1
			g.epoch[n]++
			return n
		}
	}
	n := Node(len(g.kind))
	g.kind = append(g.kind, k)
	g.fanin0 = append(g.fanin0, f0)
	g.fanin1 = append(g.fanin1, f1)
	g.epoch = append(g.epoch, 1)
	return n
}

// recycleSlot pops the smallest free slot with id strictly greater than
// minAbove — the largest fanin id of the node about to occupy it — so the
// topological id-ordering invariant survives recycling. The free list is
// sorted ascending, so a binary search finds the candidate.
//
//alsrac:hotpath
func (g *Graph) recycleSlot(minAbove Node) (Node, bool) {
	lo, hi := 0, len(g.free)
	for lo < hi {
		mid := (lo + hi) / 2
		if g.free[mid] <= minAbove {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(g.free) {
		return 0, false
	}
	n := g.free[lo]
	copy(g.free[lo:], g.free[lo+1:])
	g.free = g.free[:len(g.free)-1]
	return n, true
}

// freeNode marks an AND slot dead and queues it for recycling: the strash
// entry is dropped, the fanins are cleared, the epoch is bumped and the id
// is inserted into the sorted free list. The caller guarantees the node is
// unreferenced.
//
//alsrac:hotpath
func (g *Graph) freeNode(n Node) {
	delete(g.strash, uint64(g.fanin0[n])<<32|uint64(g.fanin1[n]))
	g.kind[n] = KindDead
	g.fanin0[n] = 0
	g.fanin1[n] = 0
	g.epoch[n]++
	g.nAnds--
	// Insert keeping the list sorted; frees arrive in descending id order
	// during a dead sweep, so the insertion point is usually the front.
	lo, hi := 0, len(g.free)
	for lo < hi {
		mid := (lo + hi) / 2
		if g.free[mid] < n {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	g.free = append(g.free, 0)
	copy(g.free[lo+1:], g.free[lo:])
	g.free[lo] = n
}

// And returns a literal for the conjunction of a and b, folding constants,
// applying the trivial identities and reusing an existing node when one with
// the same fanins already exists.
func (g *Graph) And(a, b Lit) Lit {
	// Normalize operand order so that the strash key is canonical.
	if a > b {
		a, b = b, a
	}
	// Trivial cases. After ordering, a constant operand must be a.
	switch {
	case a == LitFalse:
		return LitFalse
	case a == LitTrue:
		return b
	case a == b:
		return a
	case a == b.Not():
		return LitFalse
	}
	key := uint64(a)<<32 | uint64(b)
	if n, ok := g.strash[key]; ok {
		return MakeLit(n, false)
	}
	n := g.newNode(KindAnd, a, b)
	g.strash[key] = n
	g.nAnds++
	return MakeLit(n, false)
}

// Or returns a literal for the disjunction of a and b.
func (g *Graph) Or(a, b Lit) Lit { return g.And(a.Not(), b.Not()).Not() }

// Xor returns a literal for the exclusive-or of a and b.
func (g *Graph) Xor(a, b Lit) Lit {
	// a^b = (a ∨ b) ∧ ¬(a ∧ b)
	return g.And(g.Or(a, b), g.And(a, b).Not())
}

// Xnor returns a literal for the complement of the exclusive-or of a and b.
func (g *Graph) Xnor(a, b Lit) Lit { return g.Xor(a, b).Not() }

// Mux returns a literal for "if s then t else e".
func (g *Graph) Mux(s, t, e Lit) Lit {
	return g.Or(g.And(s, t), g.And(s.Not(), e))
}

// AndN returns the conjunction of all literals in xs (true when empty),
// combined as a balanced tree to keep the logic depth logarithmic.
func (g *Graph) AndN(xs ...Lit) Lit { return g.reduceBalanced(xs, g.And, LitTrue) }

// OrN returns the disjunction of all literals in xs (false when empty),
// combined as a balanced tree.
func (g *Graph) OrN(xs ...Lit) Lit {
	return g.reduceBalanced(xs, g.Or, LitFalse)
}

// XorN returns the parity of all literals in xs (false when empty).
func (g *Graph) XorN(xs ...Lit) Lit {
	return g.reduceBalanced(xs, g.Xor, LitFalse)
}

// SOP builds the sum of products cov over the input literals ins (cover
// variable i is ins[i]) and returns its literal: each cube is the AndN of
// its literals and the cubes are joined by OrN. The empty cover is false
// and the empty cube true, so a constant cover adds no node. A cover of up
// to tt.MaxVars cubes builds without allocating.
func (g *Graph) SOP(cov tt.Cover, ins []Lit) Lit {
	var termBuf, litBuf [tt.MaxVars]Lit
	terms, lits := termBuf[:0], litBuf[:0]
	for _, cube := range cov {
		lits = lits[:0]
		for v, in := range ins {
			bit := uint32(1) << uint(v)
			if cube.Pos&bit != 0 {
				lits = append(lits, in)
			}
			if cube.Neg&bit != 0 {
				lits = append(lits, in.Not())
			}
		}
		terms = append(terms, g.AndN(lits...))
	}
	return g.OrN(terms...)
}

// SOPCost is the number of AND nodes SOP adds for cov when strashing
// shares none of them: a cube of m literals costs m−1 and the disjunction
// of c cubes c−1 more.
func SOPCost(cov tt.Cover) int {
	if len(cov) == 0 {
		return 0
	}
	cost := len(cov) - 1
	for _, cube := range cov {
		if m := cube.NumLits(); m > 1 {
			cost += m - 1
		}
	}
	return cost
}

func (g *Graph) reduceBalanced(xs []Lit, op func(Lit, Lit) Lit, unit Lit) Lit {
	switch len(xs) {
	case 0:
		return unit
	case 1:
		return xs[0]
	}
	mid := len(xs) / 2
	return op(g.reduceBalanced(xs[:mid], op, unit), g.reduceBalanced(xs[mid:], op, unit))
}

// Levels returns the logic level of every node: PIs and the constant are at
// level 0 and an AND node is one above the maximum of its fanins.
func (g *Graph) Levels() []int32 {
	lev := make([]int32, g.NumNodes())
	for n := Node(1); int(n) < g.NumNodes(); n++ {
		if g.kind[n] != KindAnd {
			continue
		}
		l0 := lev[g.fanin0[n].Node()]
		l1 := lev[g.fanin1[n].Node()]
		lev[n] = max(l0, l1) + 1
	}
	return lev
}

// Depth returns the maximum logic level over the primary outputs.
func (g *Graph) Depth() int {
	lev := g.Levels()
	d := int32(0)
	for _, po := range g.pos {
		d = max(d, lev[po.Node()])
	}
	return int(d)
}

// RefCounts returns, for every node, the number of fanout references from
// AND nodes and primary outputs.
func (g *Graph) RefCounts() []int32 {
	refs := make([]int32, g.NumNodes())
	for n := Node(1); int(n) < g.NumNodes(); n++ {
		if g.kind[n] == KindAnd {
			refs[g.fanin0[n].Node()]++
			refs[g.fanin1[n].Node()]++
		}
	}
	for _, po := range g.pos {
		refs[po.Node()]++
	}
	return refs
}

// Stats summarizes the size and shape of a graph.
type Stats struct {
	PIs   int
	POs   int
	Ands  int
	Depth int
}

// Stats returns size statistics for the graph.
func (g *Graph) Stats() Stats {
	return Stats{PIs: g.NumPIs(), POs: g.NumPOs(), Ands: g.NumAnds(), Depth: g.Depth()}
}

// String implements fmt.Stringer with a short one-line summary.
func (g *Graph) String() string {
	s := g.Stats()
	name := g.Name
	if name == "" {
		name = "aig"
	}
	return fmt.Sprintf("%s: pi=%d po=%d and=%d depth=%d", name, s.PIs, s.POs, s.Ands, s.Depth)
}

// Check validates the structural invariants of the graph and returns a
// descriptive error when one is violated. It is intended for tests and for
// debugging transformations.
func (g *Graph) Check() error {
	if g.NumNodes() == 0 || g.kind[0] != KindConst {
		return fmt.Errorf("aig: node 0 is not the constant node")
	}
	if g.NumNodes() > math.MaxInt32 {
		return fmt.Errorf("aig: too many nodes")
	}
	for n := Node(1); int(n) < g.NumNodes(); n++ {
		switch g.kind[n] {
		case KindPI:
		case KindDead:
			if g.fanin0[n] != 0 || g.fanin1[n] != 0 {
				return fmt.Errorf("aig: dead node %d has uncleared fanins", n)
			}
		case KindAnd:
			f0, f1 := g.fanin0[n], g.fanin1[n]
			if f0.Node() >= n || f1.Node() >= n {
				return fmt.Errorf("aig: node %d has fanin with id >= its own", n)
			}
			if f0 > f1 {
				return fmt.Errorf("aig: node %d has unordered fanins", n)
			}
			if f0 == f1 || f0 == f1.Not() {
				return fmt.Errorf("aig: node %d has duplicate/complementary fanins", n)
			}
		default:
			return fmt.Errorf("aig: node %d has invalid kind %d", n, g.kind[n])
		}
	}
	for i, po := range g.pos {
		if int(po.Node()) >= g.NumNodes() {
			return fmt.Errorf("aig: PO %d points at nonexistent node", i)
		}
	}
	return nil
}
