package aig

import (
	"math"
	"slices"
)

// LevelOrder returns the non-constant nodes grouped by logic level in CSR
// form: order holds the ids 1..NumNodes−1 sorted by (level, id), and
// order[start[l]:start[l+1]] is exactly the nodes at level l (len(start) is
// maxLevel+2). levels must come from Levels on the same graph. Computed
// once, the order lets per-node consumers enumerate any node subset in
// level order — ascending or descending — without re-sorting (package
// resub's divisor scan visits every TFI cone this way).
func (g *Graph) LevelOrder(levels []int32) (order []Node, start []int32) {
	maxLev := int32(0)
	for _, l := range levels[1:] {
		if l > maxLev {
			maxLev = l
		}
	}
	start = make([]int32, maxLev+2)
	for _, l := range levels[1:] {
		start[l+1]++
	}
	for l := int32(1); l < int32(len(start)); l++ {
		start[l] += start[l-1]
	}
	order = make([]Node, len(levels)-1)
	fill := append([]int32(nil), start...)
	for n := 1; n < len(levels); n++ {
		l := levels[n]
		order[fill[l]] = Node(n)
		fill[l]++
	}
	return order, start
}

// ConeMarker answers transitive-fanin membership queries with an
// epoch-stamped scratch array: marking a new cone bumps the epoch instead
// of clearing the previous marks, so repeated per-node cone queries over
// one graph allocate nothing and never pay an O(nodes) clear. A marker is
// confined to one goroutine; concurrent scans each own their own.
type ConeMarker struct {
	stamp []int32
	epoch int32
}

// NewConeMarker returns a marker sized for graph g.
func NewConeMarker(g *Graph) *ConeMarker {
	return &ConeMarker{stamp: make([]int32, g.NumNodes())}
}

// MarkTFI stamps the transitive-fanin cone of n (including n and the PIs in
// the cone, excluding the constant node), replacing the previously marked
// cone. It runs the same backward id sweep as TFICone.
func (m *ConeMarker) MarkTFI(g *Graph, n Node) {
	if m.epoch == math.MaxInt32 {
		for i := range m.stamp {
			m.stamp[i] = 0
		}
		m.epoch = 0
	}
	m.epoch++
	m.stamp[n] = m.epoch
	for i := n; i >= 1; i-- {
		if m.stamp[i] != m.epoch || g.kind[i] != KindAnd {
			continue
		}
		m.stamp[g.fanin0[i].Node()] = m.epoch
		m.stamp[g.fanin1[i].Node()] = m.epoch
	}
	m.stamp[0] = 0 // the constant node is never part of a cone
}

// InCone reports whether node u belongs to the cone stamped by the most
// recent MarkTFI call.
func (m *ConeMarker) InCone(u Node) bool { return m.stamp[u] == m.epoch }

// TFICone returns the transitive-fanin cone of node n, including n itself,
// as node ids in increasing (topological) order. PIs in the cone are
// included; the constant node is not.
func (g *Graph) TFICone(n Node) []Node {
	mark := make([]bool, g.NumNodes())
	mark[n] = true
	// Because fanin ids are always smaller than the node id, a single
	// backward sweep over ids suffices.
	for i := n; i >= 1; i-- {
		if !mark[i] || g.kind[i] != KindAnd {
			continue
		}
		mark[g.fanin0[i].Node()] = true
		mark[g.fanin1[i].Node()] = true
	}
	var cone []Node
	for i := Node(1); i <= n; i++ {
		if mark[i] {
			cone = append(cone, i)
		}
	}
	return cone
}

// MFFCSize returns the number of AND nodes in the maximum fanout-free cone
// of node n above the stop set leaves: the nodes that would become dangling
// if n were removed, with the walk never descending into a leaf. nil leaves
// means the whole MFFC. A cut's or window's leaves make it the part of the
// MFFC inside that cut, which is what a replacement over those leaves frees:
// exact when the leaves are PIs, a lower bound otherwise. refs must be the
// current reference counts (see RefCounts); it is restored before
// returning.
func (g *Graph) MFFCSize(n Node, refs []int32, leaves []Node) int {
	if g.kind[n] != KindAnd {
		return 0
	}
	count := g.deref(n, refs, leaves)
	g.reref(n, refs, leaves)
	return count
}

// deref recursively dereferences the fanins of n, counting the AND nodes
// outside leaves whose reference count drops to zero (n itself included).
func (g *Graph) deref(n Node, refs []int32, leaves []Node) int {
	count := 1
	for _, f := range [2]Lit{g.fanin0[n], g.fanin1[n]} {
		fn := f.Node()
		refs[fn]--
		if refs[fn] == 0 && g.kind[fn] == KindAnd && !slices.Contains(leaves, fn) {
			count += g.deref(fn, refs, leaves)
		}
	}
	return count
}

// reref undoes a matching deref.
func (g *Graph) reref(n Node, refs []int32, leaves []Node) {
	for _, f := range [2]Lit{g.fanin0[n], g.fanin1[n]} {
		fn := f.Node()
		if refs[fn] == 0 && g.kind[fn] == KindAnd && !slices.Contains(leaves, fn) {
			g.reref(fn, refs, leaves)
		}
		refs[fn]++
	}
}
