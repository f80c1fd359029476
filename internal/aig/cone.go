package aig

import (
	"math"
	"slices"
)

// ConeMarker lists transitive-fanin cones with an epoch-stamped scratch
// array: marking a new cone bumps the epoch instead of clearing the
// previous marks, so repeated cone queries allocate nothing once the stamps
// fit the graph and never pay an O(nodes) clear. The zero value is ready to
// use; a marker grows its stamps to each graph it is given, so one marker
// may serve several graphs in turn. A marker is confined to one goroutine;
// concurrent scans each own their own.
type ConeMarker struct {
	stamp []int32
	epoch int32
}

// Mark stamps the transitive-fanin cone of the seeds, replacing the
// previously marked cone, and appends its nodes to dst in descending id
// order. The seeds and the PIs in the cone are included; the constant node
// never is, not even as a seed. Fanin ids are always smaller than the node
// id, so one backward id sweep from the largest seed lists the cone.
func (m *ConeMarker) Mark(g *Graph, dst []Node, seeds ...Node) []Node {
	if len(m.stamp) < g.NumNodes() {
		//alsrac:alloc-ok the stamps grow to the largest graph once and are reused by every later mark
		m.stamp = make([]int32, g.NumNodes())
	}
	if m.epoch == math.MaxInt32 {
		clear(m.stamp)
		m.epoch = 0
	}
	m.epoch++
	var top Node
	for _, s := range seeds {
		m.stamp[s] = m.epoch
		top = max(top, s)
	}
	for i := top; i >= 1; i-- {
		if m.stamp[i] != m.epoch {
			continue
		}
		dst = append(dst, i)
		if g.kind[i] == KindAnd {
			m.stamp[g.fanin0[i].Node()] = m.epoch
			m.stamp[g.fanin1[i].Node()] = m.epoch
		}
	}
	m.stamp[0] = 0 // the constant node is never part of a cone
	return dst
}

// InCone reports whether node u belongs to the cone stamped by the most
// recent Mark call.
func (m *ConeMarker) InCone(u Node) bool { return m.stamp[u] == m.epoch }

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
