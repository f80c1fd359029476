package aig

// replaceScratch is per-graph scratch reused across ReplaceNode calls, so a
// steady stream of in-place substitutions allocates nothing once the buffers
// have grown to the graph size.
type replaceScratch struct {
	fo       FanoutIndex // over the pre-replacement graph
	queue    EventQueue
	sub      []Lit // old node -> replacement literal (litUnset when none)
	refs     []int32
	replaced []Node // old nodes with a sub entry, ascending id
	created  []Node // nodes returned by And() during the walk
	stack    []Node // dead-sweep work list
}

const litUnset = ^Lit(0)

// ReplaceNode substitutes literal l for every reference to node v — fanins
// of other AND nodes and primary outputs — *in place*, rebuilding only v's
// transitive fanout, and then frees every node that became unreferenced
// (v's MFFC and the superseded fanout nodes). Freed slots go onto the free
// list for recycling by later allocations; every slot that is allocated,
// recycled or freed gets its epoch bumped, which is how simulation arenas
// find the dirty region.
//
// The semantics match CopyWith(map[Node]Lit{v: l}) followed by a sweep: l is
// interpreted against the current graph (so it must not depend on v through
// any path — resubstitution covers are built from v's fanin cone excluding
// v, which guarantees this; l.Node() == v itself is allowed and means a
// polarity flip or no-op). Unlike CopyWith, node ids of untouched logic are
// preserved.
//
// Every node whose reference count or structure changed — created nodes,
// fanins of created or freed nodes, and redirected PO targets — is appended
// to *touched (when touched is non-nil, with possible duplicates): together
// with the epoch bumps this is exactly the seed set a caller needs to
// invalidate per-node derived state (candidate covers, MFFC gains) by
// forward closure.
func (g *Graph) ReplaceNode(v Node, l Lit, touched *[]Node) {
	if g.kind[v] != KindAnd {
		panic("aig: ReplaceNode target is not an AND node")
	}
	if l == MakeLit(v, false) {
		return // identity
	}
	n := g.NumNodes()
	s := &g.repl
	s.fo.Build(g)
	s.queue.Reset(n)
	s.sub = grow(s.sub, n)
	for i := range s.sub {
		s.sub[i] = litUnset
	}
	s.replaced = s.replaced[:0]
	s.created = s.created[:0]

	note := func(m Node) {
		if touched != nil {
			*touched = append(*touched, m)
		}
	}

	s.sub[v] = l
	s.replaced = append(s.replaced, v)
	note(l.Node())
	s.queue.PushFanouts(&s.fo, v)

	// Event-driven rebuild of the dirty TFO slice: pop old node ids in
	// ascending (topological) order, remap each popped node's fanins through
	// sub, and create the remapped node — And() strash-shares, folds trivial
	// identities, and recycles free slots whose id respects the topological
	// order. New references created here keep shared logic alive through the
	// dead sweep below. Only old slots appear in the index, so freshly
	// created or recycled nodes are never queued.
	for s.queue.Len() > 0 {
		a := s.queue.Pop()
		if g.kind[a] != KindAnd {
			continue
		}
		f0, f1 := s.mapLit(g.fanin0[a]), s.mapLit(g.fanin1[a])
		if f0 == g.fanin0[a] && f1 == g.fanin1[a] {
			continue // fanins unaffected; node keeps its meaning
		}
		nl := g.And(f0, f1)
		if nl == MakeLit(a, false) {
			continue // remap reproduced the node itself
		}
		s.sub[a] = nl
		s.replaced = append(s.replaced, a)
		s.created = append(s.created, nl.Node())
		note(nl.Node())
		if g.kind[nl.Node()] == KindAnd {
			note(g.fanin0[nl.Node()].Node())
			note(g.fanin1[nl.Node()].Node())
		}
		s.queue.PushFanouts(&s.fo, a)
	}

	for i, po := range g.pos {
		if t := s.sub[po.Node()]; t != litUnset {
			g.pos[i] = t.NotCond(po.IsCompl())
			note(t.Node())
		}
	}

	// Dead sweep: recompute reference counts over the rewired graph, then
	// free every replaced old node that ended up unreferenced, cascading
	// into its fanin cone (the MFFC of the change). Replaced nodes that
	// gained new references — strash hits resurrecting shared structure —
	// survive; so do ex-MFFC nodes referenced by the replacement cover.
	s.refs = grow(s.refs, g.NumNodes())
	clear(s.refs)
	for m := Node(1); int(m) < g.NumNodes(); m++ {
		if g.kind[m] == KindAnd {
			s.refs[g.fanin0[m].Node()]++
			s.refs[g.fanin1[m].Node()]++
		}
	}
	for _, po := range g.pos {
		s.refs[po.Node()]++
	}
	// Seed with the replacement root (it dies when the rewired fanouts all
	// folded away from it), every node created during the walk (a consumer
	// higher up can fold to a constant and strand the node it just asked
	// for), and the replaced nodes in ascending order so the LIFO pops
	// highest ids — fanouts — first. A node popped while still referenced is
	// skipped; the free that drops its count to zero re-pushes it, so no
	// order of cascades leaks a node.
	s.stack = append(s.stack[:0], l.Node())
	s.stack = append(s.stack, s.created...)
	s.stack = append(s.stack, s.replaced...)
	for len(s.stack) > 0 {
		m := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		if g.kind[m] != KindAnd || s.refs[m] != 0 {
			continue
		}
		for _, f := range [2]Lit{g.fanin0[m], g.fanin1[m]} {
			fn := f.Node()
			s.refs[fn]--
			if s.refs[fn] == 0 && g.kind[fn] == KindAnd {
				s.stack = append(s.stack, fn)
			}
			note(fn)
		}
		g.freeNode(m)
	}
}

// CollectGarbage frees every AND node that is unreachable from the primary
// outputs, cascading through the cones that die with it, and reports how
// many nodes it freed. Callers that build speculative structure directly in
// the graph — a candidate cover whose terms partially strash-fold away
// before ReplaceNode wires the survivor in — run this after committing so
// the live-node set matches what a sweep would keep. Freed slots join the
// free list exactly as in ReplaceNode's dead sweep; the fanins of freed
// nodes (their reference counts changed) are appended to *touched when it
// is non-nil.
//
//alsrac:hotpath
func (g *Graph) CollectGarbage(touched *[]Node) int {
	s := &g.repl
	n := g.NumNodes()
	s.refs = grow(s.refs, n)
	clear(s.refs)
	for m := Node(1); int(m) < n; m++ {
		if g.kind[m] == KindAnd {
			s.refs[g.fanin0[m].Node()]++
			s.refs[g.fanin1[m].Node()]++
		}
	}
	for _, po := range g.pos {
		s.refs[po.Node()]++
	}
	s.stack = s.stack[:0]
	for m := Node(1); int(m) < n; m++ {
		if g.kind[m] == KindAnd && s.refs[m] == 0 {
			s.stack = append(s.stack, m)
		}
	}
	freed := 0
	for len(s.stack) > 0 {
		m := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		if g.kind[m] != KindAnd || s.refs[m] != 0 {
			continue
		}
		for _, f := range [2]Lit{g.fanin0[m], g.fanin1[m]} {
			fn := f.Node()
			s.refs[fn]--
			if s.refs[fn] == 0 && g.kind[fn] == KindAnd {
				s.stack = append(s.stack, fn)
			}
			if touched != nil {
				*touched = append(*touched, fn)
			}
		}
		g.freeNode(m)
		freed++
	}
	return freed
}

// EpochsInto snapshots every slot's epoch into dst (grown as needed) and
// returns it. Taken immediately before a batch of in-place edits, the
// snapshot is what StaleClosure diffs against afterwards.
func (g *Graph) EpochsInto(dst []uint32) []uint32 {
	if cap(dst) < len(g.epoch) {
		dst = make([]uint32, len(g.epoch))
	}
	dst = dst[:len(g.epoch)]
	copy(dst, g.epoch)
	return dst
}

// StaleClosure computes which nodes' TFI-derived state a batch of in-place
// edits invalidated: resubstitution candidates, covers, MFFC gains —
// anything that depends only on a node's transitive fanin cone (values,
// structure, levels, reference counts inside the cone). The seed set is the
// edits' touched list (see ReplaceNode), every slot whose epoch moved since
// the epochsBefore snapshot, and the fanins of epoch-dirty live nodes
// (their reference counts changed even when their own cones did not); one
// ascending pass closes the seed forward over the current fanin structure.
// The returned mask is indexed by node id; ids at or past len(epochsBefore)
// — slots that did not exist at the snapshot — are always stale.
func (g *Graph) StaleClosure(epochsBefore []uint32, touched []Node) []bool {
	n := g.NumNodes()
	stale := make([]bool, n)
	for _, t := range touched {
		stale[t] = true
	}
	for i := 0; i < n; i++ {
		v := Node(i)
		if i < len(epochsBefore) && g.epoch[v] == epochsBefore[i] {
			continue
		}
		stale[i] = true
		if g.kind[v] == KindAnd {
			stale[g.fanin0[v].Node()] = true
			stale[g.fanin1[v].Node()] = true
		}
	}
	for v := Node(1); int(v) < n; v++ {
		if g.kind[v] == KindAnd && (stale[g.fanin0[v].Node()] || stale[g.fanin1[v].Node()]) {
			stale[v] = true
		}
	}
	return stale
}

// mapLit resolves a literal of the pre-replacement graph through the
// substitution map.
//
//alsrac:hotpath
func (s *replaceScratch) mapLit(f Lit) Lit {
	if t := s.sub[f.Node()]; t != litUnset {
		return t.NotCond(f.IsCompl())
	}
	return f
}
