package aig

// CopyWith rebuilds the graph into a fresh, structurally hashed graph,
// substituting nodes along the way. For every entry old→lit in sub, all
// references to node old are redirected to the literal lit. Substitution
// targets are interpreted against the ORIGINAL graph: the target's cone is
// rebuilt from the original node functions, with no substitution applied
// inside it. This makes a substitution like n→¬n well defined (flip a node)
// and rules out substitution cycles by construction; chains of dependent
// replacements are applied with one CopyWith call each.
//
// Nodes that become unreachable from the primary outputs are dropped, so
// CopyWith doubles as a cleanup ("sweep") pass.
func (g *Graph) CopyWith(sub map[Node]Lit) *Graph {
	ng := NewSized(g.NumNodes())
	ng.Name = g.Name

	const unset = ^Lit(0)
	newLit := make([]Lit, g.NumNodes())  // substituted resolution
	origLit := make([]Lit, g.NumNodes()) // original-function resolution
	for i := range newLit {
		newLit[i] = unset
		origLit[i] = unset
	}
	newLit[0], origLit[0] = LitFalse, LitFalse
	for i, pi := range g.pis {
		l := ng.AddPI(g.piNames[i])
		newLit[pi], origLit[pi] = l, l
	}

	// resolveOrig rebuilds node n's original function, ignoring sub.
	var resolveOrig func(n Node) Lit
	resolveOrig = func(n Node) Lit {
		if origLit[n] != unset {
			return origLit[n]
		}
		f0 := resolveOrig(g.fanin0[n].Node()).NotCond(g.fanin0[n].IsCompl())
		f1 := resolveOrig(g.fanin1[n].Node()).NotCond(g.fanin1[n].IsCompl())
		l := ng.And(f0, f1)
		origLit[n] = l
		return l
	}

	// resolve rebuilds node n with substitutions applied at substituted
	// nodes (targets resolved via resolveOrig).
	var resolve func(n Node) Lit
	resolve = func(n Node) Lit {
		if newLit[n] != unset {
			return newLit[n]
		}
		if target, ok := sub[n]; ok {
			l := resolveOrig(target.Node()).NotCond(target.IsCompl())
			newLit[n] = l
			return l
		}
		f0 := resolve(g.fanin0[n].Node()).NotCond(g.fanin0[n].IsCompl())
		f1 := resolve(g.fanin1[n].Node()).NotCond(g.fanin1[n].IsCompl())
		l := ng.And(f0, f1)
		newLit[n] = l
		return l
	}

	for i, po := range g.pos {
		nl := resolve(po.Node()).NotCond(po.IsCompl())
		ng.AddPO(nl, g.poNames[i])
	}
	// A substitution can make a consumer fold to a constant or a fanin after
	// its cone was already rebuilt, stranding the cone as garbage in ng. A
	// second, substitution-free pass rebuilds only what the POs reach; it
	// cannot strand anything itself because a canonical graph re-folds to
	// exactly the same literals.
	refs := ng.RefCounts()
	for n := Node(1); int(n) < ng.NumNodes(); n++ {
		if ng.kind[n] == KindAnd && refs[n] == 0 {
			return ng.CopyWith(nil)
		}
	}
	return ng
}

// Clone returns a deep copy of the graph with identical node ids.
func (g *Graph) Clone() *Graph {
	ng := &Graph{
		Name:    g.Name,
		kind:    append([]Kind(nil), g.kind...),
		fanin0:  append([]Lit(nil), g.fanin0...),
		fanin1:  append([]Lit(nil), g.fanin1...),
		pis:     append([]Node(nil), g.pis...),
		pos:     append([]Lit(nil), g.pos...),
		piNames: append([]string(nil), g.piNames...),
		poNames: append([]string(nil), g.poNames...),
		strash:  make(map[uint64]Node, len(g.strash)),
		nAnds:   g.nAnds,
		free:    append([]Node(nil), g.free...),
		epoch:   append([]uint32(nil), g.epoch...),
	}
	for k, v := range g.strash {
		ng.strash[k] = v
	}
	return ng
}

// Sweep returns a cleaned-up copy: structurally hashed, constants folded and
// dangling nodes removed. Equivalent to CopyWith(nil).
func (g *Graph) Sweep() *Graph { return g.CopyWith(nil) }
