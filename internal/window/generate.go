package window

import (
	"repro/internal/aig"
	"repro/internal/resub"
	"repro/internal/sim"
)

// Generate produces the windowed candidate set: resub.Scan over the window
// source, which hands the scan, per live AND root, the divisor pool of a
// reconvergence-driven window extracted under wcfg and the window-bounded
// MFFC as gain base, scored on the global care vectors. Candidates come in
// ascending node order, exactly like resub.Generate, and with the zero
// Config every window reaches the PIs, so the two are bitwise identical.
//
// workers, stale and cached follow resub.Scan. The stale closure of package
// core covers every windowed dependency: a root's window, divisor pool and
// window-MFFC are functions of its TFI — fanin structure, logic levels,
// value words and reference counts (the fanout skip limits read the same
// counts) — and any node whose structure or reference count changed seeds
// the closure, which marks its entire transitive fanout, root included.
func Generate(g *aig.Graph, vecs *sim.Vectors, valid int, wcfg Config, rcfg resub.Config,
	workers int, stale []bool, cached []resub.LAC) []resub.LAC {

	levels, fanout := g.Levels(), g.RefCounts()
	return resub.Scan(g, vecs, valid, rcfg, workers, stale, cached, func() resub.Source {
		return &source{ex: NewExtractor(g, wcfg, levels, fanout), desc: rcfg.DescendingLevels}
	})
}

// source is the windowed resub.Source: each root's pool is the divisor pool
// of its window, in the level order the cone source uses.
type source struct {
	ex   *Extractor
	desc bool // resub.Config.DescendingLevels
}

// Pool implements resub.Source. A root Extract skips for its fanout yields
// no pool, so the scan skips it too. The gain base is the root's MFFC inside
// the window: it stops at the window leaves, so it equals the full MFFC when
// the leaves are PIs (the equivalence configuration) and is a lower bound
// otherwise, and windowed gains never overstate the global gain. Every inner
// node's fanins lie in the window, so the walk reaches only window nodes.
func (s *source) Pool(root aig.Node, refs []int32) ([]aig.Node, int, bool) {
	w := s.ex.Extract(root)
	if w == nil {
		return nil, 0, false
	}
	pool := s.ex.Divisors(s.desc)
	return pool, s.ex.g.MFFCSize(root, refs, w.Cut.Leaves), true
}
