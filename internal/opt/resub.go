package opt

import (
	"repro/internal/aig"
	"repro/internal/cut"
	"repro/internal/tt"
)

// ResubPass performs EXACT (zero-error) resubstitution inside cut windows,
// the optimization counterpart of ALSRAC's approximate LAC and an analog of
// ABC's "resub" command. For every node v and one of its K-feasible cuts,
// the functions of v and of the other nodes inside the cut cone are
// expressed over the cut leaves; a divisor set is accepted only when the
// classical resubstitution condition (Theorem 1 of the paper) holds for
// ALL 2^K window-input patterns, which makes the rewrite sound: any primary
// input assignment induces some window pattern.
//
// Like Rewrite, the pass collects simultaneous exact replacements and
// rebuilds once; it returns an equivalent of g when nothing improves. The
// input graph is never modified.
func ResubPass(g *aig.Graph, k int) *aig.Graph {
	sets := cut.Enumerate(g, cut.Config{K: k, PerNode: 6})
	refs := g.RefCounts()

	var builds []resubBuild
	for v := aig.Node(1); int(v) < g.NumNodes(); v++ {
		if g.IsAnd(v) {
			builds = bestWindowResub(g, sets, refs, v, builds)
		}
	}
	if len(builds) == 0 {
		return g.Sweep()
	}
	// Replay the recorded builds on a clone, in scan order, leaving g
	// untouched. Superseded builds are replayed too: later covers can
	// share their nodes, and the ids those nodes get decide the order in
	// which CopyWith rebuilds. The last build recorded for a node is its
	// best.
	work := g.Clone()
	sub := make(map[aig.Node]aig.Lit)
	for _, b := range builds {
		sub[b.v] = buildCover(work, b.cov, b.divs)
	}
	ng := work.CopyWith(sub)
	if ng.NumAnds() >= g.NumAnds() {
		return g.Sweep()
	}
	return ng
}

// resubBuild is an improving resubstitution of v found during the scan: the
// cover over the divisor nodes divs.
type resubBuild struct {
	v    aig.Node
	cov  tt.Cover
	divs []aig.Node
}

// bestWindowResub looks for the highest-gain exact resubstitution of v
// using one or two divisors drawn from inside its cut cones. It appends to
// builds every candidate that improves on the best gain so far, so v has a
// positive-gain resubstitution exactly when it appends one, and the last one
// appended is the best.
func bestWindowResub(g *aig.Graph, sets *cut.Sets, refs []int32, v aig.Node, builds []resubBuild) []resubBuild {
	bestGain := 0
	for _, c := range sets.Cuts(v) {
		if c.IsTrivial(v) || c.Size() < 2 {
			continue
		}
		cone := windowNodes(g, v, c.Leaves)
		if len(cone) < 2 {
			continue // only v itself: nothing to resubstitute with
		}
		fv := cut.Table(g, v, c.Leaves)
		// Candidate divisors: leaves and internal cone nodes except v.
		divNodes := append(append([]aig.Node(nil), c.Leaves...), cone...)
		tabs := make([]tt.Table, len(divNodes))
		for i, d := range divNodes {
			tabs[i] = cut.Table(g, d, c.Leaves)
		}
		freedBase := coneFreed(g, v, c.Leaves, refs)

		consider := func(divs []aig.Node, dTabs []tt.Table) {
			cover, ok := exactCover(fv, dTabs)
			if !ok {
				return
			}
			cost := coverAndCost(cover)
			gain := freedBase - cost
			if gain <= bestGain {
				return
			}
			bestGain = gain
			builds = append(builds, resubBuild{v: v, cov: cover, divs: divs})
		}
		for i, d1 := range divNodes {
			if d1 == v {
				continue
			}
			consider([]aig.Node{d1}, []tt.Table{tabs[i]})
			for j := i + 1; j < len(divNodes); j++ {
				if divNodes[j] == v {
					continue
				}
				consider([]aig.Node{d1, divNodes[j]}, []tt.Table{tabs[i], tabs[j]})
			}
		}
	}
	return builds
}

// windowNodes returns the AND nodes strictly inside the cut cone of root,
// root excluded.
func windowNodes(g *aig.Graph, root aig.Node, leaves []aig.Node) []aig.Node {
	inLeaves := make(map[aig.Node]bool, len(leaves))
	for _, l := range leaves {
		inLeaves[l] = true
	}
	seen := map[aig.Node]bool{}
	var out []aig.Node
	var walk func(aig.Node)
	walk = func(n aig.Node) {
		if seen[n] || inLeaves[n] || !g.IsAnd(n) {
			return
		}
		seen[n] = true
		walk(g.Fanin0(n).Node())
		walk(g.Fanin1(n).Node())
		if n != root {
			out = append(out, n)
		}
	}
	walk(root)
	return out
}

// exactCover checks whether fv is a function of the divisor tables on every
// window minterm (Theorem 1, exhaustively), and if so returns an ISOP of
// that function over the divisors (unreached divisor patterns become
// don't-cares).
func exactCover(fv tt.Table, divs []tt.Table) (tt.Cover, bool) {
	k := len(divs)
	on := tt.New(k)
	care := tt.New(k)
	for m := 0; m < fv.NumBits(); m++ {
		key := 0
		for j := range divs {
			if divs[j].Get(m) {
				key |= 1 << uint(j)
			}
		}
		val := fv.Get(m)
		if care.Get(key) {
			if on.Get(key) != val {
				return nil, false
			}
			continue
		}
		care.Set(key, true)
		if val {
			on.Set(key, true)
		}
	}
	return tt.ISOP(on, care.Not()), true
}
