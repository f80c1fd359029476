package opt

import (
	"slices"

	"repro/internal/aig"
	"repro/internal/cut"
	"repro/internal/tt"
	"repro/internal/wordops"
)

// ResubPass performs EXACT (zero-error) resubstitution inside cut windows,
// the optimization counterpart of ALSRAC's approximate LAC and an analog of
// ABC's "resub" command. For every node v and one of its K-feasible cuts,
// the functions of v and of the other nodes inside the cut cone are
// expressed over the cut leaves. These truth tables are the window's
// exhaustive simulation, so a divisor set passes the classical
// resubstitution condition (Theorem 1 of the paper) on them — the check
// wordops.CoverScan runs on the sampled care set of an approximate LAC —
// only when it holds for ALL 2^K window-input patterns. That makes the
// rewrite sound: any primary input assignment induces some window pattern.
//
// Like Rewrite, the pass collects simultaneous exact replacements and
// rebuilds once; it returns an equivalent of g when nothing improves. The
// input graph is never modified.
func ResubPass(g *aig.Graph, k int) *aig.Graph {
	sets := cut.Enumerate(g, cut.Config{K: k, PerNode: 6})
	refs := g.RefCounts()

	var builds []replacement
	for v := aig.Node(1); int(v) < g.NumNodes(); v++ {
		if g.IsAnd(v) {
			builds = bestWindowResub(g, sets, refs, v, builds)
		}
	}
	if len(builds) == 0 {
		return g.Sweep()
	}
	// Superseded builds are replayed too: later covers can share their
	// nodes, and the ids those nodes get decide the order in which CopyWith
	// rebuilds. The last build recorded for a node is its best.
	return rebuild(g, builds)
}

// bestWindowResub looks for the highest-gain exact resubstitution of v
// using one or two divisors drawn from inside its cut cones. It appends to
// builds every candidate that improves on the best gain so far, so v has a
// positive-gain resubstitution exactly when it appends one, and the last one
// appended is the best.
func bestWindowResub(g *aig.Graph, sets *cut.Sets, refs []int32, v aig.Node, builds []replacement) []replacement {
	bestGain := 0
	for _, c := range sets.Cuts(v) {
		if c.IsTrivial(v) || c.Size() < 2 {
			continue
		}
		cone, tabs := cut.Cone(g, v, c.Leaves)
		if len(cone) < 3 {
			continue // fewer than two cone nodes below v
		}
		fv := tabs[len(tabs)-1]
		// Candidate divisors: the leaves and the cone nodes below v.
		k := len(c.Leaves)
		divNodes := append(slices.Clip(c.Leaves), cone[:len(cone)-1]...)
		divTabs := make([]tt.Table, k, len(divNodes))
		for i := range divTabs {
			divTabs[i] = tt.Var(k, i)
		}
		divTabs = append(divTabs, tabs[:len(tabs)-1]...)
		freedBase := g.MFFCSize(v, refs, c.Leaves)

		consider := func(divs []aig.Node, dTabs ...tt.Table) {
			cover, ok := exactCover(fv, dTabs...)
			if !ok {
				return
			}
			gain := freedBase - aig.SOPCost(cover)
			if gain <= bestGain {
				return
			}
			bestGain = gain
			builds = append(builds, replacement{n: v, cov: cover, ins: divs})
		}
		for i, d1 := range divNodes {
			consider([]aig.Node{d1}, divTabs[i])
			for j := i + 1; j < len(divNodes); j++ {
				consider([]aig.Node{d1, divNodes[j]}, divTabs[i], divTabs[j])
			}
		}
	}
	return builds
}

// exactCover runs Theorem 1 on every window minterm: wordops.CoverScan over
// the words of the one or two divisor tables, with all 2^K minterms valid.
// When fv is a function of the divisors it returns an ISOP of that function,
// with the divisor patterns no minterm reaches as don't-cares.
func exactCover(fv tt.Table, divs ...tt.Table) (tt.Cover, bool) {
	var words [2][]uint64
	var inv [2]uint64
	for j, d := range divs {
		words[j] = d.Words()
	}
	on, care, ok := wordops.CoverScan(words[:len(divs)], inv[:len(divs)], fv.Words(), 0, fv.NumBits())
	if !ok {
		return nil, false
	}
	return tt.ISOP(tt.FromOnCare(len(divs), on, care)), true
}
