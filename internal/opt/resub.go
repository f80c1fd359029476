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
// resubstitution condition (Theorem 1 of the paper) on them — through
// wordops.CoverTest, the kernel the LAC scan runs on its sampled care set —
// only when it holds for ALL 2^K window-input patterns. That makes the
// rewrite sound: any primary input assignment induces some window pattern.
// The cover is tt.ISOPOnCare's, shared and only read.
//
// Like Rewrite, the pass collects simultaneous exact replacements and
// rebuilds once. It returns the rebuilt graph only when it has fewer ANDs
// than g swept, and g swept otherwise, so dangling logic in g never makes
// the result larger than the sweep. The input graph is never modified.
func ResubPass(g *aig.Graph, k int) *aig.Graph {
	sets := cut.Enumerate(g, cut.Config{K: k, PerNode: 6})
	refs := g.RefCounts()

	var builds []replacement
	for v := aig.Node(1); int(v) < g.NumNodes(); v++ {
		if g.IsAnd(v) {
			builds = bestWindowResub(g, sets, refs, v, builds)
		}
	}
	swept := g.Sweep()
	if len(builds) == 0 {
		return swept
	}
	// Superseded builds are replayed too: later covers can share their
	// nodes, and the ids those nodes get decide the order in which CopyWith
	// rebuilds. The last build recorded for a node is its best.
	if ng := rebuild(g, builds); ng.NumAnds() < swept.NumAnds() {
		return ng
	}
	return swept
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

		consider := func(divs []aig.Node, on, care uint64) {
			cover := tt.ISOPOnCare(len(divs), on, care)
			gain := freedBase - aig.SOPCost(cover)
			if gain <= bestGain {
				return
			}
			bestGain = gain
			builds = append(builds, replacement{n: v, cov: cover, ins: divs})
		}
		// Every window minterm is valid: the divisor set is a function
		// check over all 2^k leaf patterns.
		ct := wordops.NewCoverTest(fv.NumBits())
		for i, d1 := range divNodes {
			if on, care, ok := ct.Prepare(divTabs[i].Words(), 0, fv.Words(), 0); ok {
				consider([]aig.Node{d1}, on, care)
			}
			for j := i + 1; j < len(divNodes); j++ {
				if on, care, ok := ct.Add(divTabs[j].Words(), 0); ok {
					consider([]aig.Node{d1, divNodes[j]}, on, care)
				}
			}
		}
	}
	return builds
}
