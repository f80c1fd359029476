// Package sasimi implements the comparison baseline of the paper's ASIC
// experiments (Tables IV and V): Su et al.'s DAC 2018 method, which is the
// SASIMI substitute-and-simplify LAC — replace a signal by another, similar
// signal, its complement, or a constant — driven by the same greedy flow
// and batch error estimation as ALSRAC. The paper reimplemented Su's method
// inside its own framework; this package does the same by plugging a SASIMI
// candidate generator into core.Run, whose sessions commit every change in
// place like ALSRAC's own.
package sasimi

import (
	"math/bits"
	"sort"

	"repro/internal/aig"
	"repro/internal/core"
	"repro/internal/resub"
	"repro/internal/sim"
	"repro/internal/tt"
)

// Generator proposes single-signal substitution LACs. For every AND node v
// it scans all live signals s with smaller id (ids are topological, also
// after in-place commits recycle freed slots, so s can never be in v's
// fanout cone and substitution cannot create a cycle), ranks them by
// simulated similarity to v, and emits the perNode closest matches in
// either polarity plus the two constants.
type Generator struct{}

// SASIMI's setup: a handful of most-similar substitute signals per target.
const (
	// perNode caps emitted candidates per node (most-similar first).
	perNode = 3
	// maxDiff drops signal pairs that disagree on more than this fraction
	// of the simulated patterns (both polarities considered).
	maxDiff = 0.30
)

type cand struct {
	s    aig.Lit // substitute signal (possibly complemented, or a constant)
	diff int     // disagreeing patterns
}

// Covers of the substitutions: a signal is the one divisor of the identity
// cover, and a constant has no divisor and the empty (false) or the
// tautology (true) cover. LACs share them read-only.
var (
	identity  = tt.Cover{{Pos: 1}}
	tautology = tt.Cover{{}}
)

// substitute returns the LAC that rewires node's references to s, with
// the node's MFFC size as its gain.
func substitute(node aig.Node, s aig.Lit, gain int) resub.LAC {
	switch s {
	case aig.LitFalse:
		return resub.LAC{Node: node, Gain: gain}
	case aig.LitTrue:
		return resub.LAC{Node: node, Cover: tautology, Gain: gain}
	}
	return resub.LAC{Node: node, Divisors: []aig.Lit{s}, Cover: identity, Gain: gain}
}

// Generate implements core.IncrementalGenerator.
func (sg Generator) Generate(g *aig.Graph, care *sim.Vectors, valid int) []core.Candidate {
	return core.WrapLACs(sg.scan(g, care, valid))
}

// GenerateWorkers implements core.IncrementalGenerator. The scan is
// sequential, so the worker count is ignored.
func (sg Generator) GenerateWorkers(g *aig.Graph, care *sim.Vectors, valid, _ int) []core.Candidate {
	return sg.Generate(g, care, valid)
}

// GenerateIncremental implements core.IncrementalGenerator. The generator
// keeps no per-node state to reuse, so every call is a full rescan and the
// cache is nil, which the contract allows.
func (sg Generator) GenerateIncremental(g *aig.Graph, care *sim.Vectors, valid, _ int,
	_ []bool, _ any) ([]core.Candidate, any) {
	return sg.Generate(g, care, valid), nil
}

// scan proposes the substitutions of every live AND node, in node order.
func (sg Generator) scan(g *aig.Graph, care *sim.Vectors, valid int) []resub.LAC {
	words := care.Words
	lastMask := ^uint64(0)
	if valid%64 != 0 {
		lastMask = (uint64(1) << uint(valid%64)) - 1
	}
	fullWords := valid / 64

	// diff counts disagreements between node n's vector and lit s on the
	// valid patterns.
	diffCount := func(n aig.Node, s aig.Lit) int {
		vn := care.Node(n)
		vs := care.Node(s.Node())
		inv := s.IsCompl()
		d := 0
		for w := 0; w < words; w++ {
			x := vn[w] ^ vs[w]
			if inv {
				x = ^x
			}
			if w == fullWords {
				x &= lastMask
			} else if w > fullWords {
				break
			}
			d += bits.OnesCount64(x)
		}
		return d
	}

	refs := g.RefCounts()
	maxBad := int(maxDiff * float64(valid))
	var out []resub.LAC
	for v := aig.Node(1); int(v) < g.NumNodes(); v++ {
		if !g.IsAnd(v) {
			continue
		}
		var cs []cand
		// Constant candidates first (SASIMI includes stuck-at substitutes).
		cs = append(cs,
			cand{s: aig.LitFalse, diff: diffCount(v, aig.LitFalse)},
			cand{s: aig.LitTrue, diff: diffCount(v, aig.LitTrue)},
		)
		// Signal candidates: any live node with a smaller id (PIs
		// included). A freed slot's care vector is stale.
		for s := aig.Node(1); s < v; s++ {
			if k := g.Kind(s); k == aig.KindConst || k == aig.KindDead {
				continue
			}
			d := diffCount(v, aig.MakeLit(s, false))
			if d <= maxBad {
				cs = append(cs, cand{s: aig.MakeLit(s, false), diff: d})
			}
			if valid-d <= maxBad {
				cs = append(cs, cand{s: aig.MakeLit(s, true), diff: valid - d})
			}
		}
		sort.SliceStable(cs, func(i, j int) bool { return cs[i].diff < cs[j].diff })
		n := perNode
		if n > len(cs) {
			n = len(cs)
		}
		mffc := g.MFFCSize(v, refs, nil)
		for _, c := range cs[:n] {
			out = append(out, substitute(v, c.s, mffc))
		}
	}
	return out
}

// Configure rewires ALSRAC flow options to run Su's method: the SASIMI
// generator with a fixed 512-pattern similarity budget for substitute
// detection (no adaptive N — that mechanism is ALSRAC's contribution).
func Configure(opts core.Options) core.Options {
	opts.Generator = Generator{}
	opts.InitialRounds = 512
	opts.Scale = 1.0 // N stays fixed; adaptive care sets are ALSRAC's trick
	return opts
}
