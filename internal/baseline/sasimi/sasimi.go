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
	"repro/internal/sim"
)

// Generator proposes single-signal substitution LACs. For every AND node v
// it scans all live signals s with smaller id (ids are topological, also
// after in-place commits recycle freed slots, so s can never be in v's
// fanout cone and substitution cannot create a cycle), ranks them by
// simulated similarity to v, and emits the closest matches in either
// polarity plus the two constants.
type Generator struct {
	// PerNode caps emitted candidates per node (most-similar first).
	PerNode int
	// MaxDiff drops signal pairs that disagree on more than this fraction
	// of the simulated patterns (both polarities considered).
	MaxDiff float64
}

// DefaultGenerator mirrors SASIMI's setup: a handful of most-similar
// substitute signals per target.
func DefaultGenerator() Generator { return Generator{PerNode: 3, MaxDiff: 0.30} }

type cand struct {
	s    aig.Lit // substitute signal (possibly complemented, or a constant)
	diff int     // disagreeing patterns
}

// substitution is one proposed change: node's references are rewired to sub.
type substitution struct {
	node aig.Node
	sub  aig.Lit
	gain int // node's MFFC size
}

func (sb substitution) candidate() core.Candidate {
	node, sub := sb.node, sb.sub
	return core.Candidate{
		Node: node,
		Gain: sb.gain,
		NewVec: func(vecs *sim.Vectors, dst []uint64) {
			vecs.LitInto(sub, dst)
		},
		Apply: func(g *aig.Graph) *aig.Graph {
			return g.CopyWith(map[aig.Node]aig.Lit{node: sub})
		},
		ApplyInPlace: func(g *aig.Graph, touched *[]aig.Node) {
			g.ReplaceNode(node, sub, touched)
		},
	}
}

// Generate implements core.IncrementalGenerator.
func (sg Generator) Generate(g *aig.Graph, care *sim.Vectors, valid int) []core.Candidate {
	subs := sg.scan(g, care, valid)
	out := make([]core.Candidate, len(subs))
	for i, sb := range subs {
		out[i] = sb.candidate()
	}
	return out
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
func (sg Generator) scan(g *aig.Graph, care *sim.Vectors, valid int) []substitution {
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
	maxDiff := int(sg.MaxDiff * float64(valid))
	var out []substitution
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
			if d <= maxDiff {
				cs = append(cs, cand{s: aig.MakeLit(s, false), diff: d})
			}
			if valid-d <= maxDiff {
				cs = append(cs, cand{s: aig.MakeLit(s, true), diff: valid - d})
			}
		}
		sort.SliceStable(cs, func(i, j int) bool { return cs[i].diff < cs[j].diff })
		n := sg.PerNode
		if n > len(cs) {
			n = len(cs)
		}
		mffc := g.MFFCSize(v, refs)
		for _, c := range cs[:n] {
			out = append(out, substitution{node: v, sub: c.s, gain: mffc})
		}
	}
	return out
}

// Configure rewires ALSRAC flow options to run Su's method: the SASIMI
// generator with a fixed 512-pattern similarity budget for substitute
// detection (no adaptive N — that mechanism is ALSRAC's contribution).
func Configure(opts core.Options) core.Options {
	opts.Generator = DefaultGenerator()
	opts.InitialRounds = 512
	opts.Scale = 1.0 // N stays fixed; adaptive care sets are ALSRAC's trick
	return opts
}
