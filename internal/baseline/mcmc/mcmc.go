// Package mcmc implements the comparison baseline of the paper's FPGA
// experiments (Tables VI and VII): a stochastic approximate logic synthesis
// flow in the style of Liu and Zhang's "statistically certified ALS"
// (ICCAD 2017), which explores the space of local changes with Markov chain
// Monte Carlo moves. Each proposal replaces a random node by a constant,
// one of its fanins, or another similar signal; moves that keep the
// simulated error within the threshold are accepted with a Metropolis
// criterion on the area change, and the best circuit seen is returned.
//
// Simplifications versus the original (documented in DESIGN.md): error
// certification uses the same fixed Monte-Carlo pattern budget as the rest
// of this repository instead of sequential hypothesis testing, and the
// proposal distribution is uniform over move kinds.
package mcmc

import (
	"math"
	"math/rand"

	"repro/internal/aig"
	"repro/internal/errest"
	"repro/internal/opt"
	"repro/internal/sim"
)

// The cooling schedule: the Metropolis temperature starts at initTemp, in
// AND-node units, and decays by coolingRate per proposal.
const (
	initTemp    = 4
	coolingRate = 0.999
)

// Options configures a stochastic ALS run.
type Options struct {
	Metric    errest.Metric
	Threshold float64

	Proposals    int   // number of MCMC proposals
	EvalPatterns int   // Monte-Carlo pattern budget
	Seed         int64 //
	// OptimizeEvery runs exact re-optimization after this many accepted
	// moves (0 disables periodic optimization; a final pass always runs).
	OptimizeEvery int
}

// DefaultOptions returns a setup comparable to the ALSRAC runs: the same
// evaluation budget and a proposal count that scales with circuit size.
func DefaultOptions(metric errest.Metric, threshold float64) Options {
	return Options{
		Metric:        metric,
		Threshold:     threshold,
		Proposals:     4000,
		EvalPatterns:  8192,
		Seed:          1,
		OptimizeEvery: 25,
	}
}

// Result is the outcome of a stochastic run.
type Result struct {
	Graph      *aig.Graph
	FinalError float64
	Proposed   int
	Accepted   int
}

// Run performs MCMC-based approximate synthesis of g.
func Run(g *aig.Graph, o Options) Result {
	rng := rand.New(rand.NewSource(o.Seed))

	evalWords := (o.EvalPatterns + 63) / 64
	if evalWords < 1 {
		evalWords = 1
	}
	pats := sim.Uniform(g.NumPIs(), evalWords, o.Seed)
	ev := errest.NewEvaluator(g, pats, o.Metric)

	cur := opt.Optimize(g)
	best := cur
	bestArea := cur.NumAnds()
	temp := float64(initTemp)

	res := Result{}
	// One arena holds the simulation of the current circuit that every
	// proposal is ranked against; an accepted move rebinds it to the new
	// circuit. The batch borrows the arena, so it is released first.
	arena := sim.NewArena(cur, pats, 1)
	batch := errest.NewBatch(ev, arena)
	sinceOpt := 0
	// The proposal's replacement vector, as the one candidate of each
	// scoring call.
	newVec := make([]uint64, pats.Words)
	news := [][]uint64{newVec}

	for res.Proposed < o.Proposals {
		res.Proposed++
		temp *= coolingRate

		ands := andNodes(cur)
		if len(ands) == 0 {
			break
		}
		v := ands[rng.Intn(len(ands))]

		// Propose a replacement literal for v.
		var sub aig.Lit
		switch rng.Intn(4) {
		case 0:
			sub = aig.LitFalse
		case 1:
			sub = aig.LitTrue
		case 2:
			// One of v's fanins (wire move), random phase.
			f := cur.Fanin0(v)
			if rng.Intn(2) == 0 {
				f = cur.Fanin1(v)
			}
			sub = f.NotCond(rng.Intn(2) == 0)
		default:
			// A random earlier signal, random phase.
			s := aig.Node(1 + rng.Intn(int(v)))
			if cur.Kind(s) == aig.KindConst {
				s = cur.PI(rng.Intn(cur.NumPIs()))
			}
			sub = aig.MakeLit(s, rng.Intn(2) == 0)
		}

		// Estimate the error cheaply with the batch estimator, unbounded.
		batch.Vectors().LitInto(sub, newVec)
		err := batch.Score(v, news, nil)[0]
		if err > o.Threshold {
			continue
		}

		// Metropolis acceptance on the error-budget consumption: moves that
		// do not increase the error are always taken; budget-consuming moves
		// are accepted with probability decaying as the chain cools.
		curErr := batch.CurrentError()
		if err > curErr && o.Threshold > 0 {
			p := math.Exp(-(err - curErr) / (o.Threshold * math.Max(temp, 1e-6)))
			if rng.Float64() >= p {
				continue
			}
		}
		cand := cur.CopyWith(map[aig.Node]aig.Lit{v: sub})
		res.Accepted++
		sinceOpt++
		cur = cand
		if o.OptimizeEvery > 0 && sinceOpt >= o.OptimizeEvery {
			cur = opt.Optimize(cur)
			sinceOpt = 0
		}
		batch.Release()
		arena.Rebind(cur, pats)
		batch = errest.NewBatch(ev, arena)

		if cur.NumAnds() < bestArea && batch.CurrentError() <= o.Threshold {
			best = cur
			bestArea = cur.NumAnds()
		}
	}

	batch.Release()
	arena.Release()

	best = opt.Optimize(best)
	res.Graph = best
	res.FinalError = ev.EvalGraph(best, pats)
	return res
}

func andNodes(g *aig.Graph) []aig.Node {
	var out []aig.Node
	for n := aig.Node(1); int(n) < g.NumNodes(); n++ {
		if g.IsAnd(n) {
			out = append(out, n)
		}
	}
	return out
}
