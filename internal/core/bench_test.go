package core

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/aig"
	"repro/internal/bench"
	"repro/internal/errest"
	"repro/internal/exact"
	"repro/internal/opt"
	"repro/internal/resub"
	"repro/internal/sim"
)

// BenchmarkRankCandidates measures one candidate-ranking pass — the flow's
// dominant cost — as a session runs it: against an evaluation arena that is
// already up to date, built once outside the timed loop, so the batch setup
// borrows the arena's vectors and fanout index and simulates nothing. With
// pooled buffers the steady-state allocation count per op stays near zero
// (the candidate grouping, goroutine bookkeeping and each fork's event
// queue remain). The workers=N cases rank by ER, as the windowed flows do;
// the NMED/workers=N cases rank the same candidates by NMED, as the
// arithmetic and certified flows do. The mac/workers=N cases rank the
// first windowed round of a 13k-AND MAC tree by ER, as the mac-windowed
// workload does: thousands of candidates whose probe walks cross long
// fanout cones, almost all of them pruned.
func BenchmarkRankCandidates(b *testing.B) {
	g := rippleAdder(32)
	evalPats := sim.Uniform(g.NumPIs(), 64, 1) // 4096 patterns
	arena := sim.NewArena(g, evalPats, 1)
	defer arena.Release()

	// A small care set (many don't-cares) so the generator proposes a
	// realistic candidate batch, as in an early flow iteration.
	care := sim.UniformN(g.NumPIs(), 32, 7)
	vecs := sim.SimulateWorkers(g, care, 1)
	cfg := resub.DefaultConfig()
	cfg.MaxLACsPerNode = 8
	gen := ResubGenerator{Cfg: cfg}
	cands := gen.Generate(g, vecs, care.Valid)
	vecs.Release()
	if len(cands) == 0 {
		b.Fatal("no candidates generated")
	}

	for _, metric := range []errest.Metric{errest.ER, errest.NMED} {
		ev := errest.NewEvaluator(g, evalPats, metric)
		prefix := ""
		if metric != errest.ER {
			prefix = metric.String() + "/"
		}
		for _, workers := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%sworkers=%d", prefix, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					_ = rankCandidates(context.Background(), ev, arena, cands, workers)
				}
				b.ReportMetric(float64(len(cands)), "candidates")
			})
		}
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("mac/workers=%d", workers), func(b *testing.B) {
			s, cands := macRound()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = rankCandidates(context.Background(), s.ev, s.evalArena, cands, workers)
			}
			b.ReportMetric(float64(len(cands)), "candidates")
		})
	}
}

// macRound is the fixture of BenchmarkRankCandidates' mac cases, built once
// per process: a windowed ER session with the mac-windowed workload's
// options (1,024 evaluation patterns, 16 initial care rounds) on the
// pre-optimized MACTree(24, 8, 1), and the candidates of its first step.
var macRound = sync.OnceValues(func() (*Session, []Candidate) {
	opts := DefaultOptions(errest.ER, 0.05)
	opts.EvalPatterns = 1024
	opts.InitialRounds = 16
	opts.Windowed = true
	s := NewSession(opt.Optimize(bench.MACTree(24, 8, 1)), opts)
	cands, _ := s.generateIncremental(s.patternSeed(s.iterations + 1))
	return s, cands
})

// BenchmarkOptimizeFlush times the optimizer flush on the inputs the
// arith-global workload flushes: a pre-optimized arithmetic circuit with
// one candidate committed in place. One op optimizes, for each of rca32,
// cla16, ksa16, mtp6 and wal6, every candidate of the first generation
// round of an NMED ≤ 0.001 session, each committed to its own clone. Unlike
// BenchmarkOptimize's unoptimized inputs, these start next to a fixpoint of
// the script.
func BenchmarkOptimizeFlush(b *testing.B) {
	graphs := flushInputs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range graphs {
			_ = opt.Optimize(g)
		}
	}
	b.ReportMetric(float64(len(graphs)), "graphs")
}

// flushInputs is the fixture of BenchmarkOptimizeFlush, built once per
// process.
var flushInputs = sync.OnceValue(func() []*aig.Graph {
	var graphs []*aig.Graph
	for _, g := range []*aig.Graph{
		bench.RCA(32), bench.CLA(16), bench.KSA(16), bench.ArrayMult(6), bench.WallaceMult(6),
	} {
		opts := DefaultOptions(errest.NMED, 0.001)
		opts.Workers = 1
		s := NewSession(opt.Optimize(g), opts)
		cands, _ := s.generateIncremental(s.patternSeed(s.iterations + 1))
		for _, c := range cands {
			h := s.cur.Clone()
			c.ApplyInPlace(h, nil)
			graphs = append(graphs, h)
		}
		s.releaseArenas()
	}
	return graphs
})

// BenchmarkSessionStep measures one full flow iteration — generation with the persistent arenas and candidate cache, ranking
// against the borrowed eval vectors, and an in-place commit with dirty-TFO
// resimulation. Sessions that finish mid-loop are replaced outside the timer.
func BenchmarkSessionStep(b *testing.B) {
	g := rippleAdder(32)
	opts := DefaultOptions(errest.NMED, 0.001)
	opts.EvalPatterns = 4096
	opts.Workers = 1

	s := NewSession(g, opts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.Done() {
			b.StopTimer()
			s = NewSession(g, opts)
			b.StartTimer()
		}
		if _, err := s.Step(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWindowedFlow measures session start-up plus the first windowed
// iteration on a mid-size MACTree member (tens of thousands of AND nodes):
// initial simulation, per-root window extraction, local care-set scanning
// and the first ranked commit. This is the per-iteration unit cost the
// million-node smoke (TestBigBenchWindowedSmoke) scales up, so it gates the
// windowed hot path against regressions at a size the bench harness can
// afford to repeat.
func BenchmarkWindowedFlow(b *testing.B) {
	g := bench.MACTree(64, 8, 1)
	opts := DefaultOptions(errest.ER, 0.05)
	opts.EvalPatterns = 1024
	opts.InitialRounds = 16
	opts.Workers = 4
	opts.Windowed = true

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewSession(g, opts)
		if _, err := s.Step(context.Background()); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if _, ok := s.opts.Generator.(WindowedGenerator); !ok {
			b.Fatal("session did not take the windowed path")
		}
		s.releaseArenas()
		b.StartTimer()
	}
	b.ReportMetric(float64(g.NumAnds()), "ANDs")
}

// certFlowMaxError is the bound of BenchmarkCertifyFlow, the certified
// flow's NMED threshold and exact maximum-error bound at once.
const certFlowMaxError = 0.002

// certPair is one certification of a certified flow: the working graph a
// step started from and the trial it certified.
type certPair struct{ base, trial *aig.Graph }

// certFlow is the fixture of BenchmarkCertifyFlow, built once per process:
// the pre-optimized 16-bit carry-lookahead adder and the pairs its first 100
// certified steps at seed 1 certify.
var certFlow = sync.OnceValues(func() (certFixture, error) {
	g := opt.Optimize(bench.CLA(16))
	opts := DefaultOptions(errest.NMED, certFlowMaxError)
	opts.MaxError = certFlowMaxError
	opts.Workers = 1
	pairs, err := certPairs(g, opts, 100)
	return certFixture{g, pairs}, err
})

type certFixture struct {
	orig  *aig.Graph
	pairs []certPair
}

// certPairs steps a certified session and returns the pair of every step
// that certified. A checkpoint copy of the session elects the winner the
// live step elects (Restore is bitwise faithful), so the trial is read off
// the copy without touching the live session; a separate checker confirms
// that each pair gets the live step's verdict.
func certPairs(g *aig.Graph, opts Options, steps int) ([]certPair, error) {
	ctx := context.Background()
	chk, err := exact.New(g, exact.Config{})
	if err != nil {
		return nil, err
	}
	s := NewSession(g, opts)
	var pairs []certPair
	for i := 0; i < steps && !s.Done(); i++ {
		var ckpt bytes.Buffer
		if err := s.Snapshot(&ckpt); err != nil {
			return nil, err
		}
		peek, err := Restore(&ckpt, opts)
		if err != nil {
			return nil, err
		}
		ev, err := s.Step(ctx)
		if err != nil {
			return nil, err
		}
		if ev.Kind == EventCertified || ev.Kind == EventCertRejected {
			cands, _ := peek.generateIncremental(peek.patternSeed(peek.iterations + 1))
			best := rankCandidates(ctx, peek.ev, peek.evalArena, cands, peek.workers)
			p := certPair{peek.cur, best.Apply(peek.cur.Clone())}
			cert, err := chk.Certify(p.base, p.trial, opts.MaxError)
			if err != nil || cert.OK != (ev.Kind == EventCertified) {
				return nil, fmt.Errorf("iter %d: the copy's trial gets %+v, %v; the step was %s", ev.Iteration, cert, err, ev.Kind)
			}
			pairs = append(pairs, p)
		}
		peek.releaseArenas()
	}
	return pairs, nil
}

// BenchmarkCertifyFlow measures the certifications of a real certified flow:
// each op certifies, in order, every (working graph, trial) pair of the
// first 100 steps of a cla16 flow at NMED = MaxError = 0.002 — all by SAT,
// about a fifth of them rejections. Unlike BenchmarkCertifySAT's one-shot
// fixture, these instances cost milliseconds each, and they are where the
// certified workload spends its certification time.
func BenchmarkCertifyFlow(b *testing.B) {
	f, err := certFlow()
	if err != nil {
		b.Fatal(err)
	}
	chk, err := exact.New(f.orig, exact.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range f.pairs {
			if _, err := chk.Certify(p.base, p.trial, certFlowMaxError); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(f.pairs)), "certs")
}
