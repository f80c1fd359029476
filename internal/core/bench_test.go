package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/errest"
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
// arithmetic and certified flows do.
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
}

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
