package alsrac

// The benchmark harness regenerates every table of the paper's evaluation
// (Tables III-VII; Fig. 1 and Tables I/II are unit tests in internal/resub)
// plus the ablation studies called out in DESIGN.md. The table benchmarks
// use exp.BenchPreset — a trimmed threshold sweep and evaluation budget so
// `go test -bench=.` finishes on a laptop; run `cmd/exptables` (optionally
// without -quick) for the paper-faithful sweeps. Ratios, not absolute
// times, are the reproduction target.

import (
	"fmt"
	"testing"

	"repro/internal/aig"
	"repro/internal/bench"
	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/errest"
	"repro/internal/espresso"
	"repro/internal/exp"
	"repro/internal/mapper"
	"repro/internal/opt"
	"repro/internal/resub"
	"repro/internal/sim"
	"repro/internal/tt"
)

// --- Tables ---------------------------------------------------------------

func BenchmarkTableIII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		table := exp.TableIII()
		if i == 0 {
			b.Logf("\n%s", table)
		}
	}
}

func benchTable(b *testing.B, table int) {
	cfg := exp.BenchPreset(table)
	for i := 0; i < b.N; i++ {
		rows := exp.CompareSuite(exp.Suite(table), cfg, nil)
		mean := rows[len(rows)-1]
		b.ReportMetric(100*mean.AreaRatioA, "ALSRAC_area%")
		b.ReportMetric(100*mean.AreaRatioB, "baseline_area%")
		b.ReportMetric(100*mean.DelayRatioA, "ALSRAC_delay%")
		b.ReportMetric(100*mean.DelayRatioB, "baseline_delay%")
		if i == 0 {
			title := fmt.Sprintf("Table %d (bench preset): ALSRAC vs %s method (%s <= %v)",
				table, exp.BaselineName(table), cfg.Metric, cfg.Thresholds)
			b.Logf("\n%s", exp.Render(title, "ALSRAC", exp.BaselineName(table), rows))
		}
	}
}

func BenchmarkTableIV(b *testing.B)  { benchTable(b, 4) } // ASIC, ER, vs Su's
func BenchmarkTableV(b *testing.B)   { benchTable(b, 5) } // ASIC, NMED, vs Su's
func BenchmarkTableVI(b *testing.B)  { benchTable(b, 6) } // FPGA, ER, vs Liu's
func BenchmarkTableVII(b *testing.B) { benchTable(b, 7) } // FPGA, MRED, vs Liu's

// --- Ablations (design choices called out in DESIGN.md) --------------------

// BenchmarkAblationCareRounds sweeps the initial care-set size N: the
// paper's motivation for adaptive N is that small N widens the
// approximation space while large N approaches exact resubstitution.
func BenchmarkAblationCareRounds(b *testing.B) {
	g := opt.Optimize(bench.CLA(32))
	base := mapper.MapCells(g, cell.MCNC())
	for _, n := range []int{8, 32, 128, 512} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := core.DefaultOptions(errest.NMED, 0.0019531)
				opts.EvalPatterns = 1024
				opts.InitialRounds = n
				res := core.Run(g, opts)
				m := mapper.MapCells(res.Graph, cell.MCNC())
				b.ReportMetric(100*m.Area/base.Area, "area%")
				b.ReportMetric(float64(res.Applied), "LACs")
			}
		})
	}
}

// BenchmarkAblationOptimize toggles the inter-iteration exact optimization
// (Algorithm 3 line 9).
func BenchmarkAblationOptimize(b *testing.B) {
	g := opt.Optimize(bench.RCA(32))
	base := mapper.MapCells(g, cell.MCNC())
	for _, skip := range []bool{false, true} {
		name := "with-resyn"
		if skip {
			name = "without-resyn"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := core.DefaultOptions(errest.NMED, 0.0019531)
				opts.EvalPatterns = 1024
				opts.SkipOptimize = skip
				res := core.Run(g, opts)
				m := mapper.MapCells(res.Graph, cell.MCNC())
				b.ReportMetric(100*m.Area/base.Area, "area%")
			}
		})
	}
}

// BenchmarkAblationMinimizer compares plain Minato ISOP against the
// Espresso-style minimizer for deriving resubstitution functions.
func BenchmarkAblationMinimizer(b *testing.B) {
	g := opt.Optimize(bench.ArrayMult(8))
	base := mapper.MapCells(g, cell.MCNC())
	for _, esp := range []bool{false, true} {
		name := "isop"
		if esp {
			name = "espresso"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := core.DefaultOptions(errest.NMED, 0.0019531)
				opts.EvalPatterns = 1024
				opts.UseEspresso = esp
				res := core.Run(g, opts)
				m := mapper.MapCells(res.Graph, cell.MCNC())
				b.ReportMetric(100*m.Area/base.Area, "area%")
			}
		})
	}
}

// BenchmarkAblationDivisorOrder compares the paper's ascending-level
// divisor scan against a descending (closest-first) scan.
func BenchmarkAblationDivisorOrder(b *testing.B) {
	g := opt.Optimize(bench.ArrayMult(8))
	base := mapper.MapCells(g, cell.MCNC())
	for _, desc := range []bool{false, true} {
		name := "ascending"
		if desc {
			name = "descending"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := core.DefaultOptions(errest.NMED, 0.0019531)
				opts.EvalPatterns = 1024
				opts.Generator = core.ResubGenerator{Cfg: resub.Config{
					MaxLACsPerNode: 1, MaxDivisors: 8, DescendingLevels: desc,
				}}
				res := core.Run(g, opts)
				m := mapper.MapCells(res.Graph, cell.MCNC())
				b.ReportMetric(100*m.Area/base.Area, "area%")
			}
		})
	}
}

// BenchmarkAblationBatchVsNaive measures the batch error estimator (Su
// DAC'18, reused by ALSRAC) against naive per-candidate resimulation —
// the speedup the paper attributes to batching. Each batch iteration pays
// the estimator's setup too: it simulates the circuit into a fresh arena,
// ranks every candidate against it and releases both.
func BenchmarkAblationBatchVsNaive(b *testing.B) {
	g := opt.Optimize(bench.CLA(32))
	pats := sim.Uniform(g.NumPIs(), 32, 5) // 2048 patterns
	ev := errest.NewEvaluator(g, pats, errest.ER)
	care := sim.UniformN(g.NumPIs(), 32, 7)
	vecs := sim.Simulate(g, care)
	lacs := resub.Generate(g, vecs, care.Valid, resub.DefaultConfig(), 1, nil, nil)
	if len(lacs) == 0 {
		b.Skip("no candidates generated")
	}

	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			arena := sim.NewArena(g, pats, 1)
			batch := errest.NewBatch(ev, arena)
			// One unbounded Score call per run of candidates at one node.
			for lo := 0; lo < len(lacs); {
				hi := lo + 1
				for hi < len(lacs) && lacs[hi].Node == lacs[lo].Node {
					hi++
				}
				news := batch.Rows(hi - lo)
				for j := lo; j < hi; j++ {
					lacs[j].EvalVec(batch.Vectors(), news[j-lo])
				}
				_ = batch.Score(lacs[lo].Node, news, nil)
				lo = hi
			}
			batch.Release()
			arena.Release()
		}
		b.ReportMetric(float64(len(lacs)), "candidates")
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := range lacs {
				ng := lacs[j].Apply(g.Clone())
				_ = ev.EvalGraph(ng, pats)
			}
		}
		b.ReportMetric(float64(len(lacs)), "candidates")
	})
}

// --- Microbenchmarks of the substrates -------------------------------------

func BenchmarkSimulate(b *testing.B) {
	g := bench.CLA(32)
	p := sim.Uniform(g.NumPIs(), 256, 1) // 16384 patterns
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				v := sim.SimulateWorkers(g, p, workers)
				v.Release()
			}
			b.ReportMetric(float64(g.NumAnds()*256*64), "gate-evals/op")
		})
	}
}

func BenchmarkISOP(b *testing.B) {
	on := tt.Var(8, 0).Xor(tt.Var(8, 3)).Or(tt.Var(8, 5).And(tt.Var(8, 7)))
	dc := tt.Var(8, 1).And(on.Not())
	onn := on.AndNot(dc)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tt.ISOP(onn, dc)
	}
}

func BenchmarkEspresso(b *testing.B) {
	on := tt.Var(8, 0).Xor(tt.Var(8, 3)).Or(tt.Var(8, 5).And(tt.Var(8, 7)))
	dc := tt.Var(8, 1).And(on.Not())
	onn := on.AndNot(dc)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = espresso.Minimize(onn, dc)
	}
}

func BenchmarkGenerate(b *testing.B) {
	g := opt.Optimize(bench.CLA(32))
	care := sim.UniformN(g.NumPIs(), 32, 7)
	vecs := sim.Simulate(g, care)
	defer vecs.Release()
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = resub.Generate(g, vecs, care.Valid, resub.DefaultConfig(), workers, nil, nil)
			}
		})
	}
}

// BenchmarkOptimize times the optimizer script on an arithmetic circuit and
// on the 13.2k-AND MAC tree the benchmark's mac-windowed workload runs on.
func BenchmarkOptimize(b *testing.B) {
	for _, c := range []struct {
		name string
		g    *aig.Graph
	}{
		{"wallace8", bench.WallaceMult(8)},
		{"mac24x8", bench.MACTree(24, 8, 1)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = opt.Optimize(c.g)
			}
		})
	}
}

func BenchmarkMapLUT6(b *testing.B) {
	g := opt.Optimize(bench.ArrayMult(8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := mapper.MapLUT(g, 6)
		if i == 0 {
			b.ReportMetric(float64(r.LUTs), "LUTs")
		}
	}
}

func BenchmarkMapCells(b *testing.B) {
	g := opt.Optimize(bench.ArrayMult(8))
	lib := cell.MCNC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := mapper.MapCells(g, lib)
		if i == 0 {
			b.ReportMetric(r.Area, "area")
		}
	}
}

func BenchmarkALSRACFlowRCA32(b *testing.B) {
	g := opt.Optimize(bench.RCA(32))
	for i := 0; i < b.N; i++ {
		opts := core.DefaultOptions(errest.NMED, 0.0002441)
		opts.EvalPatterns = 1024
		_ = core.Run(g, opts)
	}
}
