package main

import (
	"math/rand"

	"repro/internal/aig"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/errest"
	"repro/internal/opt"
)

// workload is one set of inputs the benchmark runs. open builds the inputs
// from the seed (and starts any servers, keeping their files under dir),
// hands them to use, and tears everything down before it returns.
type workload struct {
	name string
	why  string
	open func(seed int64, dir string, use func(runner) error) error
}

// flowWorkers is the per-session worker count of the flow workloads: all
// load comes from this process with at most one thread per CPU of the
// 2-CPU reference host.
const flowWorkers = 2

func workloads() []workload {
	return []workload{
		{
			name: "arith-global",
			why:  "the paper's NMED experiment on its arithmetic set: many short iterations on small graphs, global candidate scan, optimizer flushes",
			open: func(seed int64, _ string, use func(runner) error) error {
				return use(arithGlobal(seed))
			},
		},
		{
			name: "mac-windowed",
			why:  "the scale rung: a large MAC tree, windowed generation with cache reuse, ranking-bound steps, few flushes",
			open: func(seed int64, _ string, use func(runner) error) error {
				return use(macWindowed(seed))
			},
		},
		{
			name: "certified",
			why:  "the only workload that runs exact max-error certification: exhaustive on mtp8, SAT on cla32",
			open: func(seed int64, _ string, use func(runner) error) error {
				return use(certified(seed))
			},
		},
		{
			name: "jobs-daemon",
			why:  "single-process daemon: HTTP API, job queue, persistence and checkpoints under 2 closed-loop clients",
			open: func(seed int64, dir string, use func(runner) error) error {
				return openJobs(seed, dir, engineDaemon, use)
			},
		},
		{
			name: "jobs-cluster",
			why:  "coordinator with 2 in-process workers: lease dispatch and the content-addressed store, duplicates served as cache hits",
			open: func(seed int64, dir string, use func(runner) error) error {
				return openJobs(seed, dir, engineCluster, use)
			},
		},
	}
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// flowSeeds draws n flow seeds for pass p from the workload seed.
func flowSeeds(seed int64, p, n int) []int64 {
	rng := rand.New(rand.NewSource(mix(seed, int64(p))))
	out := make([]int64, n)
	for i := range out {
		out[i] = rng.Int63n(1<<30) + 1
	}
	return out
}

// mix derives a well-spread stream seed from a workload seed and an index
// (the splitmix64 finalizer).
func mix(seed, i int64) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i)
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return int64((z ^ z>>31) >> 1)
}

func flowOptions(metric errest.Metric, threshold float64, seed int64) core.Options {
	opts := core.DefaultOptions(metric, threshold)
	opts.Seed = seed
	opts.Workers = flowWorkers
	return opts
}

type circuit struct {
	name string
	g    *aig.Graph
}

// preOptimized builds and pre-optimizes the named circuits, as the CLI does
// before the flow.
func preOptimized(specs ...circuit) []circuit {
	for i := range specs {
		specs[i].g = opt.Optimize(specs[i].g)
	}
	return specs
}

// arithSteps is the step budget of each arith-global flow. Run to
// completion, a flow takes 43-320 steps depending on its seed, and one long
// flow moves a pass by half; capped, every pass does the same 200 steps
// (each of 90 sampled flows ran past 40 steps).
const arithSteps = 40

// arithGlobal runs the global flow under NMED <= 0.001 with the paper's
// parameters on the Table V architectures (ripple-carry, carry-lookahead and
// Kogge-Stone adders, array and Wallace multipliers), arithSteps steps each.
// At full width one pass takes 20-28 s, more than a run may last, so the
// adders are 16-bit and the multipliers 6-bit — except the ripple-carry
// adder, which at 16 bits ends within two iterations for half the seeds and
// stays at 32. The graphs stay small (100-250 ANDs) and the iterations many
// and short, which is what makes this the optimizer-flush-bound workload.
func arithGlobal(seed int64) *flowRunner {
	cs := preOptimized(
		circuit{"rca32", bench.RCA(32)},
		circuit{"cla16", bench.CLA(16)},
		circuit{"ksa16", bench.KSA(16)},
		circuit{"mtp6", bench.ArrayMult(6)},
		circuit{"wal6", bench.WallaceMult(6)},
	)
	return &flowRunner{cases: func(pass int) []flowCase {
		seeds := flowSeeds(seed, pass, len(cs))
		out := make([]flowCase, len(cs))
		for i, c := range cs {
			out[i] = flowCase{label: c.name, orig: c.g, opts: flowOptions(errest.NMED, 0.001, seeds[i]), maxSteps: arithSteps}
		}
		return out
	}}
}

// macUnits sizes the MAC tree of mac-windowed (~13.2k ANDs): windowed
// generation with cache reuse and ranking dominate its steps, and a 16-step
// pass takes ~4 s, so a traced run (each pass twice) also fits the budget.
const (
	macUnits = 24
	macWidth = 8
	macSteps = 16
)

// macWindowed runs a fixed number of windowed steps on a MAC tree whose
// unit architectures the seed draws, under ER <= 0.05.
func macWindowed(seed int64) *flowRunner {
	g := opt.Optimize(bench.MACTree(macUnits, macWidth, mix(seed, -1)))
	return &flowRunner{cases: func(pass int) []flowCase {
		opts := flowOptions(errest.ER, 0.05, flowSeeds(seed, pass, 1)[0])
		opts.EvalPatterns = 1024
		opts.InitialRounds = 16
		opts.Windowed = true
		return []flowCase{{label: "mac", orig: g, opts: opts, maxSteps: macSteps}}
	}}
}

// certifiedMaxError is the certified workload's bound, used both as the
// sampled NMED threshold and as the exact maximum-error bound (CLI
// -metric maxerr).
const certifiedMaxError = 0.002

// certifiedSteps is the step budget of each certified flow: run to
// completion, these flows take 107-340 steps and 0.7-2.1 s depending on
// the seed; their first 100 steps vary far less.
const certifiedSteps = 100

// certified runs the certified flow on mtp6 (12 inputs: every certification
// goes to the exhaustive backend) and cla16 (32 inputs: every one goes to
// SAT), certifiedSteps steps each. Its output checks do not use
// internal/exact: mtp6 is enumerated exhaustively and cla16 simulated on
// 2^20 random patterns.
func certified(seed int64) *flowRunner {
	cs := preOptimized(circuit{"mtp6", bench.ArrayMult(6)}, circuit{"cla16", bench.CLA(16)})
	return &flowRunner{cases: func(pass int) []flowCase {
		seeds := flowSeeds(seed, pass, 3)
		mk := func(c circuit, fs int64, check func(orig, approx *aig.Graph) error) flowCase {
			opts := flowOptions(errest.NMED, certifiedMaxError, fs)
			opts.MaxError = certifiedMaxError
			return flowCase{label: c.name, orig: c.g, opts: opts, maxSteps: certifiedSteps, check: check}
		}
		return []flowCase{
			mk(cs[0], seeds[0], exhaustiveMaxErrorCheck(certifiedMaxError)),
			mk(cs[1], seeds[1], randomMaxErrorCheck(certifiedMaxError, 20, seeds[2])),
		}
	}}
}
