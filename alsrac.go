// Package alsrac is an open-source reproduction of "ALSRAC: Approximate
// Logic Synthesis by Resubstitution with Approximate Care Set" (Meng, Qian,
// Mishchenko — DAC 2020): a simulation-only approximate logic synthesis
// flow whose local change replaces a node's function by an irredundant
// sum-of-products over distant divisor signals, derived from a care set
// approximated with a handful of random simulation patterns.
//
// The package is a thin, stable facade over the implementation packages:
//
//   - Circuit construction and I/O: NewCircuit, ReadBLIF, WriteBLIF,
//     Benchmark (generated equivalents of the paper's benchmark suites).
//   - The ALSRAC flow: Approximate with Options (error metric, threshold,
//     and the paper's N/L/t/r parameters).
//   - Baselines: ApproximateSASIMI (Su et al.) and ApproximateMCMC
//     (Liu-style stochastic ALS).
//   - Exact optimization and technology mapping: Optimize, MapLUT, MapASIC.
//   - Error measurement: MeasureError.
//
// A minimal use:
//
//	g := alsrac.Benchmark("rca32")
//	opts := alsrac.DefaultOptions(alsrac.NMED, 0.001)
//	res := alsrac.Approximate(g, opts)
//	fmt.Println(res.Graph.NumAnds(), res.FinalError)
package alsrac

import (
	"context"
	"fmt"
	"io"
	"os"

	"path/filepath"

	"repro/internal/aig"
	"repro/internal/aiger"
	"repro/internal/baseline/mcmc"
	"repro/internal/baseline/sasimi"
	"repro/internal/bench"
	"repro/internal/blif"
	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/errest"
	"repro/internal/mapper"
	"repro/internal/opt"
	"repro/internal/sim"
	"repro/internal/verilog"
)

// Circuit is an And-Inverter Graph; see its methods for construction
// (AddPI, And, Or, Xor, Mux, AddPO, ...) and inspection (NumAnds, Depth,
// Stats, ...).
type Circuit = aig.Graph

// Lit is an edge reference into a Circuit (node id plus complement flag).
type Lit = aig.Lit

// Metric identifies an error metric (ER, NMED or MRED).
type Metric = errest.Metric

// The supported error metrics.
const (
	ER   = errest.ER
	NMED = errest.NMED
	MRED = errest.MRED
)

// ParseMetric maps a metric name — er, nmed, mred, or maxerr (certified
// mode, NMED-guided; set Options.MaxError) — to its Metric.
func ParseMetric(s string) (Metric, error) { return core.ParseMetric(s) }

// Options configures the ALSRAC flow; see DefaultOptions for the paper's
// parameter values.
type Options = core.Options

// Result is the outcome of an approximation run.
type Result = core.Result

// LUTMapping is the result of FPGA technology mapping.
type LUTMapping = mapper.LUTResult

// ASICMapping is the result of standard-cell technology mapping.
type ASICMapping = mapper.CellResult

// Patterns holds input stimuli for simulation-based evaluation; plug a
// custom generator into Options.Patterns to approximate under non-uniform
// input distributions.
type Patterns = sim.Patterns

// UniformPatterns returns n uniformly random input patterns.
func UniformPatterns(nPIs, n int, seed int64) *Patterns {
	return sim.UniformN(nPIs, n, seed)
}

// BiasedPatterns returns n patterns where input i is 1 with probability
// probs[i], independently per pattern.
func BiasedPatterns(probs []float64, n int, seed int64) *Patterns {
	words := (n + 63) / 64
	if words < 1 {
		words = 1
	}
	p := sim.Biased(probs, words, seed)
	p.Valid = n
	return p
}

// NewCircuit returns an empty circuit.
func NewCircuit() *Circuit { return aig.New() }

// DefaultOptions returns the paper's experiment parameters (N=32, L=1,
// t=5, r=0.9) for the given metric and error threshold.
func DefaultOptions(metric Metric, threshold float64) Options {
	return core.DefaultOptions(metric, threshold)
}

// Approximate runs the ALSRAC flow and returns an approximate circuit
// whose estimated error does not exceed opts.Threshold.
func Approximate(g *Circuit, opts Options) Result {
	return core.Run(g, opts)
}

// ApproximateCtx is Approximate under a context: when ctx is cancelled or
// its deadline expires, the flow stops at the next iteration boundary and
// returns its best-so-far result (never an error) — an interrupted
// iteration commits nothing, so the result is always a valid flow state.
func ApproximateCtx(ctx context.Context, g *Circuit, opts Options) Result {
	return core.RunCtx(ctx, g, opts)
}

// ApproximateSASIMI runs Su et al.'s substitution-based baseline inside
// the same greedy flow (the comparison method of the paper's Tables IV/V).
func ApproximateSASIMI(g *Circuit, opts Options) Result {
	return core.Run(g, sasimi.Configure(opts))
}

// ApproximateSASIMICtx is ApproximateSASIMI under a context, with the same
// best-so-far semantics as ApproximateCtx.
func ApproximateSASIMICtx(ctx context.Context, g *Circuit, opts Options) Result {
	return core.RunCtx(ctx, g, sasimi.Configure(opts))
}

// NewSession starts a stepwise ALSRAC run: each Step performs one greedy
// iteration, and Snapshot/Restore checkpoint the flow across processes.
// Approximate is equivalent to stepping a session to completion.
func NewSession(g *Circuit, opts Options) *Session { return core.NewSession(g, opts) }

// RestoreSession resumes a session from a checkpoint written by
// Session.Snapshot; opts must match the options the snapshotted run used.
func RestoreSession(r io.Reader, opts Options) (*Session, error) {
	return core.Restore(r, opts)
}

// Session is a resumable stepwise ALSRAC run; see core.Session.
type Session = core.Session

// SessionEvent describes what one Session.Step did; see core.Event.
type SessionEvent = core.Event

// ApproximateMCMC runs the Liu-style stochastic baseline (the comparison
// method of the paper's Tables VI/VII). proposals ≤ 0 selects the default.
func ApproximateMCMC(g *Circuit, metric Metric, threshold float64, proposals int, seed int64) Result {
	o := mcmc.DefaultOptions(metric, threshold)
	if proposals > 0 {
		o.Proposals = proposals
	}
	o.Seed = seed
	r := mcmc.Run(g, o)
	return Result{Graph: r.Graph, FinalError: r.FinalError, Iterations: r.Proposed, Applied: r.Accepted}
}

// Optimize applies exact logic optimization (the "sweep; resyn2" analog).
func Optimize(g *Circuit) *Circuit { return opt.Optimize(g) }

// OptimizeResub additionally runs exact windowed resubstitution over
// k-input cut windows (the "resub" analog) after the standard script —
// stronger but slower than Optimize.
func OptimizeResub(g *Circuit, k int) *Circuit {
	return opt.ResubPass(opt.Optimize(g), k)
}

// MapLUT maps the circuit into k-input LUTs (FPGA area = LUT count, delay
// = LUT depth).
func MapLUT(g *Circuit, k int) LUTMapping { return mapper.MapLUT(g, k) }

// MapASIC maps the circuit onto the built-in MCNC-style standard-cell
// library (area and delay in library units).
func MapASIC(g *Circuit) ASICMapping { return mapper.MapCells(g, cell.MCNC()) }

// MeasureError estimates the error of approx against the reference circuit
// ref using `patterns` uniform Monte-Carlo rounds (both circuits must share
// the PI/PO interface).
func MeasureError(ref, approx *Circuit, metric Metric, patterns int, seed int64) float64 {
	words := (patterns + 63) / 64
	if words < 1 {
		words = 1
	}
	p := sim.Uniform(ref.NumPIs(), words, seed)
	ev := errest.NewEvaluator(ref, p, metric)
	return ev.EvalGraph(approx, p)
}

// MeasureErrorOnPatterns estimates the error of approx against ref on a
// caller-supplied pattern set (for non-uniform input distributions).
func MeasureErrorOnPatterns(ref, approx *Circuit, metric Metric, p *Patterns) float64 {
	ev := errest.NewEvaluator(ref, p, metric)
	return ev.EvalGraph(approx, p)
}

// Benchmark builds one of the generated benchmark circuits by its paper
// name (e.g. "rca32", "cla32", "mtp8", "voter", "priority", "mult"),
// or nil when unknown.
func Benchmark(name string) *Circuit { return bench.Get(name) }

// MACTree builds a member of the scalable multiply-accumulate benchmark
// family: units independent width-bit multipliers summed by a balanced adder
// tree, deterministic from the seed. Large members (MACTree(2048, 8, 1) is
// over a million AND nodes) exercise windowed resubstitution at a scale the
// named benchmarks never reach.
func MACTree(units, width int, seed int64) *Circuit { return bench.MACTree(units, width, seed) }

// Benchmarks lists the available benchmark names.
func Benchmarks() []string {
	var names []string
	for _, e := range bench.All() {
		names = append(names, e.Name)
	}
	return names
}

// ReadBLIF parses a combinational BLIF netlist into a circuit.
func ReadBLIF(r io.Reader) (*Circuit, error) {
	net, err := blif.Read(r)
	if err != nil {
		return nil, err
	}
	return net.ToAIG()
}

// ReadBLIFFile parses a BLIF file from disk.
func ReadBLIFFile(path string) (*Circuit, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadBLIF(f)
}

// ReadAIGER parses an AIGER file (ASCII "aag" or binary "aig",
// auto-detected).
func ReadAIGER(r io.Reader) (*Circuit, error) { return aiger.Read(r) }

// WriteAIGER emits the circuit in AIGER form; format is "aag" or "aig".
func WriteAIGER(w io.Writer, g *Circuit, format string) error {
	return aiger.Write(w, g, format)
}

// WriteVerilog emits the circuit as a structural Verilog module.
func WriteVerilog(w io.Writer, g *Circuit) error { return verilog.Write(w, g) }

// ReadCircuitFile loads a circuit from disk, selecting the parser by file
// extension: .blif, .aag or .aig.
func ReadCircuitFile(path string) (*Circuit, error) {
	switch filepath.Ext(path) {
	case ".blif":
		return ReadBLIFFile(path)
	case ".aag", ".aig":
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return aiger.Read(f)
	}
	return nil, fmt.Errorf("alsrac: unknown circuit format %q", filepath.Ext(path))
}

// WriteCircuitFile saves a circuit to disk, selecting the writer by file
// extension: .blif, .aag or .aig.
func WriteCircuitFile(path string, g *Circuit) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var werr error
	switch filepath.Ext(path) {
	case ".blif":
		werr = WriteBLIF(f, g)
	case ".aag", ".aig":
		werr = aiger.Write(f, g, filepath.Ext(path)[1:])
	case ".v":
		werr = verilog.Write(f, g)
	default:
		werr = fmt.Errorf("alsrac: unknown circuit format %q", filepath.Ext(path))
	}
	if werr != nil {
		f.Close()
		return werr
	}
	return f.Close()
}

// WriteBLIF emits the circuit as a BLIF netlist.
func WriteBLIF(w io.Writer, g *Circuit) error {
	return blif.FromAIG(g).Write(w)
}

// WriteBLIFFile writes the circuit to a BLIF file on disk.
func WriteBLIFFile(path string, g *Circuit) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteBLIF(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
