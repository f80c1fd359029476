// Package core implements the ALSRAC approximate logic synthesis flow
// (Algorithm 3 of the paper): a greedy loop that, in each iteration,
// simulates the current circuit with N random patterns to build approximate
// care sets, generates candidate local approximate changes (LACs), ranks
// them with the batch error estimator, applies the best one that keeps the
// circuit within the error threshold, and re-optimizes with traditional
// logic synthesis. The simulation round N adapts: after t consecutive
// iterations without candidates it is scaled by r < 1, enlarging the
// approximation space.
//
// Every session runs one loop: the working graph is mutated in place, two
// persistent simulation arenas (care and evaluation patterns) follow each
// commit by resimulating its dirty fanout, and the generator reuses cached
// candidates for the nodes the commit left untouched. The traditional
// optimizer runs at an adaptive cadence (see Session.commitInPlace), and on
// every commit of a depth-capped session, whose depth check is a
// pre-commit trial on a clone.
//
// The LAC generator is pluggable (see IncrementalGenerator); ALSRAC's
// approximate resubstitution is the default, and the SASIMI-style generator
// of package baseline/sasimi reuses the same loop, mirroring how the paper
// reimplements Su's method inside a common framework.
package core

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/aig"
	"repro/internal/errest"
	"repro/internal/resub"
	"repro/internal/sim"
	"repro/internal/window"
)

// Candidate is one local approximate change proposed by an
// IncrementalGenerator.
type Candidate struct {
	// Node is the node whose function the change replaces.
	Node aig.Node
	// Gain is the structural gain estimate in AND nodes (larger is better).
	Gain int
	// NewVec writes the node's replacement value vector, evaluated on the
	// given simulation vectors of the current circuit, into out.
	NewVec func(vecs *sim.Vectors, out []uint64)
	// Apply substitutes the change into g and returns the new circuit.
	Apply func(g *aig.Graph) *aig.Graph
	// ApplyInPlace commits the change into g itself — rewiring references
	// with aig.ReplaceNode so untouched logic keeps its node ids and freed
	// slots are recycled — and appends every node whose structure or
	// reference count changed to *touched. Required: the session commits
	// every change this way, so its live graph must equal Apply's result.
	ApplyInPlace func(g *aig.Graph, touched *[]aig.Node)
	// Err is filled by the flow: the estimated circuit error (against the
	// original circuit) after applying this candidate.
	Err float64
}

// IncrementalGenerator proposes candidate LACs for the current circuit,
// given its value vectors on the care-set patterns (of which the first
// valid entries are meaningful). It is the one generator contract of the
// flow. The session calls only GenerateIncremental; Generate and
// GenerateWorkers are the plain full scans, kept for callers that generate
// outside a session. Candidates must carry ApplyInPlace and must not retain
// the care vectors: NewVec is always handed the vectors it should read.
// Every method must produce the same candidates in the same order for
// every worker count — the flow's determinism guarantee depends on it.
//
// stale and cache come from the previous GenerateIncremental call on the
// same graph and patterns: stale[v] true means node v's candidates must be
// recomputed, and cache is the opaque value the previous call returned. A
// nil stale mask requests a full scan (cache is ignored). The result must be
// bitwise identical to a full GenerateWorkers scan for every (stale, cache)
// handed back this way — worker-count invariance and the correctness of
// checkpoint restore (which drops the cache and rescans) both rest on it. A
// generator without reusable state may therefore always rescan and return a
// nil cache.
type IncrementalGenerator interface {
	Generate(g *aig.Graph, care *sim.Vectors, valid int) []Candidate
	GenerateWorkers(g *aig.Graph, care *sim.Vectors, valid int, workers int) []Candidate
	GenerateIncremental(g *aig.Graph, care *sim.Vectors, valid, workers int,
		stale []bool, cache any) ([]Candidate, any)
}

// ResubGenerator adapts package resub's approximate resubstitution to the
// IncrementalGenerator interface — this is ALSRAC's LAC.
type ResubGenerator struct {
	Cfg resub.Config
}

// Generate implements IncrementalGenerator.
func (rg ResubGenerator) Generate(g *aig.Graph, care *sim.Vectors, valid int) []Candidate {
	return rg.GenerateWorkers(g, care, valid, 1)
}

// GenerateWorkers implements IncrementalGenerator.
func (rg ResubGenerator) GenerateWorkers(g *aig.Graph, care *sim.Vectors, valid int, workers int) []Candidate {
	return WrapLACs(resub.Generate(g, care, valid, rg.Cfg, workers, nil, nil))
}

// GenerateIncremental implements IncrementalGenerator: cache is the LAC
// slice of the previous call, and nodes the stale mask spares reuse their
// cached entries instead of re-running the divisor scan (resub.Scan).
func (rg ResubGenerator) GenerateIncremental(g *aig.Graph, care *sim.Vectors, valid, workers int,
	stale []bool, cache any) ([]Candidate, any) {
	cached, _ := cache.([]resub.LAC)
	lacs := resub.Generate(g, care, valid, rg.Cfg, workers, stale, cached)
	return WrapLACs(lacs), lacs
}

// WindowedGenerator adapts package window's reconvergence-driven windowed
// resubstitution to the IncrementalGenerator interface: per root, the
// divisor scan runs over a bounded local window instead of the full TFI
// cone, which bounds per-root work by a constant and scales candidate
// generation to million-node AIGs. Workers shard by window. With the zero
// window.Config (unbounded windows) the candidates are bitwise identical to
// ResubGenerator's — the property the window package pins.
type WindowedGenerator struct {
	Win window.Config
	Cfg resub.Config
}

// Generate implements IncrementalGenerator.
func (wg WindowedGenerator) Generate(g *aig.Graph, care *sim.Vectors, valid int) []Candidate {
	return wg.GenerateWorkers(g, care, valid, 1)
}

// GenerateWorkers implements IncrementalGenerator.
func (wg WindowedGenerator) GenerateWorkers(g *aig.Graph, care *sim.Vectors, valid int, workers int) []Candidate {
	return WrapLACs(window.Generate(g, care, valid, wg.Win, wg.Cfg, workers, nil, nil))
}

// GenerateIncremental implements IncrementalGenerator, mirroring
// ResubGenerator: unstale nodes keep their cached window candidates, stale
// ones get fresh windows (the stale closure covers every window dependency,
// see window.Generate).
func (wg WindowedGenerator) GenerateIncremental(g *aig.Graph, care *sim.Vectors, valid, workers int,
	stale []bool, cache any) ([]Candidate, any) {
	cached, _ := cache.([]resub.LAC)
	lacs := window.Generate(g, care, valid, wg.Win, wg.Cfg, workers, stale, cached)
	return WrapLACs(lacs), lacs
}

// WrapLACs turns LACs into candidates whose closures evaluate, copy-apply
// and commit each LAC; every LAC generator's candidates are made here.
func WrapLACs(lacs []resub.LAC) []Candidate {
	out := make([]Candidate, len(lacs))
	for i := range lacs {
		lac := lacs[i]
		out[i] = Candidate{
			Node:         lac.Node,
			Gain:         lac.Gain,
			NewVec:       func(vecs *sim.Vectors, dst []uint64) { lac.EvalVec(vecs, dst) },
			Apply:        func(g *aig.Graph) *aig.Graph { return lac.Apply(g) },
			ApplyInPlace: func(g *aig.Graph, touched *[]aig.Node) { lac.ApplyInPlace(g, touched) },
		}
	}
	return out
}

// Options configures a Run. The zero value is not useful; start from
// DefaultOptions.
type Options struct {
	Metric    errest.Metric
	Threshold float64 // error threshold Et

	InitialRounds   int     // initial care-set simulation rounds N (paper: 32)
	MaxLACsPerNode  int     // LAC limit per node L (paper: 1)
	Patience        int     // controlling parameter t (paper: 5)
	Scale           float64 // scaling factor r (paper: 0.9)
	MaxReplaceTries int     // cap on divisor replacements tried per fanin (0 = unbounded)

	EvalPatterns int   // Monte-Carlo pattern budget for error evaluation
	Seed         int64 // base seed; every iteration derives fresh patterns

	// Workers is the number of worker goroutines used by the three hot
	// stages (care-set simulation, LAC generation, candidate ranking) and
	// the error evaluator. 0 means GOMAXPROCS; 1 runs fully sequential.
	// Results are bitwise identical for every value.
	Workers int

	// Patterns supplies input stimuli with n valid patterns for the given
	// seed; it is used both for error evaluation and for the per-iteration
	// care-set simulation. nil means uniformly distributed inputs — the
	// paper's experimental setup; any other distribution (biased,
	// correlated) can be plugged in, as the paper's method allows.
	Patterns func(nPIs, n int, seed int64) *sim.Patterns

	// MaxStall bounds consecutive iterations without an applied change
	// before giving up (termination guard; the paper relies on N shrinking).
	MaxStall int
	// MaxDepthRatio, when positive, rejects changes that would leave the
	// (re-optimized) circuit deeper than this ratio times the original
	// depth — a delay-constrained mode in the spirit of the paper's
	// "map -D <original delay>" mapping setup. Each winner is checked on a
	// re-optimized trial clone, which becomes the working graph when it
	// passes, so such sessions optimize after every commit. 0 disables the
	// check.
	MaxDepthRatio float64
	// SkipOptimize disables the traditional re-optimization between
	// iterations (ablation knob; the paper always optimizes).
	SkipOptimize bool
	// MaxDivisors and UseEspresso are not read: every divisor set holds at
	// most two divisors, as in the paper's AIG flow, and its cover is
	// tt.ISOP's, which on such sets equals the Espresso-style cover. They
	// stay for the benchmark harness, which copies them into resub.Config,
	// until its next revision. A MaxDivisors above 2 is refused: the
	// session's first step panics in resub.Scan.
	MaxDivisors int
	UseEspresso bool
	// Windowed selects reconvergence-driven windowed candidate generation
	// (package window): per-root bounded windows instead of full TFI cones,
	// which bounds per-iteration work and memory by circuit size × window
	// bound instead of circuit size² — the mode that reaches million-node
	// AIGs. Circuits below windowedFallbackAnds AND nodes fall back to the
	// global scan, where full cones are cheap and find strictly more
	// divisors. The windows are bounded by window.DefaultConfig; a Go caller
	// that needs other bounds sets Generator to a WindowedGenerator. Ignored
	// when Generator is set.
	Windowed bool
	// Generator overrides the LAC generator; nil means ALSRAC resubstitution
	// (windowed when Windowed is set).
	Generator IncrementalGenerator

	// MaxError, when positive, switches the flow to certified mode: every
	// winning candidate is certified by the exact checker (internal/exact)
	// to keep the exact maximum arithmetic error of the circuit — over ALL
	// inputs, not the sampled patterns — at most MaxError before it is
	// committed. Candidates that fail certification are rejected and the
	// flow continues (the rejection is counted in the history). The bound
	// is normalized like NMED: max |ŷ−y| / (2^nPOs−1) ≤ MaxError. The
	// circuit must have 1..64 outputs.
	MaxError float64
	// CertConflictBudget caps the SAT conflicts of one certification call
	// (0 = unbounded). An exhausted budget rejects the candidate — the
	// flow never commits an uncertified change.
	CertConflictBudget int64
	// CertNow, when set, timestamps certification calls for the checker's
	// latency stats (pure go-forward observability; not serialized in
	// checkpoints). nil reports zero latencies.
	CertNow func() time.Time
	// CertObserve, when set, receives one call per certification with the
	// deciding backend, latency in seconds and SAT conflicts spent — the
	// service layer's metrics hook. Not serialized.
	CertObserve func(backend string, seconds float64, conflicts int64)

	// Verbose, when non-nil, receives progress lines.
	Verbose func(format string, args ...any)
}

// WindowConfig returns the window bounds of a Windowed session, the
// constant window.DefaultConfig. It stays for the benchmark harness, which
// calls it, until that harness's next revision.
func (o *Options) WindowConfig() window.Config {
	return window.DefaultConfig()
}

// windowedFallbackAnds is the circuit size below which a Windowed session
// falls back to global scoring: at that scale every TFI cone is small, the
// quadratic cost is immaterial, and the full cone is a strict superset of
// any window's divisor pool.
const windowedFallbackAnds = 200

// flowGenerator picks the default LAC generator for a session over a
// circuit with numAnds live AND nodes (only consulted when opts.Generator
// is nil). It reports whether the windowed fallback was taken.
func flowGenerator(opts *Options, numAnds int) (IncrementalGenerator, bool) {
	rcfg := resub.Config{
		MaxLACsPerNode:  opts.MaxLACsPerNode,
		MaxReplaceTries: opts.MaxReplaceTries,
		MaxDivisors:     opts.MaxDivisors, // for resub.Scan's refusal of wider sets
	}
	if opts.Windowed && numAnds >= windowedFallbackAnds {
		return WindowedGenerator{Win: window.DefaultConfig(), Cfg: rcfg}, false
	}
	return ResubGenerator{Cfg: rcfg}, opts.Windowed
}

// DefaultOptions returns the paper's experiment parameters (Section IV-A):
// N=32, L=1, t=5, r=0.9. The evaluation pattern budget defaults to 8192
// (the paper uses 10^7 rounds on a workstation; this is a pure accuracy/
// runtime knob of the same Monte-Carlo estimator).
func DefaultOptions(metric errest.Metric, threshold float64) Options {
	return Options{
		Metric:         metric,
		Threshold:      threshold,
		InitialRounds:  32,
		MaxLACsPerNode: 1,
		Patience:       5,
		Scale:          0.9,
		EvalPatterns:   8192,
		Seed:           1,
		MaxStall:       60,
	}
}

// ParseMetric maps a metric name to the errest constant that guides the
// search. Case and surrounding space are ignored. "maxerr" names certified
// mode (see Options.MaxError), which is guided by NMED: the statistical
// estimate of the same arithmetic-error scale the exact checker certifies.
func ParseMetric(s string) (errest.Metric, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "er":
		return errest.ER, nil
	case "nmed", "maxerr":
		return errest.NMED, nil
	case "mred":
		return errest.MRED, nil
	}
	return 0, fmt.Errorf("unknown metric %q (er, nmed, mred, maxerr)", s)
}

// CheckOutputs refuses a circuit whose outputs a flow cannot score under
// metric m, in certified mode when maxError > 0 (Options.MaxError). The
// value metrics and the exact checker read the outputs as one unsigned
// binary number, so they take at most 64 outputs; ER takes any number.
// Certified mode also needs at least one output.
func CheckOutputs(g *aig.Graph, m errest.Metric, maxError float64) error {
	switch n := g.NumPOs(); {
	case n > 64 && m != errest.ER:
		return fmt.Errorf("the circuit has %d outputs; %v supports at most 64", n, m)
	case n > 64 && maxError > 0:
		return fmt.Errorf("the circuit has %d outputs; certified mode supports at most 64", n)
	case n == 0 && maxError > 0:
		return fmt.Errorf("the circuit has %d outputs; certified mode needs at least one", n)
	}
	return nil
}

// IterRecord traces one flow iteration.
type IterRecord struct {
	Iteration  int
	Rounds     int     // care-set rounds N in effect
	Candidates int     // LACs generated
	Applied    bool    // whether a LAC was applied
	Rejected   bool    // whether the winner failed max-error certification
	Err        float64 // cumulative error after the iteration
	Ands       int     // AND count after the iteration
}

// Result is the outcome of a Run.
type Result struct {
	Graph      *aig.Graph // the approximate circuit (already swept/optimized)
	FinalError float64    // measured on the evaluation pattern set
	Iterations int
	Applied    int // number of LACs applied
	History    []IterRecord
}

// Run executes the ALSRAC flow on circuit g and returns an approximate
// circuit whose estimated error does not exceed opts.Threshold. g itself is
// not modified. It is a thin loop over Session.Step; long-running callers
// that need checkpointing or per-iteration progress drive a Session
// directly.
func Run(g *aig.Graph, opts Options) Result {
	return RunCtx(context.Background(), g, opts)
}

// RunCtx is Run with a context: when ctx is cancelled (deadline or explicit)
// the flow stops at the next iteration boundary and returns the best result
// found so far — cancellation is a budget, not an error. The result for an
// uncancelled context is bitwise identical to Run's.
func RunCtx(ctx context.Context, g *aig.Graph, opts Options) Result {
	s := NewSession(g, opts)
	for {
		ev, err := s.Step(ctx)
		if err != nil || ev.Done {
			break
		}
	}
	// Return the smallest circuit observed. Error is cumulative and
	// non-decreasing, so every snapshot satisfies the threshold; later
	// zero-gain trades must not be allowed to worsen the result.
	return s.Result()
}

// rankCandidates estimates the error of every candidate with the batch
// estimator and returns the best one (smallest error, then largest gain),
// or nil when there are no candidates. Candidates are grouped by node, and
// each group is one errest.Batch.Score call, so each node's fanout cone is
// re-simulated once (the batch estimation trick) — or, under a finite
// bound, probed on one word and walked again only if a candidate survives
// the probe. With workers > 1 the node groups are claimed off an atomic
// counter by worker goroutines, each owning a Fork of the batch estimator;
// with one worker the same loop runs inline on the root batch. arena is
// the session's up-to-date simulation of the working graph on the
// evaluation patterns; the batch borrows its vectors and fanout index, so
// a ranking round neither resimulates the circuit nor rebuilds an index
// the arena already holds.
//
// Evaluation is branch-and-bound: the smallest exact error seen by ANY
// worker so far — the shared errest.Bound — bounds every later evaluation,
// so hopeless candidates abort at the first simulation word that exceeds
// it and report +Inf. Which candidates get pruned depends on scheduling,
// but the winner does not: a pruned candidate's error strictly exceeds
// some exact error and therefore the global minimum, and a candidate at
// least as good as the bound always gets its exact value (see
// errest.Batch), so every minimum-error candidate is evaluated exactly.
// The reduction is a sequential scan with a fixed tie-break (smallest
// error, then largest gain, then first in node order); pruned candidates
// never tie-break against survivors, so the winner is independent of
// worker count and scheduling.
//
// Cancelling ctx stops the scan at the next group boundary; the caller
// (Session.Step) detects ctx.Err and discards the partial ranking, so a
// cancelled iteration commits nothing.
func rankCandidates(ctx context.Context, ev *errest.Evaluator, arena *sim.Arena, cands []Candidate, workers int) *Candidate {
	if len(cands) == 0 {
		return nil
	}
	slices.SortStableFunc(cands, func(a, b Candidate) int { return int(a.Node) - int(b.Node) })
	batch := errest.NewBatch(ev, arena)
	defer batch.Release()

	// Group boundaries: candidates sharing a node form one work unit.
	groups := make([][2]int, 0, len(cands))
	for lo := 0; lo < len(cands); {
		hi := lo + 1
		for hi < len(cands) && cands[hi].Node == cands[lo].Node {
			hi++
		}
		groups = append(groups, [2]int{lo, hi})
		lo = hi
	}

	bound := errest.NewBound()
	var next atomic.Int64
	rank := func(b *errest.Batch) {
		for {
			gi := int(next.Add(1)) - 1
			if gi >= len(groups) || ctx.Err() != nil {
				return
			}
			group := cands[groups[gi][0]:groups[gi][1]]
			news := b.Rows(len(group))
			for i := range group {
				group[i].NewVec(b.Vectors(), news[i])
			}
			for i, e := range b.Score(group[0].Node, news, bound) {
				group[i].Err = e
			}
		}
	}
	if workers = sim.Workers(workers, len(groups)); workers <= 1 {
		rank(batch)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				fork := batch.Fork()
				defer fork.Release()
				rank(fork)
			}()
		}
		wg.Wait()
	}

	best := &cands[0]
	for i := 1; i < len(cands); i++ {
		c := &cands[i]
		if c.Err < best.Err || (c.Err == best.Err && c.Gain > best.Gain) {
			best = c
		}
	}
	return best
}
