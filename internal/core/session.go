package core

import (
	"context"
	"math"
	"runtime"

	"repro/internal/aig"
	"repro/internal/errest"
	"repro/internal/exact"
	"repro/internal/opt"
	"repro/internal/sim"
)

// EventKind classifies what one Session.Step did.
type EventKind string

const (
	// EventApplied: the step committed the best candidate LAC.
	EventApplied EventKind = "applied"
	// EventNoCandidates: the generator produced no LACs this round
	// (Event.Shrunk reports whether N was scaled down as a consequence).
	EventNoCandidates EventKind = "no-candidates"
	// EventDepthReject: the best candidate was dropped by the delay
	// constraint (Options.MaxDepthRatio); the flow retries with fresh
	// patterns next step.
	EventDepthReject EventKind = "depth-reject"
	// EventThreshold: even the best candidate violates the error threshold
	// (Algorithm 3, line 7). The session is finished after this step (Done
	// set) when the candidates came from a freshly drawn care set; a
	// persisted care set gets one fresh draw first — the event is then
	// non-final and the next step retries, stall-guarded.
	EventThreshold EventKind = "threshold"
	// EventDone: the session had already finished; no work was performed.
	EventDone EventKind = "done"
	// EventCertified: certified mode committed the best candidate after the
	// exact checker proved its maximum error within Options.MaxError. The
	// certified counterpart of EventApplied.
	EventCertified EventKind = "certified"
	// EventCertRejected: the best candidate passed the sampled threshold
	// but failed exact max-error certification; it was dropped and the flow
	// retries with fresh patterns, stall-guarded (reject-and-continue).
	EventCertRejected EventKind = "rejected"
)

// Event describes the outcome of one Session.Step. It is the unit of
// progress reporting: the service layer streams Events to clients as NDJSON.
type Event struct {
	Kind       EventKind `json:"kind"`
	Iteration  int       `json:"iteration"`
	Rounds     int       `json:"rounds"` // care-set rounds N in effect after the step
	Candidates int       `json:"candidates"`
	Applied    bool      `json:"applied"`
	Err        float64   `json:"err"`  // cumulative error after the step
	Ands       int       `json:"ands"` // AND count after the step
	Shrunk     bool      `json:"shrunk,omitempty"`
	Done       bool      `json:"done"`
	Reason     string    `json:"reason,omitempty"` // termination reason when Done

	// Certified-mode fields (Options.MaxError > 0), set on the certified
	// and rejected event kinds.
	CertBackend string  `json:"cert_backend,omitempty"` // exact backend that decided
	CertMaxErr  float64 `json:"cert_max_err,omitempty"` // exact max error when measured
	Rejections  int     `json:"rejections,omitempty"`   // cumulative certification rejections
}

// Termination reasons reported in Event.Reason.
const (
	ReasonStall     = "stall"     // Options.MaxStall iterations without progress
	ReasonThreshold = "threshold" // best candidate exceeds the error threshold
	ReasonBudget    = "budget"    // cumulative error exceeds the threshold
)

// Session is the resumable form of the ALSRAC flow: Run unrolled into an
// explicit state machine. Each Step performs one Algorithm 3 iteration
// (simulate care patterns → generate LACs → rank → apply, or shrink N), and
// the complete mutable state between steps — working AIG, best AIG, the
// pattern count N, the stall/streak counters and the accepted-LAC history —
// can be serialized with Snapshot and revived with Restore, bitwise
// faithfully: a restored session continues exactly as the original would
// have.
//
// A Session is not safe for concurrent use; the service layer gives each
// job's session to exactly one worker goroutine at a time.
type Session struct {
	opts    Options
	workers int
	nEval   int
	logf    func(string, ...any)

	orig     *aig.Graph // reference circuit (error is measured against it)
	evalPats *sim.Patterns
	ev       *errest.Evaluator

	cur      *aig.Graph
	best     *aig.Graph
	depthCap int
	n        int // care-set rounds N
	streak   int // consecutive empty-candidate iterations
	stall    int // consecutive iterations without an applied LAC
	curErr   float64

	// Incremental state. The working graph is mutated in place with
	// ReplaceNode, and two persistent simulation arenas — care patterns and
	// evaluation patterns — are kept up to date by resimulating only the
	// dirty TFO slice of each commit. careSeed/careN identify the live care
	// patterns (they persist across pure-win commits and reroll after an
	// empty round, a rejection, a non-shrinking commit, or an optimizer
	// flush); careOK is false when the next step must reroll. The arenas
	// themselves are rebuilt lazily from that identity — after NewSession
	// and after Restore — which is sound because a full simulation is
	// bitwise identical to the incrementally maintained state. genStale/genCache are the candidate
	// invalidation mask and the generator's opaque cache; both are
	// droppable for the same reason (a full rescan reproduces the cached
	// merge exactly), which keeps checkpoints free of derived state.
	careArena *sim.Arena
	evalArena *sim.Arena
	careSeed  int64
	careN     int
	careOK    bool
	sinceOpt  int // commits since the last re-optimization
	genStale  []bool
	genCache  any
	epochs    []uint32   // scratch: epoch snapshot for StaleClosure
	touched   []aig.Node // scratch: ReplaceNode touched list

	// Certified mode (Options.MaxError > 0): the exact checker and the
	// count of winners it rejected. The checker is derived state — it is
	// rebuilt from orig and Options on restore; only the rejection count
	// travels through checkpoints.
	cert         *exact.Checker
	certRejected int

	iterations int
	applied    int
	history    []IterRecord

	done     bool
	reason   string
	finalErr float64 // cached by Result once done
	finalOK  bool
}

// optEvery is the backstop re-optimization cadence: the traditional
// synthesis pass (Algorithm 3, line 9) runs after at most this many
// committed LACs instead of after every one. Optimization rebuilds the
// graph with fresh node ids, which forces both arenas to resimulate from
// scratch and drops the generator cache, so batching it is what lets the
// incremental machinery amortize. The best snapshot is updated only at
// these optimize boundaries (and at the final flush when the session
// finishes mid-batch), so the reported result is always fully optimized —
// zero-gain LACs whose payoff only materializes under the optimizer are
// credited as if the optimizer ran after every commit, just in batches.
const optEvery = 8

// NewSession prepares a Session over circuit g. g itself is never modified;
// it is retained as the error reference and serialized into snapshots.
func NewSession(g *aig.Graph, opts Options) *Session {
	logf := opts.Verbose
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if opts.Generator == nil {
		var fellBack bool
		opts.Generator, fellBack = flowGenerator(&opts, g.NumAnds())
		if fellBack {
			logf("windowed mode: circuit has %d ANDs (< %d), falling back to global scoring",
				g.NumAnds(), windowedFallbackAnds)
		}
	}
	if opts.Patterns == nil {
		opts.Patterns = sim.UniformN
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	nEval := opts.EvalPatterns
	if nEval < 64 {
		nEval = 64
	}

	s := &Session{
		opts:    opts,
		workers: workers,
		nEval:   nEval,
		logf:    logf,
		orig:    g,
	}
	s.evalPats = opts.Patterns(g.NumPIs(), nEval, opts.Seed)
	s.ev = errest.NewEvaluatorWorkers(g, s.evalPats, opts.Metric, workers)

	s.cur = g.Sweep()
	s.best = s.cur
	if opts.MaxDepthRatio > 0 {
		// A cap too large for int saturates: it never binds, but the
		// session still runs capped, whereas the overflowed conversion
		// would read as no cap.
		s.depthCap = math.MaxInt
		if c := opts.MaxDepthRatio * float64(s.cur.Depth()); c < math.MaxInt {
			s.depthCap = int(c)
		}
	}
	s.n = opts.InitialRounds
	if opts.MaxError > 0 {
		chk, err := exact.New(g, exact.Config{
			SATConflictBudget: opts.CertConflictBudget,
			Now:               opts.CertNow,
			Observe:           opts.CertObserve,
		})
		if err != nil {
			// Same contract as errest's value metrics: a certified session
			// needs the 64-bit output-value encoding.
			panic("core: certified mode: " + err.Error())
		}
		s.cert = chk
	}
	return s
}

// Step performs one Algorithm 3 iteration and reports what happened. When
// the flow has terminated it returns an Event with Done set (idempotently on
// further calls). A context cancellation aborts the step before any state is
// committed and returns ctx.Err(): the interrupted iteration leaves no trace,
// so a later Step — in this process or after Snapshot/Restore — redoes it
// identically.
func (s *Session) Step(ctx context.Context) (Event, error) {
	if s.done {
		return s.doneEvent(), nil
	}
	if err := ctx.Err(); err != nil {
		return Event{}, err
	}
	if s.curErr > s.opts.Threshold {
		return s.finish(ReasonBudget), nil
	}
	if s.stall >= s.opts.MaxStall {
		return s.finish(ReasonStall), nil
	}

	// The iteration number participates in the pattern seed; it is only
	// committed to s.iterations once the step is past every abort point.
	iter := s.iterations + 1
	iterSeed := s.patternSeed(iter)

	cands, careFresh := s.generateIncremental(iterSeed)

	if len(cands) == 0 {
		s.iterations = iter
		s.streak++
		s.stall++
		// The same patterns would regenerate the same emptiness: draw fresh
		// ones next step.
		s.careOK = false
		ev := Event{Kind: EventNoCandidates, Iteration: iter, Err: s.curErr, Ands: s.cur.NumAnds()}
		if s.streak >= s.opts.Patience {
			s.n = int(float64(s.n) * s.opts.Scale)
			if s.n < 1 {
				s.n = 1
			}
			s.streak = 0
			ev.Shrunk = true
			s.logf("iter %d: no LACs for %d rounds, shrinking N to %d", iter, s.opts.Patience, s.n)
		}
		ev.Rounds = s.n
		s.record(IterRecord{Iteration: iter, Rounds: ev.Rounds, Err: s.curErr, Ands: s.cur.NumAnds()})
		return ev, nil
	}

	bestCand := rankCandidates(ctx, s.ev, s.evalArena, cands, s.workers)
	if err := ctx.Err(); err != nil {
		// Ranking was cut short; nothing has been committed. (The care
		// reroll and generator cache refresh above are idempotent: a later
		// retry of this iteration reproduces them bitwise.)
		return Event{}, err
	}

	// Committed from here on.
	s.iterations = iter
	s.streak = 0
	rec := IterRecord{Iteration: iter, Rounds: s.n, Candidates: len(cands)}

	if bestCand.Err > s.opts.Threshold {
		rec.Err, rec.Ands = s.curErr, s.cur.NumAnds()
		s.record(rec)
		if !careFresh {
			// Every candidate from the persisted care set is over budget.
			// The paper's flow draws fresh patterns each iteration, so the
			// threshold verdict is only final on a fresh draw: reroll next
			// step and retry, counting toward the stall guard.
			s.stall++
			s.careOK = false
			return Event{Kind: EventThreshold, Iteration: iter, Rounds: s.n,
				Candidates: len(cands), Err: s.curErr, Ands: s.cur.NumAnds()}, nil
		}
		ev := s.finish(ReasonThreshold)
		ev.Kind = EventThreshold
		ev.Iteration, ev.Rounds, ev.Candidates = iter, s.n, len(cands)
		return ev, nil
	}

	// Pre-commit trials run on the candidate applied to a throwaway
	// id-identical clone, so the working graph (and with it the incremental
	// arenas) is untouched on rejection.
	var trial *aig.Graph
	if s.cert != nil || s.depthCap > 0 {
		trial = bestCand.Apply(s.cur.Clone())
	}
	// Certified mode: prove the exact maximum error of the candidate
	// circuit before anything is committed. A certification error (e.g. an
	// exhausted SAT conflict budget) rejects too: the flow never commits a
	// change it could not prove.
	//
	// The working graph is the checker's base: its exact maximum error is
	// within the bound in every state a step can start from, so the SAT
	// backend only searches where the trial differs from it. NewSession
	// starts from the swept original (error 0). Each later state is a
	// certified trial: ApplyInPlace builds the same function as the
	// certified Apply, and optimizer flushes preserve the function. Restore
	// brings cur back id-exact under the checkpoint CRC and refuses a
	// different MaxError.
	var cert exact.Certificate
	if s.cert != nil {
		var err error
		cert, err = s.cert.Certify(s.cur, trial, s.opts.MaxError)
		if err != nil || !cert.OK {
			s.certRejected++
			s.stall++
			// The same care patterns would re-elect the same winner: force a
			// fresh draw so the next iteration can find a certifiable one.
			s.careOK = false
			rec.Rejected = true
			rec.Err, rec.Ands = s.curErr, s.cur.NumAnds()
			s.record(rec)
			if err != nil {
				s.logf("iter %d: certification error at node %d: %v", iter, bestCand.Node, err)
			} else {
				s.logf("iter %d: rejected LAC at node %d: exact max error %.5g > %.5g (%s)",
					iter, bestCand.Node, cert.MaxErr, s.opts.MaxError, cert.Backend)
			}
			return Event{Kind: EventCertRejected, Iteration: iter, Rounds: s.n,
				Candidates: len(cands), Err: s.curErr, Ands: s.cur.NumAnds(),
				CertBackend: cert.Backend, CertMaxErr: cert.MaxErr,
				Rejections: s.certRejected}, nil
		}
	}

	// Delay-constrained mode: the trial is re-optimized as the commit
	// would be; a change that leaves it too deep is dropped and the flow
	// retries with fresh patterns next iteration, stall-guarded.
	if s.depthCap > 0 {
		if !s.opts.SkipOptimize {
			trial = opt.Optimize(trial)
		}
		if trial.Depth() > s.depthCap {
			s.stall++
			s.careOK = false
			rec.Err, rec.Ands = s.curErr, s.cur.NumAnds()
			s.record(rec)
			return Event{Kind: EventDepthReject, Iteration: iter, Rounds: s.n,
				Candidates: len(cands), Err: s.curErr, Ands: s.cur.NumAnds()}, nil
		}
	}

	prevAnds := s.cur.NumAnds()
	prevErr := s.curErr
	flushed := true
	if s.depthCap > 0 {
		// The checked trial is the committed circuit: adopting it is a
		// flush, so a depth-capped session optimizes every commit and its
		// working graph always has the depth that was checked.
		s.adopt(trial)
		s.evalArena.Rebind(s.cur, s.evalPats)
	} else {
		flushed = s.commitInPlace(bestCand)
	}
	s.curErr = bestCand.Err
	s.applied++
	switch {
	case s.cur.NumAnds() < prevAnds:
		s.stall = 0
	case s.curErr != prevErr:
		// An error-budget trade: no smaller yet, but the changed circuit can
		// unlock reductions with fresh patterns next step.
		s.stall = 0
	default:
		s.stall++
	}
	if flushed || s.cur.NumAnds() >= prevAnds {
		// Care persists exactly as long as the incremental caches do. An
		// optimizer flush renumbers every node and drops the generator cache,
		// so nothing the persisted patterns fed survives it — and the flow
		// measurably benefits from the paper's fresh-patterns diversity on
		// precisely those commits (budget trades and zero-gain exchanges;
		// a pair of inverse zero-gain changes can even toggle forever on a
		// persisted set). Pure winning streaks keep their patterns.
		s.careOK = false
	}
	rec.Applied, rec.Err, rec.Ands = true, s.curErr, s.cur.NumAnds()
	s.record(rec)
	s.logf("iter %d: applied LAC at node %d, err %.5g, ands %d",
		iter, bestCand.Node, s.curErr, s.cur.NumAnds())
	ev := Event{Kind: EventApplied, Iteration: iter, Rounds: s.n, Candidates: len(cands),
		Applied: true, Err: s.curErr, Ands: s.cur.NumAnds()}
	if s.cert != nil {
		ev.Kind = EventCertified
		ev.CertBackend = cert.Backend
		ev.CertMaxErr = cert.MaxErr
		ev.Rejections = s.certRejected
	}
	return ev, nil
}

// patternSeed is the care-pattern seed of iteration iter.
func (s *Session) patternSeed(iter int) int64 { return s.opts.Seed + int64(iter)*7919 }

// generateIncremental is the produce phase of Step. The care arena persists
// across pure-win commits — those keep it up to date by dirty-TFO
// resimulation — and is rerolled with the step's seed after an empty round,
// a rejection, a rounds change, a non-shrinking commit, or any optimizer
// flush (pattern persistence and cache persistence share one lifetime).
// The generator reuses its cached candidates for every node the last
// commit's stale closure spared.
//
// Every mutation here is idempotent with respect to a retry of the same
// iteration (after a context abort, or after Restore): the reroll is a pure
// function of (iterSeed, n), regeneration from an all-false mask returns
// the cache unchanged, and a full rescan after a dropped cache is bitwise
// identical to the cached merge.
func (s *Session) generateIncremental(iterSeed int64) (cands []Candidate, fresh bool) {
	if s.evalArena == nil {
		s.evalArena = sim.NewArena(s.cur, s.evalPats, s.workers)
	}
	reroll := !s.careOK || s.careN != s.n
	if reroll {
		s.careSeed, s.careN, s.careOK = iterSeed, s.n, true
		s.genStale, s.genCache = nil, nil
	}
	if s.careArena == nil || reroll {
		care := s.opts.Patterns(s.cur.NumPIs(), s.careN, s.careSeed)
		if s.careArena == nil {
			s.careArena = sim.NewArena(s.cur, care, s.workers)
		} else {
			s.careArena.Rebind(s.cur, care)
		}
	}
	cands, cache := s.opts.Generator.GenerateIncremental(s.cur, s.careArena.Vectors(),
		s.careArena.Patterns().Valid, s.workers, s.genStale, s.genCache)
	s.genCache = cache
	// The mask is consumed: until the next commit writes a fresh closure,
	// nothing is stale, and a retried step reproduces cands from the cache.
	s.genStale = allFalse(s.genStale, s.cur.NumNodes())
	return cands, reroll
}

// commitInPlace applies the winning candidate to the working graph itself.
// A commit that does not flush brings the persistent machinery up to date:
// both arenas resimulate only the dirty TFO slice of the change, and the
// stale closure over the epoch diff and touched list tells the next
// generation which candidate entries to rebuild. A flush discards all
// three, so it skips them. The traditional optimizer runs at an adaptive
// cadence: a commit stays on the pure incremental path only when it is an
// outright win — the live AND count shrank and no error budget was spent.
// Anything else (a zero-gain commit, or one that consumed budget) gets the
// optimizer immediately, because those are exactly the commits where a
// per-commit optimizer harvests reductions the LAC alone did not; skipping
// it there measurably degrades the final area. A backstop
// flush every optEvery commits bounds drift during long winning streaks.
// Each flush compacts the graph, resets the incremental state and gives
// the best snapshot its chance to improve. The return reports whether a
// flush happened — the caller redraws the care patterns then, so pattern
// persistence and cache persistence share one lifetime.
func (s *Session) commitInPlace(c *Candidate) bool {
	if s.best == s.cur {
		// best must not alias a graph that is about to mutate in place.
		s.best = s.cur.Sweep()
	}
	prevAnds := s.cur.NumAnds()
	pureWin := c.Err == s.curErr // no budget spent; shrink checked below
	s.epochs = s.cur.EpochsInto(s.epochs)
	s.touched = s.touched[:0]
	c.ApplyInPlace(s.cur, &s.touched)
	s.sinceOpt++
	pureWin = pureWin && s.cur.NumAnds() < prevAnds
	if !s.opts.SkipOptimize && (s.sinceOpt >= optEvery || !pureWin) {
		s.flushOptimize()
		// The care arena is NOT rebound here: the caller redraws the care
		// patterns after every flush, and the next generateIncremental
		// rebinds the arena to the fresh draw in one pass.
		s.evalArena.Rebind(s.cur, s.evalPats)
		return true
	}
	s.careArena.Update()
	s.evalArena.Update()
	s.genStale = s.cur.StaleClosure(s.epochs, s.touched)
	if s.opts.SkipOptimize && s.cur.NumAnds() < s.best.NumAnds() {
		// Ablation mode has no optimize boundaries; track the best
		// snapshot on every commit, on the swept in-place counts.
		s.best = s.cur.Sweep()
	}
	return false
}

// flushOptimize runs the traditional optimizer on the working graph and
// adopts the result.
func (s *Session) flushOptimize() { s.adopt(opt.Optimize(s.cur)) }

// adopt installs g, a compact graph with fresh node ids, as the working
// graph: it resets the incremental caches and updates the best snapshot
// when g is the smallest circuit seen. The caller rebinds the evaluation
// arena if the session steps on. The working graph is always within the
// error threshold when this runs, so every best snapshot respects the
// budget.
func (s *Session) adopt(g *aig.Graph) {
	s.cur = g
	s.sinceOpt = 0
	s.genStale, s.genCache = nil, nil
	if s.cur.NumAnds() < s.best.NumAnds() {
		// Sweep makes an independent copy: s.cur mutates in place later.
		s.best = s.cur.Sweep()
	}
}

func (s *Session) releaseArenas() {
	if s.careArena != nil {
		s.careArena.Release()
		s.careArena = nil
	}
	if s.evalArena != nil {
		s.evalArena.Release()
		s.evalArena = nil
	}
}

func allFalse(mask []bool, n int) []bool {
	if cap(mask) < n {
		return make([]bool, n)
	}
	mask = mask[:n]
	for i := range mask {
		mask[i] = false
	}
	return mask
}

func (s *Session) record(rec IterRecord) {
	s.history = append(s.history, rec)
}

func (s *Session) finish(reason string) Event {
	// Commits since the last optimize boundary have not had their shot at
	// the best snapshot yet: flush them through the optimizer, unless the
	// working graph is over budget (ReasonBudget) and must not be recorded.
	if !s.opts.SkipOptimize && s.sinceOpt > 0 && s.curErr <= s.opts.Threshold {
		s.flushOptimize()
	}
	s.done = true
	s.reason = reason
	// A finished session never steps again; return the arenas' buffers to
	// the pools (Result only needs the best snapshot and the evaluator).
	s.releaseArenas()
	return s.doneEvent()
}

func (s *Session) doneEvent() Event {
	return Event{Kind: EventDone, Iteration: s.iterations, Rounds: s.n,
		Err: s.curErr, Ands: s.cur.NumAnds(), Done: true, Reason: s.reason}
}

// Done reports whether the flow has terminated.
func (s *Session) Done() bool { return s.done }

// Reason returns the termination reason ("" while the session is live).
func (s *Session) Reason() string { return s.reason }

// Iterations returns the number of completed iterations.
func (s *Session) Iterations() int { return s.iterations }

// Applied returns the number of accepted LACs so far.
func (s *Session) Applied() int { return s.applied }

// Rounds returns the care-set simulation rounds N currently in effect.
func (s *Session) Rounds() int { return s.n }

// CurrentError returns the cumulative estimated error of the working circuit.
func (s *Session) CurrentError() float64 { return s.curErr }

// CurrentAnds returns the AND count of the working circuit.
func (s *Session) CurrentAnds() int { return s.cur.NumAnds() }

// History returns the iteration trace so far (a live slice; do not mutate).
func (s *Session) History() []IterRecord { return s.history }

// CertRejections returns the number of winning candidates the exact
// checker rejected (0 unless Options.MaxError is set).
func (s *Session) CertRejections() int { return s.certRejected }

// Result finalizes the session outcome: the smallest circuit observed and
// its measured error on the evaluation pattern set. It may be called on a
// live session (e.g. after a deadline) for the best-so-far result; the
// session can keep stepping afterwards. ("Observed" means at the optimize
// boundaries — the best snapshot is always a fully
// optimized circuit; a live mid-batch call can lag the working graph by up
// to optEvery commits.)
func (s *Session) Result() Result {
	if !s.finalOK || !s.done {
		s.finalErr = s.ev.EvalGraph(s.best, s.evalPats)
		s.finalOK = s.done
	}
	return Result{
		Graph:      s.best,
		FinalError: s.finalErr,
		Iterations: s.iterations,
		Applied:    s.applied,
		History:    s.history,
	}
}
