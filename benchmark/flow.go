package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/aig"
	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/errest"
	"repro/internal/mapper"
	"repro/internal/resub"
	"repro/internal/sim"
)

// flowCase is one synthesis input of a flow workload: a pre-optimized
// circuit and the complete options it runs under.
type flowCase struct {
	label    string
	orig     *aig.Graph
	opts     core.Options
	maxSteps int // 0 runs the flow to completion
	// check, when set, is a workload-specific independent output check.
	check func(orig, approx *aig.Graph) error
}

// flowRunner runs passes of flow cases until about the deadline. Every pass
// draws fresh flow seeds, so one run averages over several search paths.
type flowRunner struct {
	cases func(pass int) []flowCase
}

// minFlowPasses is the least number of passes an untraced run makes. The
// QoR ratios are taken over exactly these leading passes and the resident
// set is read after them, so neither depends on how many passes the deadline
// allowed. A traced run reports neither and runs every case twice per pass,
// so it makes at least minTracedPasses.
const (
	minFlowPasses   = 3
	minTracedPasses = 2
)

// flowOut is one flow run as the caller sees it.
type flowOut struct {
	dur   time.Duration
	steps []time.Duration
	res   core.Result
	fp    uint64
}

// runFlow runs one case: NewSession, Step until done (or maxSteps), Result.
// ft, when non-nil, traces the run through the public hooks.
func runFlow(c flowCase, ft *flowTrace) (flowOut, error) {
	opts := c.opts
	if ft != nil {
		ft.install(&opts, c.orig)
	}
	ctx := context.Background()
	t0 := time.Now()
	s := core.NewSession(c.orig, opts)
	if ft != nil {
		ft.session(t0, time.Now())
	}
	var out flowOut
	var bestBeforeLast *aig.Graph
	for c.maxSteps == 0 || len(out.steps) < c.maxSteps {
		if ft != nil && len(out.steps) == c.maxSteps-1 {
			// No generator call follows the budget's last step; see finish.
			bestBeforeLast = s.Result().Graph
		}
		ts := time.Now()
		if ft != nil {
			ft.beginStep(ts)
		}
		ev, err := s.Step(ctx)
		te := time.Now()
		if err != nil {
			return flowOut{}, fmt.Errorf("%s: step %d: %w", c.label, len(out.steps)+1, err)
		}
		if ft != nil {
			ft.endStep(te, ev)
		}
		out.steps = append(out.steps, te.Sub(ts))
		if ev.Done {
			break
		}
	}
	out.res = s.Result()
	out.dur = time.Since(t0)
	if ft != nil {
		flushed := bestBeforeLast != nil && out.res.Graph != bestBeforeLast
		ft.finish(t0, t0.Add(out.dur), flushed || s.CurrentAnds() != ft.andsAfterApply)
	}
	out.fp = aig.Fingerprint(out.res.Graph)
	return out, nil
}

// flowRun is one untraced run kept for the checks after the timed loop.
type flowRun struct {
	c    flowCase
	fo   flowOut
	pass int
}

func (r *flowRunner) measure(seconds time.Duration, tr *tracer) (outcome, error) {
	out := outcome{metrics: map[string]float64{}}
	var runs []flowRun
	var passes, tracedPasses []float64
	var steps, tracedSteps []time.Duration
	var flowTime time.Duration
	layers := map[string]float64{}
	runPass := func(pass int) error {
		var passTime, tracedTime time.Duration
		for i, c := range r.cases(pass) {
			fo, err := runFlow(c, nil)
			if err != nil {
				return err
			}
			runs = append(runs, flowRun{c, fo, pass})
			passTime += fo.dur
			steps = append(steps, fo.steps...)
			if tr == nil {
				continue
			}
			ft := newFlowTrace(fmt.Sprintf("%s#%d", c.label, pass), i+1)
			to, err := runFlow(c, ft)
			if err != nil {
				return err
			}
			out.attempted++
			if to.fp != fo.fp {
				out.failf("%s pass %d: traced result fingerprint %016x differs from untraced (%016x)", c.label, pass, to.fp, fo.fp)
			}
			tracedTime += to.dur
			tracedSteps = append(tracedSteps, to.steps...)
			for k, v := range ft.layerSums() {
				layers[k] += v
			}
			tr.add(ft.spans...)
		}
		passes = append(passes, passTime.Seconds())
		flowTime += passTime
		tracedPasses = append(tracedPasses, tracedTime.Seconds())
		return nil
	}
	least := minFlowPasses
	if tr != nil {
		least = minTracedPasses
	}
	var rss float64
	var err error
	var spent []float64 // wall time of each whole pass, traced runs included
	start := time.Now()
	for pass := 0; err == nil && (pass < least || beforeDeadline(start, seconds, spent)); pass++ {
		t0 := time.Now()
		err = runPass(pass)
		spent = append(spent, time.Since(t0).Seconds())
		if pass == least-1 {
			rss = residentMB()
		}
	}
	if err != nil {
		return out, err
	}

	lib := cell.MCNC()
	var ands, areas, delays []float64
	for _, run := range runs {
		out.attempted++
		checkFlow(&out, run.c, run.fo)
		if run.pass < minFlowPasses {
			g := run.fo.res.Graph
			base, fin := mapper.MapCells(run.c.orig, lib), mapper.MapCells(g, lib)
			ands = append(ands, ratio(float64(g.NumAnds()), float64(run.c.orig.NumAnds())))
			areas = append(areas, ratio(fin.Area, base.Area))
			delays = append(delays, ratio(fin.Delay, base.Delay))
		}
	}
	out.metrics["rss_mb"] = rss

	m := out.metrics
	if tr == nil {
		m["wall_s"] = median(passes)
		m["op_p50_ms"] = percentile(msAll(steps), 50)
		m["op_p90_ms"] = percentile(msAll(steps), 90)
		m["ops_per_s"] = float64(len(steps)) / flowTime.Seconds()
		m["and_ratio"] = geomean(ands)
		m["area_ratio"] = geomean(areas)
		m["delay_ratio"] = geomean(delays)
		return out, nil
	}
	// Layer times and counts are per pass; ratios are taken over the sums
	// of their parts.
	for k, v := range layers {
		m[k] = v / float64(len(passes))
	}
	m["opt.flush_ratio"] = ratio(m["opt.flushes"], m["aig.commits"])
	m["errest.pruned_ratio"] = ratio(m["errest.pruned"], m["errest.ranked"])
	m["resub.full_scan_ratio"] = ratio(m["resub.full_scans"], m["resub.calls"])
	m["window.full_scan_ratio"] = ratio(m["window.full_scans"], m["window.calls"])
	certs := m["exact.certs_trivial"] + m["exact.certs_exhaustive"] + m["exact.certs_sat"]
	m["exact.reject_ratio"] = ratio(m["exact.rejections"], certs)
	lat := msAll(tracedSteps)
	tail := tailPercentile(len(lat))
	m["core.step_p50_ms"] = percentile(lat, 50)
	m["core.step_tail_ms"] = percentile(lat, tail)
	m["core.step_tail_pct"] = tail
	m["core.step_samples"] = float64(len(lat))
	m["trace.overhead_pct"] = 100 * (median(tracedPasses) - median(passes)) / median(passes)
	return out, nil
}

// checkFlow runs the independent output checks on one flow result.
func checkFlow(out *outcome, c flowCase, fo flowOut) {
	g := fo.res.Graph
	if err := g.CheckStrict(); err != nil {
		out.failf("%s: result graph fails CheckStrict: %v", c.label, err)
	}
	nEval := c.opts.EvalPatterns
	if nEval < 64 {
		nEval = 64
	}
	pats := sim.UniformN(c.orig.NumPIs(), nEval, c.opts.Seed)
	e := errest.NewEvaluator(c.orig, pats, c.opts.Metric).EvalGraph(g, pats)
	if e != fo.res.FinalError {
		out.failf("%s: re-evaluated error %.17g differs from the reported %.17g", c.label, e, fo.res.FinalError)
	}
	if e > c.opts.Threshold {
		out.failf("%s: re-evaluated error %.6g exceeds the threshold %.6g", c.label, e, c.opts.Threshold)
	}
	if c.check != nil {
		if err := c.check(c.orig, g); err != nil {
			out.failf("%s: %v", c.label, err)
		}
	}
}

// --- independent max-error checks (no internal/exact) -------------------------

// maxEDOn returns the largest arithmetic error distance between orig and
// approx over the given patterns, reading the outputs as an unsigned number
// with PO 0 least significant.
func maxEDOn(orig, approx *aig.Graph, p *sim.Patterns) uint64 {
	a := sim.SimulateWorkers(orig, p, 1)
	defer a.Release()
	b := sim.SimulateWorkers(approx, p, 1)
	defer b.Release()
	ya, yb := sim.POWords(orig, a), sim.POWords(approx, b)
	var worst uint64
	for w := 0; w < p.Words; w++ {
		for bit := 0; bit < 64 && w*64+bit < p.Valid; bit++ {
			var va, vb uint64
			for po := range ya {
				va |= (ya[po][w] >> uint(bit) & 1) << uint(po)
				vb |= (yb[po][w] >> uint(bit) & 1) << uint(po)
			}
			d := va - vb
			if vb > va {
				d = vb - va
			}
			if d > worst {
				worst = d
			}
		}
	}
	return worst
}

// edBound converts a normalized maximum-error bound into the integer error
// distance it allows for nPOs outputs (the NMED scale, as MaxError uses).
func edBound(bound float64, nPOs int) uint64 {
	maxVal := math.Ldexp(1, nPOs) - 1
	return uint64(math.Floor(bound*maxVal + 1e-9))
}

// exhaustiveMaxErrorCheck enumerates every input pattern.
func exhaustiveMaxErrorCheck(bound float64) func(orig, approx *aig.Graph) error {
	return func(orig, approx *aig.Graph) error {
		worst := maxEDOn(orig, approx, sim.Exhaustive(orig.NumPIs()))
		if lim := edBound(bound, orig.NumPOs()); worst > lim {
			return fmt.Errorf("exhaustive max error distance %d exceeds the certified bound %d", worst, lim)
		}
		return nil
	}
}

// randomMaxErrorCheck simulates 2^logPatterns random patterns in blocks.
func randomMaxErrorCheck(bound float64, logPatterns uint, seed int64) func(orig, approx *aig.Graph) error {
	const blockWords = 1024
	return func(orig, approx *aig.Graph) error {
		lim := edBound(bound, orig.NumPOs())
		blocks := (1 << logPatterns) / (64 * blockWords)
		for b := 0; b < blocks; b++ {
			p := sim.Uniform(orig.NumPIs(), blockWords, seed+int64(b)*7907)
			if worst := maxEDOn(orig, approx, p); worst > lim {
				return fmt.Errorf("random simulation found error distance %d above the certified bound %d", worst, lim)
			}
		}
		return nil
	}
}

// --- tracing through the public hooks -----------------------------------------

// windowedFallbackAnds mirrors the circuit size below which a windowed
// session falls back to the global generator; the traced run's generator
// must be the one the untraced session picks, which the traced == untraced
// fingerprint check enforces.
const windowedFallbackAnds = 200

// defaultGenerator returns the generator a session with these options would
// pick for a circuit of numAnds ANDs, and whether it is the windowed one.
func defaultGenerator(opts core.Options, numAnds int) (core.IncrementalGenerator, bool) {
	rcfg := resub.Config{
		MaxLACsPerNode:  opts.MaxLACsPerNode,
		MaxReplaceTries: opts.MaxReplaceTries,
		MaxDivisors:     opts.MaxDivisors,
		UseEspresso:     opts.UseEspresso,
	}
	if opts.Windowed && numAnds >= windowedFallbackAnds {
		return core.WindowedGenerator{Win: opts.WindowConfig(), Cfg: rcfg}, true
	}
	return core.ResubGenerator{Cfg: rcfg}, false
}

// flowTrace records one flow run's spans at the public boundaries — the
// session calls, the generator, each candidate's ApplyInPlace, the pattern
// source and the certification clock — and derives the Step phases between
// them:
//
//	care = Step entry → generator entry
//	rank = generator exit → first CertNow or ApplyInPlace, or Step exit
//	post = ApplyInPlace exit → Step exit
//
// Post time is charged to opt.flush when the next generator call sees a
// different graph (the optimizer replaced it) and to sim.update otherwise.
type flowTrace struct {
	req    string
	lane   int
	spans  []span
	counts map[string]float64

	flowID, stepID int
	inStep         bool

	stepStart, genEnter, genExit, certFirst, certStart, applyEnter, applyExit time.Time
	genName                                                                   string
	cands                                                                     []core.Candidate

	lastGraph             *aig.Graph
	pending               bool // a commit's post interval awaits classification
	postStart, postEnd    time.Time
	postParent            int
	andsAfterApply        int
	commitsSinceFlushSeen int
}

func newFlowTrace(req string, lane int) *flowTrace {
	return &flowTrace{req: req, lane: lane, counts: map[string]float64{}, flowID: 1}
}

func (ft *flowTrace) span(name string, parent int, start, end time.Time) int {
	id := len(ft.spans) + 2 // 1 is the flow span
	ft.spans = append(ft.spans, span{Name: name, Req: ft.req, ID: id, Parent: parent, Lane: ft.lane, Start: start, End: end})
	return id
}

// install routes the session's hooks through the trace.
func (ft *flowTrace) install(opts *core.Options, orig *aig.Graph) {
	inner, windowed := defaultGenerator(*opts, orig.NumAnds())
	ft.genName = "resub.gen"
	if windowed {
		ft.genName = "window.gen"
	}
	opts.Generator = &tracedGenerator{inner: inner, ft: ft}
	opts.Patterns = func(nPIs, n int, seed int64) *sim.Patterns {
		if ft.inStep {
			ft.counts["sim.care_draws"]++
		}
		return sim.UniformN(nPIs, n, seed)
	}
	opts.CertNow = func() time.Time {
		t := time.Now()
		if ft.certStart.IsZero() {
			ft.certStart = t
		}
		if ft.certFirst.IsZero() {
			ft.certFirst = t
		}
		return t
	}
	opts.CertObserve = func(backend string, _ float64, conflicts int64) {
		t := time.Now()
		start := ft.certStart
		if start.IsZero() {
			start = t // the trivial backend decides without reading the clock
		}
		ft.span("exact.cert", ft.stepID, start, t)
		ft.certStart = time.Time{}
		ft.counts["exact.certs_"+backend]++
		ft.counts["exact.sat_conflicts"] += float64(conflicts)
	}
}

func (ft *flowTrace) session(t0, t1 time.Time) { ft.span("core.session", ft.flowID, t0, t1) }

func (ft *flowTrace) beginStep(t time.Time) {
	ft.stepStart, ft.inStep = t, true
	ft.genEnter, ft.genExit, ft.certFirst, ft.certStart = time.Time{}, time.Time{}, time.Time{}, time.Time{}
	ft.applyEnter, ft.applyExit = time.Time{}, time.Time{}
	ft.cands = nil
	// The step span's ID is reserved now so phases can name it as parent.
	ft.stepID = ft.span("core.step", ft.flowID, t, t)
}

func (ft *flowTrace) enterGenerate(g *aig.Graph) {
	t := time.Now()
	ft.genEnter = t
	if ft.pending {
		name := "sim.update"
		if g != ft.lastGraph {
			name = "opt.flush"
			ft.counts["opt.flushes"]++
			ft.commitsSinceFlushSeen = 0
		}
		ft.span(name, ft.postParent, ft.postStart, ft.postEnd)
		ft.pending = false
	}
	ft.lastGraph = g
}

func (ft *flowTrace) exitGenerate(cands []core.Candidate, fullScan bool) {
	ft.genExit = time.Now()
	ft.cands = cands
	layer := layerOf(ft.genName)
	ft.counts[layer+".calls"]++
	ft.counts[layer+".candidates"] += float64(len(cands))
	if fullScan {
		ft.counts[layer+".full_scans"]++
	}
}

func (ft *flowTrace) endStep(te time.Time, ev core.Event) {
	ft.inStep = false
	ft.spans[ft.stepID-2].End = te
	if !ft.genEnter.IsZero() {
		ft.span("sim.care", ft.stepID, ft.stepStart, ft.genEnter)
		ft.span(ft.genName, ft.stepID, ft.genEnter, ft.genExit)
		rankEnd := te
		for _, t := range []time.Time{ft.certFirst, ft.applyEnter} {
			if !t.IsZero() && t.Before(rankEnd) {
				rankEnd = t
			}
		}
		ft.span("errest.rank", ft.stepID, ft.genExit, rankEnd)
		if len(ft.cands) > 0 {
			ft.counts["errest.ranked"] += float64(len(ft.cands))
			for _, c := range ft.cands {
				if math.IsInf(c.Err, 1) {
					ft.counts["errest.pruned"]++
				}
			}
		}
	} else if ev.Done && ft.commitsSinceFlushSeen > 0 {
		// A finishing step that never reached the generator runs the
		// session's final optimizer flush over the pending commits.
		ft.span("opt.flush", ft.stepID, ft.stepStart, te)
		ft.counts["opt.flushes"]++
	}
	if !ft.applyEnter.IsZero() {
		ft.span("aig.apply", ft.stepID, ft.applyEnter, ft.applyExit)
		ft.pending, ft.postStart, ft.postEnd, ft.postParent = true, ft.applyExit, te, ft.stepID
	}
	if ev.Kind == core.EventCertRejected {
		ft.counts["exact.rejections"]++
	}
	ft.counts["core.steps"]++
	ft.cands = nil
}

// finish closes the flow span. The post interval of a last commit that no
// later generator call classified (a run stopped by its step budget) is
// charged to opt.flush when the caller saw a flush — the session's best
// snapshot, which moves only at flushes, or its AND count changed after the
// commit — and to sim.update otherwise.
func (ft *flowTrace) finish(t0, t1 time.Time, flushed bool) {
	if ft.pending {
		name := "sim.update"
		if flushed {
			name = "opt.flush"
			ft.counts["opt.flushes"]++
		}
		ft.span(name, ft.postParent, ft.postStart, ft.postEnd)
		ft.pending = false
	}
	ft.spans = append(ft.spans, span{Name: "core.flow", Req: ft.req, ID: ft.flowID, Lane: ft.lane, Start: t0, End: t1})
	ft.lastGraph = nil
}

// layerSums aggregates the run's spans and counters into per-layer values
// (times in ms).
func (ft *flowTrace) layerSums() map[string]float64 {
	out := map[string]float64{}
	for k, v := range ft.counts {
		out[k] = v
	}
	d := durations(ft.spans)
	for _, name := range []string{"opt.flush", "errest.rank", "resub.gen", "window.gen", "exact.cert",
		"sim.care", "sim.update", "aig.apply", "core.session"} {
		out[name+"_ms"] = ms(d[name])
	}
	self := selfTimes(ft.spans)
	out["core.self_ms"] = ms(self["core.flow"] + self["core.step"])
	return out
}

// tracedGenerator wraps the session's generator: it timestamps every call
// and wraps each candidate's ApplyInPlace, leaving candidates, their order
// and the cache untouched.
type tracedGenerator struct {
	inner core.IncrementalGenerator
	ft    *flowTrace
}

func (tg *tracedGenerator) Generate(g *aig.Graph, care *sim.Vectors, valid int) []core.Candidate {
	return tg.inner.Generate(g, care, valid)
}

func (tg *tracedGenerator) GenerateWorkers(g *aig.Graph, care *sim.Vectors, valid, workers int) []core.Candidate {
	return tg.inner.GenerateWorkers(g, care, valid, workers)
}

func (tg *tracedGenerator) GenerateIncremental(g *aig.Graph, care *sim.Vectors, valid, workers int,
	stale []bool, cache any) ([]core.Candidate, any) {
	ft := tg.ft
	ft.enterGenerate(g)
	cands, next := tg.inner.GenerateIncremental(g, care, valid, workers, stale, cache)
	for i := range cands {
		apply := cands[i].ApplyInPlace
		cands[i].ApplyInPlace = func(g *aig.Graph, touched *[]aig.Node) {
			ft.applyEnter = time.Now()
			apply(g, touched)
			ft.applyExit = time.Now()
			ft.andsAfterApply = g.NumAnds()
			ft.counts["aig.commits"]++
			ft.commitsSinceFlushSeen++
		}
	}
	ft.exitGenerate(cands, stale == nil)
	return cands, next
}
