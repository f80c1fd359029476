// Package exact certifies worst-case error bounds between an original
// circuit and an approximate candidate — the exact counterpart to the
// Monte-Carlo estimates of package errest. Where errest answers "what is
// the average error on these sampled patterns", this package answers "is
// the maximum arithmetic error over ALL inputs at most T", with a proof.
//
// Two backends share one miter construction (both circuits imported into a
// single structurally hashed graph over shared primary inputs, so
// identical cones merge and the per-output difference functions fold):
//
//   - An exhaustive bit-parallel evaluator for small support: when the
//     union support of the difference functions (plus the original output
//     bits they flip) has at most Config.MaxExhaustivePIs inputs, all 2^s
//     patterns are enumerated 64 at a time in bounded blocks, yielding the
//     exact maximum error distance — and, for free, the exact error rate,
//     exact NMED and the worst-case output flip count over the whole space.
//
//   - A CNF backend for everything else. The caller names a base circuit
//     already known to be within the bound (the original always is), and
//     the miter asks for an input where the candidate violates the bound,
//     differs from the base, and the base does not violate it. The cone of
//     that query is Tseitin-encoded and the self-contained CDCL solver of
//     package exact/sat decides it. UNSAT is the certificate; a SAT model is
//     replayed through the simulator to a concrete violating input pattern
//     before it is reported, so the solver never has the final word on a
//     violation.
//
// Both backends agree by construction, and the fuzz target FuzzMiterSAT
// holds them to it. The checker is deterministic: no wall clock (timing
// uses the injected Config.Now) and no map iteration participates in any
// verdict.
package exact

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"

	"repro/internal/aig"
	"repro/internal/exact/sat"
	"repro/internal/sim"
	"repro/internal/tt"
)

// Backend names reported in Certificate.Backend and observability labels.
const (
	BackendTrivial    = "trivial"
	BackendExhaustive = "exhaustive"
	BackendSAT        = "sat"
)

// ErrBudget is returned when the SAT backend exhausts its conflict budget
// before reaching a verdict. Callers should treat it as "not certified".
var ErrBudget = errors.New("exact: SAT conflict budget exhausted")

// DefaultMaxExhaustivePIs is the support size up to which the exhaustive
// backend is preferred: 2^24 patterns at 64 per word is a quarter-million
// simulation words, comfortably cheaper than a SAT call on the same cone.
const DefaultMaxExhaustivePIs = 24

// defaultBlockWords bounds the per-block simulation footprint of the
// exhaustive backend (64 Ki patterns per block).
const defaultBlockWords = 1024

// Config tunes a Checker. The zero value picks the production defaults.
type Config struct {
	// MaxExhaustivePIs is the largest difference-support size decided by
	// exhaustive enumeration; larger cones go to the SAT backend. 0 means
	// DefaultMaxExhaustivePIs; a negative value forces the SAT backend for
	// every instance (a testing knob that lets the exhaustive evaluator
	// serve as cross-check oracle).
	MaxExhaustivePIs int
	// BlockWords is the simulation block size of the exhaustive backend in
	// 64-pattern words. 0 means defaultBlockWords.
	BlockWords int
	// SATConflictBudget caps the conflicts of one SAT call; 0 = unbounded.
	// An exhausted budget surfaces as ErrBudget.
	SATConflictBudget int64
	// Now, when set, timestamps backend calls for Observe. nil reports zero
	// latencies (the checker itself never reads a wall clock).
	Now func() time.Time
	// Observe, when set, receives one call per certification with the
	// backend that decided it, the latency in seconds (0 when Now is nil)
	// and the SAT conflicts spent (0 for non-SAT backends). The service
	// layer hangs its metrics here.
	Observe func(backend string, seconds float64, conflicts int64)
}

// Certificate is the outcome of one certification call.
type Certificate struct {
	// OK reports that the maximum error distance is ≤ Threshold, exactly.
	OK bool
	// Backend that produced the verdict: BackendTrivial (the difference
	// folded to constant false in the miter), BackendExhaustive or
	// BackendSAT.
	Backend string
	// Threshold is the integer error-distance bound certified against.
	Threshold uint64
	// SupportSize is the number of primary inputs the difference depends on.
	SupportSize int
	// MaxED is the exact maximum error distance (exhaustive backend), or
	// the error distance of the found witness (SAT backend, OK == false).
	// It is 0 for a SAT certificate of OK — UNSAT proves the bound without
	// computing the true maximum.
	MaxED uint64
	// MaxErr is MaxED normalized by 2^nPOs − 1 (the NMED scale).
	MaxErr float64
	// ER, NMED and MaxFlips are exact whole-space measurements, filled by
	// the exhaustive backend only: error rate, normalized mean error
	// distance, and the worst-case number of flipped outputs.
	ER       float64
	NMED     float64
	MaxFlips int
	// Conflicts spent by the SAT backend (0 otherwise).
	Conflicts int64
	// Witness, when OK is false, is a primary-input assignment whose error
	// distance exceeds Threshold (inputs outside the support are false).
	// It has been replayed through the simulator, not just read off a model.
	Witness []bool
}

// Checker certifies candidate graphs against one original circuit. It is
// not safe for concurrent use; the flow certifies one candidate at a time.
type Checker struct {
	cfg    Config
	orig   *aig.Graph
	nPIs   int
	nPOs   int
	top    uint64  // 2^nPOs − 1, the largest error distance
	maxVal float64 // top as a float, the normalization scale (2^64 at 64 outputs)

	// cone lists every transitive-fanin cone the checker walks: the
	// imported graphs' live logic, the miter's support and the SAT query.
	// seeds and nodes are its reused seed and listing buffers.
	cone  aig.ConeMarker
	seeds []aig.Node
	nodes []aig.Node
}

// New builds a Checker for the original circuit. The arithmetic error
// distance reads the outputs as an unsigned binary number (PO 0 least
// significant, as in errest), so the circuit must have at most 64 outputs.
func New(orig *aig.Graph, cfg Config) (*Checker, error) {
	if orig.NumPOs() > 64 {
		return nil, fmt.Errorf("exact: %d outputs exceed the 64-bit value encoding", orig.NumPOs())
	}
	if orig.NumPOs() == 0 {
		return nil, errors.New("exact: circuit has no outputs")
	}
	if cfg.MaxExhaustivePIs == 0 {
		cfg.MaxExhaustivePIs = DefaultMaxExhaustivePIs
	}
	if cfg.BlockWords <= 0 {
		cfg.BlockWords = defaultBlockWords
	}
	return &Checker{
		cfg:    cfg,
		orig:   orig,
		nPIs:   orig.NumPIs(),
		nPOs:   orig.NumPOs(),
		top:    ^uint64(0) >> uint(64-orig.NumPOs()),
		maxVal: math.Pow(2, float64(orig.NumPOs())) - 1,
	}, nil
}

// EDThreshold converts a normalized maximum-error bound (the NMED scale:
// max |ŷ−y| / (2^nPOs−1) ≤ bound) into the equivalent integer
// error-distance threshold. Error distances are integers, so the bound is
// exact: floor with a half-ULP guard against bounds written as decimal
// fractions.
func (c *Checker) EDThreshold(bound float64) uint64 {
	if bound <= 0 {
		return 0
	}
	t := math.Floor(bound*c.maxVal + 1e-9)
	if t >= c.maxVal {
		// The integer clamp: at 64 outputs maxVal is 2^64, which no uint64
		// holds.
		return c.top
	}
	return uint64(t)
}

// Certify certifies that the exact maximum error of approx against the
// original is at most the normalized bound (see EDThreshold). base is a
// circuit whose exact maximum error is already within that bound, such as
// the original or a previously certified circuit (see CertifyED).
func (c *Checker) Certify(base, approx *aig.Graph, bound float64) (Certificate, error) {
	return c.CertifyED(base, approx, c.EDThreshold(bound))
}

// CertifyED certifies that max_x |value_orig(x) − value_approx(x)| ≤ maxED,
// over every input assignment x. The certificate is exact in both
// directions: OK true is a proof of the bound, OK false comes with a
// replayed witness input exceeding it.
//
// base must be a circuit with the same interface whose exact maximum error
// is at most maxED; the original always qualifies. The SAT backend uses it
// to search only the inputs where approx differs from base: wherever the
// two agree, approx's error is base's and within the bound. The verdict
// does not depend on base, but which witness a rejection reports does. A
// base that breaks the precondition can make the SAT backend certify a
// violation. The trivial and exhaustive backends ignore base.
func (c *Checker) CertifyED(base, approx *aig.Graph, maxED uint64) (Certificate, error) {
	if base.NumPIs() != c.nPIs || base.NumPOs() != c.nPOs {
		return Certificate{}, fmt.Errorf("exact: interface mismatch: original %d PIs/%d POs, base %d PIs/%d POs",
			c.nPIs, c.nPOs, base.NumPIs(), base.NumPOs())
	}
	m, err := c.buildMiter(approx)
	if err != nil {
		return Certificate{}, err
	}
	if m.trivial() {
		c.observe(BackendTrivial, 0, 0)
		return Certificate{OK: true, Backend: BackendTrivial, Threshold: maxED}, nil
	}
	if c.cfg.MaxExhaustivePIs >= 0 && len(m.support) <= c.cfg.MaxExhaustivePIs {
		start := c.now()
		cert := c.exhaustive(m, maxED, true)
		c.observe(BackendExhaustive, c.since(start), 0)
		return cert, nil
	}
	start := c.now()
	cert, err := c.satCertify(m, base, maxED)
	c.observe(BackendSAT, c.since(start), cert.Conflicts)
	return cert, err
}

// MaxError measures the exact whole-space error of approx against the
// original with the exhaustive backend: maximum error distance, error
// rate, NMED and worst-case flip count. It fails when the difference
// support exceeds the exhaustive capacity (certification against a bound
// does not — CertifyED switches to SAT there).
func (c *Checker) MaxError(approx *aig.Graph) (Certificate, error) {
	m, err := c.buildMiter(approx)
	if err != nil {
		return Certificate{}, err
	}
	if m.trivial() {
		return Certificate{OK: true, Backend: BackendTrivial}, nil
	}
	cap := c.cfg.MaxExhaustivePIs
	if cap < 0 {
		cap = DefaultMaxExhaustivePIs
	}
	if len(m.support) > cap {
		return Certificate{}, fmt.Errorf("exact: support %d exceeds exhaustive capacity %d", len(m.support), cap)
	}
	cert := c.exhaustive(m, math.MaxUint64, false)
	cert.OK = true // measurement, not a bound check
	cert.Threshold = 0
	return cert, nil
}

func (c *Checker) now() time.Time {
	if c.cfg.Now == nil {
		return time.Time{}
	}
	return c.cfg.Now()
}

func (c *Checker) since(start time.Time) float64 {
	if c.cfg.Now == nil {
		return 0
	}
	return c.cfg.Now().Sub(start).Seconds()
}

func (c *Checker) observe(backend string, secs float64, conflicts int64) {
	if c.cfg.Observe != nil {
		c.cfg.Observe(backend, secs, conflicts)
	}
}

// miter is both circuits imported into one structurally hashed graph over
// shared primary inputs.
type miter struct {
	g       *aig.Graph
	pis     []aig.Lit // shared primary inputs
	origPOs []aig.Lit // original output bits, LSB first
	apprPOs []aig.Lit // approximate output bits
	diff    []aig.Lit // per-output XOR; strash folds identical cones to const
	support []int     // PI indices the error distance depends on, ascending
}

// trivial reports that every difference folded to constant false: the
// candidate is exactly equivalent and any bound holds.
func (m *miter) trivial() bool {
	for _, d := range m.diff {
		if d != aig.LitFalse {
			return false
		}
	}
	return true
}

func (c *Checker) buildMiter(approx *aig.Graph) (*miter, error) {
	if approx.NumPIs() != c.nPIs || approx.NumPOs() != c.nPOs {
		return nil, fmt.Errorf("exact: interface mismatch: original %d PIs/%d POs, candidate %d PIs/%d POs",
			c.nPIs, c.nPOs, approx.NumPIs(), approx.NumPOs())
	}
	g := aig.New()
	pis := make([]aig.Lit, c.nPIs)
	for i := 0; i < c.nPIs; i++ {
		pis[i] = g.AddPI(c.orig.PIName(i))
	}
	m := &miter{
		g:       g,
		pis:     pis,
		origPOs: c.importGraph(g, c.orig, pis),
		apprPOs: c.importGraph(g, approx, pis),
	}
	m.diff = make([]aig.Lit, c.nPOs)
	for o := 0; o < c.nPOs; o++ {
		m.diff[o] = g.Xor(m.origPOs[o], m.apprPOs[o])
	}

	// The error distance at input x is |Σ_{o: d_o(x)} ±2^o| with the sign
	// of each term set by the ORIGINAL output bit, so the support is the
	// union of every non-constant difference cone plus the original output
	// cones at positions where the difference can fire at all.
	c.seeds = c.seeds[:0]
	for o := 0; o < c.nPOs; o++ {
		if m.diff[o] != aig.LitFalse {
			c.seeds = append(c.seeds, m.diff[o].Node(), m.origPOs[o].Node())
		}
	}
	c.nodes = c.cone.Mark(g, c.nodes[:0], c.seeds...)
	for i := 0; i < c.nPIs; i++ {
		if c.cone.InCone(pis[i].Node()) {
			m.support = append(m.support, i)
		}
	}
	return m, nil
}

// importGraph rebuilds the live cone of src inside dst, mapping src's i-th
// primary input to the literal pis[i]. It returns src's output literals
// expressed in dst. The live cone is imported in ascending id order, so
// arbitrarily deep circuits import without recursion, and dead slots in
// src are skipped entirely.
func (c *Checker) importGraph(dst *aig.Graph, src *aig.Graph, pis []aig.Lit) []aig.Lit {
	c.seeds = c.seeds[:0]
	for _, po := range src.POs() {
		c.seeds = append(c.seeds, po.Node())
	}
	c.nodes = c.cone.Mark(src, c.nodes[:0], c.seeds...)
	m := make([]aig.Lit, src.NumNodes())
	for i, pi := range src.PIs() {
		m[pi] = pis[i]
	}
	for i := len(c.nodes) - 1; i >= 0; i-- {
		nd := c.nodes[i]
		if !src.IsAnd(nd) {
			continue
		}
		f0, f1 := src.Fanin0(nd), src.Fanin1(nd)
		a := m[f0.Node()].NotCond(f0.IsCompl())
		b := m[f1.Node()].NotCond(f1.IsCompl())
		m[nd] = dst.And(a, b)
	}
	pos := make([]aig.Lit, src.NumPOs())
	for i, po := range src.POs() {
		pos[i] = m[po.Node()].NotCond(po.IsCompl())
	}
	return pos
}

// exhaustive enumerates all 2^s assignments of the miter's support,
// simulating the miter in bounded blocks of 64-pattern words, and computes
// the exact maximum error distance along with whole-space ER, NMED and the
// worst-case flip count. Inputs outside the support are held at false —
// the error distance provably does not depend on them. When earlyExit is
// set, enumeration stops at the first pattern exceeding maxED.
func (c *Checker) exhaustive(m *miter, maxED uint64, earlyExit bool) Certificate {
	s := len(m.support)
	total := uint64(1) << uint(s)
	totalWords := int((total + 63) / 64)
	blockWords := c.cfg.BlockWords
	if blockWords > totalWords {
		blockWords = totalWords
	}

	pats := &sim.Patterns{Words: blockWords, Valid: 64 * blockWords, In: make([][]uint64, c.nPIs)}
	zero := make([]uint64, blockWords)
	for i := range pats.In {
		pats.In[i] = zero
	}
	for _, pi := range m.support {
		pats.In[pi] = make([]uint64, blockWords)
	}

	cert := Certificate{Backend: BackendExhaustive, Threshold: maxED, SupportSize: s}
	var (
		bad      uint64 // patterns with any flipped output
		sumED    uint64
		bestED   uint64
		bestIdx  uint64
		maxFlips int
		valsO    [64]uint64
		valsA    [64]uint64
	)

	for base := 0; base < totalWords; base += blockWords {
		nw := blockWords
		if base+nw > totalWords {
			nw = totalWords - base
		}
		// Support input j is bit j of the pattern index.
		for j, pi := range m.support {
			w := pats.In[pi]
			for i := range w[:nw] {
				w[i] = tt.VarWord(j, base+i)
			}
		}
		vecs := sim.Simulate(m.g, pats)
		for w := 0; w < nw; w++ {
			transposeLits(vecs, m.origPOs, w, valsO[:])
			transposeLits(vecs, m.apprPOs, w, valsA[:])
			gbase := uint64(base+w) * 64
			hi := 64
			if rem := total - gbase; rem < 64 {
				hi = int(rem)
			}
			for b := 0; b < hi; b++ {
				vo, va := valsO[b], valsA[b]
				d := vo ^ va
				if d == 0 {
					continue
				}
				bad++
				if fl := bits.OnesCount64(d); fl > maxFlips {
					maxFlips = fl
				}
				var ed uint64
				if vo >= va {
					ed = vo - va
				} else {
					ed = va - vo
				}
				sumED += ed
				if ed > bestED {
					bestED, bestIdx = ed, gbase+uint64(b)
				}
				if earlyExit && ed > maxED {
					vecs.Release()
					cert.MaxED = ed
					cert.MaxErr = float64(ed) / c.maxVal
					cert.MaxFlips = maxFlips
					cert.Witness = c.witness(m.support, gbase+uint64(b))
					return cert
				}
			}
		}
		vecs.Release()
	}

	space := math.Ldexp(1, s) // 2^s, exact
	cert.OK = bestED <= maxED
	cert.MaxED = bestED
	cert.MaxErr = float64(bestED) / c.maxVal
	cert.ER = float64(bad) / space
	cert.NMED = float64(sumED) / space / c.maxVal
	cert.MaxFlips = maxFlips
	if !cert.OK {
		cert.Witness = c.witness(m.support, bestIdx)
	}
	return cert
}

// witness expands a support-space pattern index into a full primary-input
// assignment (non-support inputs false).
func (c *Checker) witness(support []int, idx uint64) []bool {
	w := make([]bool, c.nPIs)
	for j, pi := range support {
		w[pi] = idx>>uint(j)&1 == 1
	}
	return w
}

// transposeLits extracts the 64 per-pattern output values encoded in word
// index w of the PO literals: vals[b] has bit o equal to pattern b of
// pos[o]. The complement convention matches sim.Vectors.LitWords.
func transposeLits(v *sim.Vectors, pos []aig.Lit, w int, vals []uint64) {
	for b := range vals {
		vals[b] = 0
	}
	for o, po := range pos {
		ws, inv := v.LitWords(po)
		word := ws[w] ^ inv
		for ; word != 0; word &= word - 1 {
			vals[bits.TrailingZeros64(word)] |= 1 << uint(o)
		}
	}
}

// satCertify decides max ED > maxED with the CNF backend. Over one miter of
// the original O, the base B and the candidate A it asks for an input x with
//
//  1. |O(x) − A(x)| > maxED,
//  2. A(x) ≠ B(x) on some output, and
//  3. |O(x) − B(x)| ≤ maxED, a lemma the caller guarantees for every x.
//
// The query is exact both ways: wherever A(x) = B(x), |O − A| = |O − B| ≤
// maxED, so every violation satisfies 2 and 3 too. When B's outputs strash
// onto O's (the original as base), 2 follows from 1 and 3 folds to true,
// so only 1 is built. The query cone is Tseitin-encoded and the CDCL solver
// of exact/sat decides it. UNSAT certifies the bound. A model is replayed
// through the simulator before it is believed.
func (c *Checker) satCertify(m *miter, base *aig.Graph, maxED uint64) (Certificate, error) {
	cert := Certificate{Backend: BackendSAT, Threshold: maxED, SupportSize: len(m.support)}
	if maxED >= c.top {
		// No error distance can exceed 2^k − 1.
		cert.OK = true
		return cert, nil
	}
	g := m.g
	query := exceeds(g, m.origPOs, m.apprPOs, maxED)
	basePOs := m.origPOs
	if base != c.orig {
		basePOs = c.importGraph(g, base, m.pis)
	}
	if !slices.Equal(basePOs, m.origPOs) {
		differs := make([]aig.Lit, c.nPOs)
		for o := range differs {
			differs[o] = g.Xor(m.apprPOs[o], basePOs[o])
		}
		query = g.And(query, g.OrN(differs...))
		query = g.And(query, exceeds(g, m.origPOs, basePOs, maxED).Not())
	}
	switch query {
	case aig.LitFalse:
		cert.OK = true
		return cert, nil
	case aig.LitTrue:
		// Every input violates; replay the all-false pattern.
		return c.replay(m, cert, make([]bool, c.nPIs), maxED)
	}

	solver := sat.New()
	if c.cfg.SATConflictBudget > 0 {
		solver.SetConflictBudget(c.cfg.SATConflictBudget)
	}
	c.nodes = c.cone.Mark(g, c.nodes[:0], query.Node())
	varOf := make([]sat.Var, g.NumNodes()) // -1 outside the cone
	for i := range varOf {
		varOf[i] = -1
	}
	// The cone comes in descending ids; variables and clauses follow
	// ascending ids, a deterministic numbering.
	for i := len(c.nodes) - 1; i >= 0; i-- {
		varOf[c.nodes[i]] = solver.NewVar()
	}
	toSAT := func(l aig.Lit) sat.Lit { return sat.MkLit(varOf[l.Node()], l.IsCompl()) }
	for i := len(c.nodes) - 1; i >= 0; i-- {
		n := c.nodes[i]
		if !g.IsAnd(n) {
			continue
		}
		vn := sat.MkLit(varOf[n], false)
		a, b := toSAT(g.Fanin0(n)), toSAT(g.Fanin1(n))
		solver.AddClause(vn.Not(), a)
		solver.AddClause(vn.Not(), b)
		solver.AddClause(vn, a.Not(), b.Not())
	}
	solver.AddClause(toSAT(query))

	status := solver.Solve()
	cert.Conflicts = solver.Conflicts()
	switch status {
	case sat.Unsat:
		cert.OK = true
		return cert, nil
	case sat.Unknown:
		return cert, fmt.Errorf("%w (after %d conflicts)", ErrBudget, cert.Conflicts)
	}
	witness := make([]bool, c.nPIs)
	for i, pi := range m.pis {
		if v := varOf[pi.Node()]; v >= 0 {
			witness[i] = solver.Value(v)
		}
	}
	return c.replay(m, cert, witness, maxED)
}

// replay simulates the witness input through the miter and confirms its
// error distance exceeds maxED; a witness that does not replay is an
// internal inconsistency and is reported as an error, never as a verdict.
func (c *Checker) replay(m *miter, cert Certificate, witness []bool, maxED uint64) (Certificate, error) {
	pats := &sim.Patterns{Words: 1, Valid: 1, In: make([][]uint64, c.nPIs)}
	for i := range pats.In {
		w := make([]uint64, 1)
		if witness[i] {
			w[0] = 1
		}
		pats.In[i] = w
	}
	vecs := sim.Simulate(m.g, pats)
	var vo, va uint64
	for o := 0; o < c.nPOs; o++ {
		if vecs.LitBit(m.origPOs[o], 0) {
			vo |= 1 << uint(o)
		}
		if vecs.LitBit(m.apprPOs[o], 0) {
			va |= 1 << uint(o)
		}
	}
	vecs.Release()
	var ed uint64
	if vo >= va {
		ed = vo - va
	} else {
		ed = va - vo
	}
	if ed <= maxED {
		return cert, fmt.Errorf("exact: SAT witness does not replay: ED %d ≤ threshold %d", ed, maxED)
	}
	cert.OK = false
	cert.MaxED = ed
	cert.MaxErr = float64(ed) / c.maxVal
	cert.Witness = witness
	return cert, nil
}

// exceeds grows |X − Y| > t inside g and returns its literal. X and Y are
// k-bit output vectors read as unsigned integers (LSB first), and t <
// 2^k − 1. One (k+1)-bit two's-complement subtraction d = X + ¬Y + 1 over
// zero-extended operands has the sign bit ¬c, where c is the carry out of
// the low k bits. With c set, |X − Y| = d, which exceeds t when d > t.
// Otherwise |X − Y| = ¬d + 1, which exceeds t when ¬d ≥ t, that is when
// d ≤ ¬t over k bits. Both are comparisons of d against a k-bit constant,
// so no constant wider than the outputs appears.
func exceeds(g *aig.Graph, x, y []aig.Lit, t uint64) aig.Lit {
	d := make([]aig.Lit, len(x))
	carry := aig.LitTrue
	for i := range d {
		a, b := x[i], y[i].Not()
		axb := g.Xor(a, b)
		d[i] = g.Xor(axb, carry)
		carry = g.Or(g.And(a, b), g.And(carry, axb))
	}
	notT := ^t & (^uint64(0) >> uint(64-len(x)))
	return g.Mux(carry, greater(g, d, t), greater(g, d, notT).Not())
}

// greater grows the MSB-first comparison v > t of the unsigned vector v
// (LSB first) against the constant t.
func greater(g *aig.Graph, v []aig.Lit, t uint64) aig.Lit {
	gt, eq := aig.LitFalse, aig.LitTrue
	for i := len(v) - 1; i >= 0; i-- {
		if t>>uint(i)&1 == 1 {
			eq = g.And(eq, v[i])
		} else {
			gt = g.Or(gt, g.And(eq, v[i]))
			eq = g.And(eq, v[i].Not())
		}
	}
	return gt
}
