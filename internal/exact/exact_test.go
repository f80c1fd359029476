package exact

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/aig"
	"repro/internal/bench"
	"repro/internal/errest"
	"repro/internal/sim"
)

// randGraph builds a random strashed AIG: nAnds AND gates over random
// earlier literals, outputs tapped from random nodes.
func randGraph(rng *rand.Rand, nPIs, nPOs, nAnds int) *aig.Graph {
	g := aig.New()
	lits := make([]aig.Lit, 0, 1+nPIs+nAnds)
	for i := 0; i < nPIs; i++ {
		lits = append(lits, g.AddPI(fmt.Sprintf("i%d", i)))
	}
	for i := 0; i < nAnds; i++ {
		a := lits[rng.Intn(len(lits))].NotCond(rng.Intn(2) == 1)
		b := lits[rng.Intn(len(lits))].NotCond(rng.Intn(2) == 1)
		lits = append(lits, g.And(a, b))
	}
	for o := 0; o < nPOs; o++ {
		g.AddPO(lits[rng.Intn(len(lits))].NotCond(rng.Intn(2) == 1), fmt.Sprintf("o%d", o))
	}
	return g
}

// mutate derives an approximate variant: one random AND node is replaced by
// a random literal (or constant), exactly the shape of a resubstitution LAC.
func mutate(g *aig.Graph, rng *rand.Rand) *aig.Graph {
	var ands []aig.Node
	for n := aig.Node(1); int(n) < g.NumNodes(); n++ {
		if g.IsAnd(n) {
			ands = append(ands, n)
		}
	}
	if len(ands) == 0 {
		return g.Sweep()
	}
	tgt := ands[rng.Intn(len(ands))]
	var repl aig.Lit
	switch rng.Intn(4) {
	case 0:
		repl = aig.LitFalse
	case 1:
		repl = aig.LitTrue
	default:
		n := aig.Node(rng.Intn(g.NumNodes()-1) + 1)
		repl = aig.MakeLit(n, rng.Intn(2) == 1)
	}
	return g.CopyWith(map[aig.Node]aig.Lit{tgt: repl})
}

// bruteMeasure computes the reference whole-space error measurements by
// plain enumeration of all 2^nPIs inputs, independently of the miter and
// support machinery under test.
func bruteMeasure(orig, appr *aig.Graph) (maxED uint64, er, nmed float64, maxFlips int) {
	n := orig.NumPIs()
	p := sim.Exhaustive(n)
	vo := sim.Simulate(orig, p)
	va := sim.Simulate(appr, p)
	defer vo.Release()
	defer va.Release()
	total := 1 << uint(n)
	maxVal := math.Pow(2, float64(orig.NumPOs())) - 1
	var bad, sum uint64
	for idx := 0; idx < total; idx++ {
		var a, b uint64
		for o := 0; o < orig.NumPOs(); o++ {
			if vo.LitBit(orig.PO(o), idx) {
				a |= 1 << uint(o)
			}
			if va.LitBit(appr.PO(o), idx) {
				b |= 1 << uint(o)
			}
		}
		d := a ^ b
		if d == 0 {
			continue
		}
		bad++
		fl := 0
		for x := d; x != 0; x &= x - 1 {
			fl++
		}
		if fl > maxFlips {
			maxFlips = fl
		}
		var ed uint64
		if a >= b {
			ed = a - b
		} else {
			ed = b - a
		}
		sum += ed
		if ed > maxED {
			maxED = ed
		}
	}
	space := math.Ldexp(1, n)
	return maxED, float64(bad) / space, float64(sum) / space / maxVal, maxFlips
}

// edAt evaluates the error distance of one concrete input assignment.
func edAt(orig, appr *aig.Graph, witness []bool) uint64 {
	p := &sim.Patterns{Words: 1, Valid: 1, In: make([][]uint64, orig.NumPIs())}
	for i := range p.In {
		w := make([]uint64, 1)
		if witness[i] {
			w[0] = 1
		}
		p.In[i] = w
	}
	vo := sim.Simulate(orig, p)
	va := sim.Simulate(appr, p)
	defer vo.Release()
	defer va.Release()
	var a, b uint64
	for o := 0; o < orig.NumPOs(); o++ {
		if vo.LitBit(orig.PO(o), 0) {
			a |= 1 << uint(o)
		}
		if va.LitBit(appr.PO(o), 0) {
			b |= 1 << uint(o)
		}
	}
	if a >= b {
		return a - b
	}
	return b - a
}

// TestMaxErrorVsBruteForce cross-checks the exhaustive backend's exact
// measurements (max ED, ER, NMED, worst-case flips) against plain
// enumeration on random instances. Equality is exact (==): every quantity
// is a small integer divided by a power of two.
func TestMaxErrorVsBruteForce(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nPIs := 2 + rng.Intn(9) // 2..10
		nPOs := 1 + rng.Intn(6)
		orig := randGraph(rng, nPIs, nPOs, 5+rng.Intn(30))
		appr := mutate(orig, rng)

		chk, err := New(orig, Config{})
		if err != nil {
			t.Fatalf("seed %d: New: %v", seed, err)
		}
		cert, err := chk.MaxError(appr)
		if err != nil {
			t.Fatalf("seed %d: MaxError: %v", seed, err)
		}
		maxED, er, nmed, maxFlips := bruteMeasure(orig, appr)
		if cert.MaxED != maxED {
			t.Fatalf("seed %d: MaxED = %d, brute force %d", seed, cert.MaxED, maxED)
		}
		if cert.Backend != BackendTrivial && (cert.ER != er || cert.NMED != nmed || cert.MaxFlips != maxFlips) {
			t.Fatalf("seed %d: ER/NMED/flips = %v/%v/%d, brute force %v/%v/%d",
				seed, cert.ER, cert.NMED, cert.MaxFlips, er, nmed, maxFlips)
		}
		if cert.Backend == BackendTrivial && maxED != 0 {
			t.Fatalf("seed %d: trivial certificate but brute-force max ED %d", seed, maxED)
		}
	}
}

// TestBackendsAgree pins the tentpole's oracle property: the CDCL backend
// (forced via negative MaxExhaustivePIs) and the exhaustive backend return
// the same verdict for every threshold, and every violation witness
// replays to an input whose error distance exceeds the threshold.
func TestBackendsAgree(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed + 1000))
		nPIs := 2 + rng.Intn(7)
		nPOs := 1 + rng.Intn(5)
		orig := randGraph(rng, nPIs, nPOs, 5+rng.Intn(25))
		appr := mutate(orig, rng)

		exh, err := New(orig, Config{MaxExhaustivePIs: 30})
		if err != nil {
			t.Fatal(err)
		}
		forced, err := New(orig, Config{MaxExhaustivePIs: -1})
		if err != nil {
			t.Fatal(err)
		}
		maxED, _, _, _ := bruteMeasure(orig, appr)
		thresholds := []uint64{0, maxED, maxED + 1}
		if maxED > 0 {
			thresholds = append(thresholds, maxED-1)
		}
		for _, T := range thresholds {
			ce, err := exh.CertifyED(orig, appr, T)
			if err != nil {
				t.Fatalf("seed %d T=%d: exhaustive: %v", seed, T, err)
			}
			cs, err := forced.CertifyED(orig, appr, T)
			if err != nil {
				t.Fatalf("seed %d T=%d: sat: %v", seed, T, err)
			}
			want := maxED <= T
			if ce.OK != want || cs.OK != want {
				t.Fatalf("seed %d T=%d maxED=%d: exhaustive OK=%v, sat OK=%v, want %v",
					seed, T, maxED, ce.OK, cs.OK, want)
			}
			for _, cert := range []Certificate{ce, cs} {
				if cert.OK {
					continue
				}
				if len(cert.Witness) != nPIs {
					t.Fatalf("seed %d T=%d: witness length %d, want %d", seed, T, len(cert.Witness), nPIs)
				}
				if ed := edAt(orig, appr, cert.Witness); ed <= T {
					t.Fatalf("seed %d T=%d: %s witness ED %d does not exceed threshold", seed, T, cert.Backend, ed)
				}
			}
		}
	}
}

// TestErrestExactProperty is the PR's property satellite: when the sampled
// pattern set is the complete 2^n enumeration, the exhaustive checker's
// whole-space ER and NMED must reproduce package errest's Monte-Carlo
// values EXACTLY (==, no epsilon) — including the n%6 ≠ 0 sizes where the
// checker's last simulation word is only partially valid, which pins the
// tail handling on both sides.
func TestErrestExactProperty(t *testing.T) {
	for _, nPIs := range []int{3, 4, 5, 7, 8} { // 3..5 exercise the sub-word tail
		for seed := int64(0); seed < 40; seed++ {
			rng := rand.New(rand.NewSource(seed*31 + int64(nPIs)))
			nPOs := 1 + rng.Intn(5)
			orig := randGraph(rng, nPIs, nPOs, 5+rng.Intn(25))
			appr := mutate(orig, rng)

			// BlockWords 1 forces multi-block enumeration at nPIs > 6.
			chk, err := New(orig, Config{BlockWords: 1})
			if err != nil {
				t.Fatal(err)
			}
			cert, err := chk.MaxError(appr)
			if err != nil {
				t.Fatal(err)
			}
			pats := sim.Exhaustive(nPIs)
			evER := errest.NewEvaluator(orig, pats, errest.ER)
			evNMED := errest.NewEvaluator(orig, pats, errest.NMED)
			wantER := evER.EvalGraph(appr, pats)
			wantNMED := evNMED.EvalGraph(appr, pats)
			if cert.Backend == BackendTrivial {
				if wantER != 0 || wantNMED != 0 {
					t.Fatalf("nPIs=%d seed %d: trivial certificate but errest ER=%v NMED=%v",
						nPIs, seed, wantER, wantNMED)
				}
				continue
			}
			if cert.ER != wantER {
				t.Fatalf("nPIs=%d seed %d: exact ER %v != errest ER %v (support %d)",
					nPIs, seed, cert.ER, wantER, cert.SupportSize)
			}
			if cert.NMED != wantNMED {
				t.Fatalf("nPIs=%d seed %d: exact NMED %v != errest NMED %v (support %d)",
					nPIs, seed, cert.NMED, wantNMED, cert.SupportSize)
			}
		}
	}
}

// TestTrivialOnIdenticalGraphs pins that strashing folds an identical
// candidate to constant-false differences: no enumeration, no SAT call.
func TestTrivialOnIdenticalGraphs(t *testing.T) {
	g := bench.RCA(8)
	var backends []string
	chk, err := New(g, Config{Observe: func(backend string, _ float64, conflicts int64) {
		backends = append(backends, backend)
		if conflicts != 0 {
			t.Errorf("%s backend observed %d conflicts", backend, conflicts)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	cert, err := chk.CertifyED(g, g.Clone(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !cert.OK || cert.Backend != BackendTrivial {
		t.Fatalf("cert = %+v, want trivial OK", cert)
	}
	if len(backends) != 1 || backends[0] != BackendTrivial {
		t.Fatalf("observed backends %v, want one %s call", backends, BackendTrivial)
	}
}

// TestEDThreshold pins the normalized-bound conversion on exact and
// fractional bounds.
func TestEDThreshold(t *testing.T) {
	g := bench.RCA(4) // 5 POs, maxVal 31
	chk, err := New(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		bound float64
		want  uint64
	}{
		{0, 0}, {-1, 0},
		{1.0 / 31.0, 1},
		{0.05, 1}, // 0.05·31 = 1.55
		{0.5, 15}, // 15.5
		{1.0, 31},
		{2.0, 31}, // clamped
	}
	for _, c := range cases {
		if got := chk.EDThreshold(c.bound); got != c.want {
			t.Fatalf("EDThreshold(%v) = %d, want %d", c.bound, got, c.want)
		}
	}
}

// TestSixtyFourOutputs pins the integer arithmetic at the 64-bit edge of the
// value encoding, where 2^64 − 1 has no float64. The top two outputs both
// carry x = i0∧i1 and the candidate complements x, so the exact maximum
// error distance is 3·2^62. A threshold of 0.6 must reject it on both
// backends, and the clamp of a bound ≥ 1 must be the largest value.
func TestSixtyFourOutputs(t *testing.T) {
	orig := aig.New()
	pis := orig.AddPIs(30, "i")
	x := orig.And(pis[0], pis[1])
	for o := 0; o < 64; o++ {
		l := pis[o%30]
		if o >= 62 {
			l = x
		}
		orig.AddPO(l, fmt.Sprintf("o%d", o))
	}
	appr := orig.CopyWith(map[aig.Node]aig.Lit{x.Node(): x.Not()})
	const worst = 3 << 62

	exh, err := New(orig, Config{})
	if err != nil {
		t.Fatal(err)
	}
	forced, err := New(orig, Config{MaxExhaustivePIs: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		bound float64
		want  uint64
	}{{0.6, 11068046444225730560}, {1, math.MaxUint64}, {2, math.MaxUint64}} {
		if got := forced.EDThreshold(c.bound); got != c.want {
			t.Fatalf("EDThreshold(%v) = %d, want %d", c.bound, got, c.want)
		}
	}
	T := forced.EDThreshold(0.6)
	for _, chk := range []*Checker{exh, forced} {
		cert, err := chk.CertifyED(orig, appr, T)
		if err != nil {
			t.Fatal(err)
		}
		if cert.OK || cert.MaxED != worst || edAt(orig, appr, cert.Witness) != worst {
			t.Fatalf("%s at T=%d: OK=%v MaxED=%d, want a rejection with ED %d", cert.Backend, T, cert.OK, cert.MaxED, uint64(worst))
		}
		if cert, err = chk.CertifyED(orig, appr, worst); err != nil || !cert.OK {
			t.Fatalf("%s at T=%d: %+v, %v; want certified", cert.Backend, uint64(worst), cert, err)
		}
	}
}

// TestSATAdderBound runs the CNF backend on a real arithmetic circuit
// large enough that exhaustive enumeration is off the table: a 16-bit
// ripple-carry adder (33 PIs) with one sum bit forced to a wrong function
// must be rejected below its exact error distance and certified at it.
func TestSATAdderBound(t *testing.T) {
	orig := bench.RCA(16)
	// Break output bit 12: replace its driver with the complement.
	po := orig.PO(12)
	appr := orig.CopyWith(map[aig.Node]aig.Lit{po.Node(): aig.MakeLit(po.Node(), true)})
	chk, err := New(orig, Config{MaxExhaustivePIs: -1})
	if err != nil {
		t.Fatal(err)
	}
	// Flipping bit 12 always produces ED 2^12 exactly.
	cert, err := chk.CertifyED(orig, appr, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	if !cert.OK {
		t.Fatalf("ED ≤ 4096 should certify, got %+v", cert)
	}
	cert, err = chk.CertifyED(orig, appr, 1<<12-1)
	if err != nil {
		t.Fatal(err)
	}
	if cert.OK {
		t.Fatal("ED ≤ 4095 should be rejected")
	}
	if ed := edAt(orig, appr, cert.Witness); ed != 1<<12 {
		t.Fatalf("witness ED = %d, want 4096", ed)
	}
}

// TestConflictBudgetSurfaces pins that an exhausted SAT budget comes back
// as ErrBudget, never as a verdict.
func TestConflictBudgetSurfaces(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	orig := randGraph(rng, 24, 8, 400)
	appr := mutate(orig, rng)
	maxED, _, _, _ := func() (uint64, float64, float64, int) {
		chk, _ := New(orig, Config{MaxExhaustivePIs: 30})
		cert, err := chk.MaxError(appr)
		if err != nil {
			t.Fatal(err)
		}
		return cert.MaxED, 0, 0, 0
	}()
	if maxED == 0 {
		t.Skip("mutation folded to equivalence")
	}
	chk, err := New(orig, Config{MaxExhaustivePIs: -1, SATConflictBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A threshold just below the max forces a search; one conflict is not
	// enough to decide anything real. If the instance happens to be decided
	// by pure propagation the call legitimately succeeds — accept both, but
	// a wrong verdict is fatal.
	cert, err := chk.CertifyED(orig, appr, maxED-1)
	if err == nil {
		if cert.OK {
			t.Fatal("certified a violated bound")
		}
		return
	}
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}
