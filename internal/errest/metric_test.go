package errest

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/aig"
	"repro/internal/sim"
)

// rippleAdder builds an n-bit ripple-carry adder (2n PIs, n+1 POs).
func rippleAdder(n int) *aig.Graph {
	g := aig.New()
	g.Name = "rca"
	a := g.AddPIs(n, "a")
	b := g.AddPIs(n, "b")
	carry := aig.LitFalse
	for i := 0; i < n; i++ {
		axb := g.Xor(a[i], b[i])
		sum := g.Xor(axb, carry)
		carry = g.Or(g.And(a[i], b[i]), g.And(axb, carry))
		g.AddPO(sum, "s")
	}
	g.AddPO(carry, "cout")
	return g
}

func TestERZeroForIdenticalCircuit(t *testing.T) {
	g := rippleAdder(4)
	p := sim.Exhaustive(8)
	ev := NewEvaluator(g, p, ER)
	if e := ev.EvalGraph(g, p); e != 0 {
		t.Fatalf("self ER = %v, want 0", e)
	}
}

func TestERExactForStuckOutput(t *testing.T) {
	// Force the carry-out of a 2-bit adder to constant 0 and compare the
	// measured ER against an analytic count over all 16 input patterns.
	g := rippleAdder(2)
	p := sim.Exhaustive(4)
	ev := NewEvaluator(g, p, ER)

	// Stick the PO value (not the node) at 0: account for PO phase.
	approx := g.CopyWith(map[aig.Node]aig.Lit{g.PO(2).Node(): aig.LitFalse.NotCond(g.PO(2).IsCompl())})
	got := ev.EvalGraph(approx, p)
	// cout=1 happens when a+b >= 4: count pairs (a,b) in [0,3]^2 with sum>=4.
	bad := 0
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			if a+b >= 4 {
				bad++
			}
		}
	}
	want := float64(bad) / 16
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("ER = %v, want %v", got, want)
	}
}

func TestNMEDExactForDroppedLSB(t *testing.T) {
	// Dropping the LSB sum bit of an adder gives ED=1 whenever the true
	// LSB is 1, which is half of all patterns: MED = 0.5.
	n := 3
	g := rippleAdder(n)
	p := sim.Exhaustive(2 * n)
	ev := NewEvaluator(g, p, NMED)
	approx := g.CopyWith(map[aig.Node]aig.Lit{g.PO(0).Node(): aig.LitFalse.NotCond(g.PO(0).IsCompl())})
	got := ev.EvalGraph(approx, p)
	maxVal := math.Pow(2, float64(n+1)) - 1
	want := 0.5 / maxVal
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("NMED = %v, want %v", got, want)
	}
}

func TestMREDForDroppedLSB(t *testing.T) {
	n := 2
	g := rippleAdder(n)
	p := sim.Exhaustive(2 * n)
	ev := NewEvaluator(g, p, MRED)
	approx := g.CopyWith(map[aig.Node]aig.Lit{g.PO(0).Node(): aig.LitFalse.NotCond(g.PO(0).IsCompl())})
	got := ev.EvalGraph(approx, p)
	// Analytic: for each (a,b), y=a+b; if y odd, ED=1 and RED=1/max(y,1).
	sum := 0.0
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			y := a + b
			if y%2 == 1 {
				sum += 1 / math.Max(float64(y), 1)
			}
		}
	}
	want := sum / 16
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("MRED = %v, want %v", got, want)
	}
}

func TestMREDDivisionByZeroGuard(t *testing.T) {
	// Circuit: identity on 2 inputs. Approximation: outputs stuck at 1.
	// For y=0 the denominator must clamp to 1.
	g := aig.New()
	a := g.AddPI("a")
	b := g.AddPI("b")
	g.AddPO(a, "y0")
	g.AddPO(b, "y1")
	p := sim.Exhaustive(2)
	ev := NewEvaluator(g, p, MRED)
	approx := aig.New()
	approx.AddPI("a")
	approx.AddPI("b")
	approx.AddPO(aig.LitTrue, "y0")
	approx.AddPO(aig.LitTrue, "y1")
	got := ev.EvalGraph(approx, p)
	// y: 0,1,2,3 each 1/4. yhat always 3.
	want := (3.0/1 + 2.0/1 + 1.0/2 + 0.0/3) / 4
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("MRED = %v, want %v", got, want)
	}
}

func TestMetricString(t *testing.T) {
	if ER.String() != "ER" || NMED.String() != "NMED" || MRED.String() != "MRED" {
		t.Fatalf("metric names wrong")
	}
	if Metric(9).String() != "Metric(9)" {
		t.Fatalf("unknown metric name wrong")
	}
}

func TestTransposeWord(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	po := make([][]uint64, 5)
	for o := range po {
		po[o] = []uint64{rng.Uint64()}
	}
	vals := make([]uint64, 64)
	transposeWord(po, 0, vals)
	for b := 0; b < 64; b++ {
		var want uint64
		for o := range po {
			want |= (po[o][0] >> uint(b) & 1) << uint(o)
		}
		if vals[b] != want {
			t.Fatalf("bit %d: got %x want %x", b, vals[b], want)
		}
	}
}

func TestBatchMatchesFullResimulation(t *testing.T) {
	// For every AND node and a set of random replacement vectors, the batch
	// estimate must equal the error of the structurally modified circuit.
	// We use replacement-by-complement and replacement-by-other-node so the
	// reference circuit is easy to construct.
	g := rippleAdder(3)
	p := sim.Exhaustive(6)
	for _, metric := range []Metric{ER, NMED, MRED} {
		ev := NewEvaluator(g, p, metric)
		arena := sim.NewArena(g, p, 1)
		b := NewBatch(ev, arena)
		if e := b.CurrentError(); e != 0 {
			t.Fatalf("%v: current error of exact circuit = %v", metric, e)
		}
		v := b.Vectors()
		for n := aig.Node(1); int(n) < g.NumNodes(); n++ {
			if !g.IsAnd(n) {
				continue
			}
			// Candidate 1: complement of the node; candidate 2: constant
			// zero. Both are scored in one call, as the ranking does.
			flip := make([]uint64, v.Words)
			for i, w := range v.Node(n) {
				flip[i] = ^w
			}
			zero := make([]uint64, v.Words)
			errs := b.Score(n, [][]uint64{flip, zero}, nil)
			got := errs[0]
			ref := g.CopyWith(map[aig.Node]aig.Lit{n: aig.MakeLit(n, true)})
			want := ev.EvalGraph(ref, p)
			if math.Abs(got-want) > 1e-12 {
				t.Fatalf("%v node %d complement: batch %v, full %v", metric, n, got, want)
			}

			got = errs[1]
			ref = g.CopyWith(map[aig.Node]aig.Lit{n: aig.LitFalse})
			want = ev.EvalGraph(ref, p)
			if math.Abs(got-want) > 1e-12 {
				t.Fatalf("%v node %d const0: batch %v, full %v", metric, n, got, want)
			}
		}
		b.Release()
		arena.Release()
	}
}

func TestBatchCumulativeAgainstOriginal(t *testing.T) {
	// After applying one LAC, errors of subsequent candidates must be
	// measured against the ORIGINAL golden outputs, not the current circuit.
	g := rippleAdder(2)
	p := sim.Exhaustive(4)
	ev := NewEvaluator(g, p, ER)

	// Apply: stuck carry-out at 0.
	approx := g.CopyWith(map[aig.Node]aig.Lit{g.PO(2).Node(): aig.LitFalse.NotCond(g.PO(2).IsCompl())})
	arena := sim.NewArena(approx, p, 1)
	defer arena.Release()
	b := NewBatch(ev, arena)
	defer b.Release()
	base := b.CurrentError()
	if base <= 0 {
		t.Fatalf("expected nonzero cumulative error, got %v", base)
	}
	// A candidate identical to the current vector must return exactly the
	// cumulative error.
	n := approx.PO(0).Node()
	if !approx.IsAnd(n) {
		t.Skip("PO0 not an AND in this construction")
	}
	same := b.Score(n, [][]uint64{b.Vectors().Node(n)}, nil)[0]
	if math.Abs(same-base) > 1e-12 {
		t.Fatalf("identity candidate error %v != cumulative %v", same, base)
	}
}

func TestEvaluatorPanicsOnWideValueMetric(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for >64 POs with NMED")
		}
	}()
	golden := make([][]uint64, 65)
	for i := range golden {
		golden[i] = make([]uint64, 1)
	}
	NewEvaluatorFromWords(golden, 1, 64, NMED)
}
