package resub

import (
	"math/rand"
	"testing"

	"repro/internal/aig"
	"repro/internal/sim"
	"repro/internal/tt"
	"repro/internal/wordops"
)

// randomGraph builds a random strashed AIG with nPIs inputs and about nAnds
// AND nodes over randomly complemented fanins.
func randomGraph(rng *rand.Rand, nPIs, nAnds int) *aig.Graph {
	g := aig.New()
	lits := make([]aig.Lit, 0, nPIs+nAnds)
	for _, l := range g.AddPIs(nPIs, "x") {
		lits = append(lits, l)
	}
	for i := 0; i < nAnds; i++ {
		a := lits[rng.Intn(len(lits))]
		b := lits[rng.Intn(len(lits))]
		if rng.Intn(2) == 0 {
			a = a.Not()
		}
		if rng.Intn(2) == 0 {
			b = b.Not()
		}
		lits = append(lits, g.And(a, b))
	}
	g.AddPO(lits[len(lits)-1], "f")
	return g
}

// buildCoverPerPattern is the per-pattern specification of the scan's
// cover path: one bit probe per (pattern, divisor), then tt.ISOP of the
// sampled function. The word-parallel kernel is property-tested against it.
func buildCoverPerPattern(vecs *sim.Vectors, divs []aig.Lit, target aig.Lit, valid int) (tt.Cover, bool) {
	k := len(divs)
	onset := tt.New(k)
	care := tt.New(k)
	for p := 0; p < valid; p++ {
		key := 0
		for j, d := range divs {
			if vecs.LitBit(d, p) {
				key |= 1 << uint(j)
			}
		}
		v := vecs.LitBit(target, p)
		if care.Get(key) {
			if onset.Get(key) != v {
				return nil, false
			}
			continue
		}
		care.Set(key, true)
		if v {
			onset.Set(key, true)
		}
	}
	return tt.ISOP(onset, care.Not()), true
}

// kernelCover is the scan's cover path for a set of at most two divisors:
// wordops.CoverTest with every divisor but the last kept and the last one
// added, then tt.ISOPOnCare's cover of the sampled function.
func kernelCover(vecs *sim.Vectors, divs []aig.Lit, target aig.Lit, valid int) (tt.Cover, bool) {
	ct := wordops.NewCoverTest(valid)
	var aw []uint64
	var ainv uint64
	if len(divs) == 2 {
		aw, ainv = vecs.LitWords(divs[0])
	}
	tw, tinv := vecs.LitWords(target)
	on, care, ok := ct.Prepare(aw, ainv, tw, tinv)
	if len(divs) > 0 {
		on, care, ok = ct.Add(vecs.LitWords(divs[len(divs)-1]))
	}
	if !ok {
		return nil, false
	}
	return tt.ISOPOnCare(len(divs), on, care), true
}

func coversEqual(a, b tt.Cover) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBuildCoverWordMatchesPerPattern property-tests the scan's cover path
// against the per-pattern reference implementation on random graphs,
// random (possibly complemented) divisor sets of width 0..2, random
// targets, and valid pattern counts that include non-multiples of 64.
func TestBuildCoverWordMatchesPerPattern(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	validCounts := []int{1, 3, 37, 64, 65, 100, 128, 200}
	for trial := 0; trial < 40; trial++ {
		g := randomGraph(rng, 3+rng.Intn(5), 10+rng.Intn(40))
		nPat := validCounts[rng.Intn(len(validCounts))] + rng.Intn(30)
		p := sim.UniformN(g.NumPIs(), nPat, int64(1000+trial))
		vecs := sim.Simulate(g, p)

		randomLit := func() aig.Lit {
			n := aig.Node(1 + rng.Intn(g.NumNodes()-1))
			return aig.MakeLit(n, rng.Intn(2) == 0)
		}
		for set := 0; set < 50; set++ {
			k := rng.Intn(3)
			divs := make([]aig.Lit, k)
			for j := range divs {
				divs[j] = randomLit()
			}
			target := randomLit()
			valid := 1 + rng.Intn(p.Valid)

			got, gotOK := kernelCover(vecs, divs, target, valid)
			want, wantOK := buildCoverPerPattern(vecs, divs, target, valid)
			if gotOK != wantOK {
				t.Fatalf("trial %d set %d (k=%d valid=%d): feasibility %v, reference %v",
					trial, set, k, valid, gotOK, wantOK)
			}
			if gotOK && !coversEqual(got, want) {
				t.Fatalf("trial %d set %d (k=%d valid=%d): cover %v, reference %v",
					trial, set, k, valid, got, want)
			}
		}
		vecs.Release()
	}
}

// TestBuildCoverTailBitsIgnored checks that garbage bits at or beyond the
// valid pattern count never reach the feasibility check: the kernel and the
// reference must agree on a valid count that cuts the last word short.
func TestBuildCoverTailBitsIgnored(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomGraph(rng, 4, 30)
	// 100 patterns: 2 words, the last one only 36 bits valid.
	p := sim.UniformN(g.NumPIs(), 100, 5)
	vecs := sim.Simulate(g, p)
	defer vecs.Release()

	for n := aig.Node(1); int(n) < g.NumNodes(); n++ {
		if !g.IsAnd(n) {
			continue
		}
		divs := []aig.Lit{g.Fanin0(n), g.Fanin1(n)}
		target := aig.MakeLit(n, false)
		for _, valid := range []int{1, 63, 64, 65, 99, 100} {
			got, gotOK := kernelCover(vecs, divs, target, valid)
			want, wantOK := buildCoverPerPattern(vecs, divs, target, valid)
			if gotOK != wantOK || (gotOK && !coversEqual(got, want)) {
				t.Fatalf("node %d valid=%d: (%v,%v) vs reference (%v,%v)",
					n, valid, got, gotOK, want, wantOK)
			}
			// The fanins of an AND node are always a feasible divisor set
			// for it: the node is a function of them on every pattern.
			if !gotOK {
				t.Fatalf("node %d valid=%d: fanin divisors reported infeasible", n, valid)
			}
		}
	}
}

// TestWordTestMatchesBuildCover holds the word test, wordops.CoverTest,
// plus tt.ISOPOnCare to the per-pattern reference on random graphs with
// care sets of one to three words, some cut short in their last word, with
// every root in both polarities as target: Prepare's function of every kept
// set the scan forms (a fanin in either polarity, or none) and Add's
// function of that set plus every node as u in both polarities must have
// the reference's feasibility and cover.
func TestWordTestMatchesBuildCover(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 12; trial++ {
		g := randomGraph(rng, 4+rng.Intn(6), 20+rng.Intn(40))
		words := 1 + trial%3
		valid := (words-1)*64 + 1 + rng.Intn(64)
		p := sim.UniformN(g.NumPIs(), valid, int64(300+trial))
		vecs := sim.Simulate(g, p)
		ct := wordops.NewCoverTest(valid)
		check := func(divs []aig.Lit, target aig.Lit, on, care uint64, ok bool) {
			t.Helper()
			want, wantOK := buildCoverPerPattern(vecs, divs, target, valid)
			if ok != wantOK {
				t.Fatalf("trial %d (valid %d) target %v divisors %v: feasible %v, reference %v",
					trial, valid, target, divs, ok, wantOK)
			}
			if got := tt.ISOPOnCare(len(divs), on, care); ok && !coversEqual(got, want) {
				t.Fatalf("trial %d (valid %d) target %v divisors %v: cover %v, reference %v",
					trial, valid, target, divs, got, want)
			}
		}
		for v := aig.Node(1); int(v) < g.NumNodes(); v++ {
			if !g.IsAnd(v) {
				continue
			}
			f0, f1 := g.Fanin0(v), g.Fanin1(v)
			for _, target := range []aig.Lit{aig.MakeLit(v, false), aig.MakeLit(v, true)} {
				tw, tinv := vecs.LitWords(target)
				for _, a := range [][]aig.Lit{nil, {f0}, {f0.Not()}, {f1}, {f1.Not()}} {
					var aw []uint64
					var ainv uint64
					if len(a) > 0 {
						aw, ainv = vecs.LitWords(a[0])
					}
					on, care, ok := ct.Prepare(aw, ainv, tw, tinv)
					check(a, target, on, care, ok)
					for u := aig.Node(1); int(u) < g.NumNodes(); u++ {
						for _, ul := range []aig.Lit{aig.MakeLit(u, false), aig.MakeLit(u, true)} {
							on, care, ok := ct.Add(vecs.LitWords(ul))
							check(append(a[:len(a):len(a)], ul), target, on, care, ok)
						}
					}
				}
			}
		}
		vecs.Release()
	}
}
