package resub

import (
	"math/rand"
	"testing"

	"repro/internal/aig"
	"repro/internal/espresso"
	"repro/internal/sim"
	"repro/internal/tt"
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

// TestBuildCoverWordMatchesPerPattern property-tests the word-parallel cover
// kernel against the per-pattern reference implementation on random graphs,
// random (possibly complemented) divisor sets of width 0..wordCoverMaxVars,
// random targets, and valid pattern counts that include non-multiples of 64.
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
			k := rng.Intn(wordCoverMaxVars + 1)
			divs := make([]aig.Lit, k)
			for j := range divs {
				divs[j] = randomLit()
			}
			target := randomLit()
			valid := 1 + rng.Intn(p.Valid)

			got, gotOK := BuildCoverWith(vecs, divs, target, valid, ISOP)
			want, wantOK := buildCoverPerPattern(vecs, divs, target, valid, tt.ISOP)
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
// valid pattern count never reach the feasibility check: both code paths
// must agree on a valid count that cuts the last word short.
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
			got, gotOK := BuildCoverWith(vecs, divs, target, valid, ISOP)
			want, wantOK := buildCoverPerPattern(vecs, divs, target, valid, tt.ISOP)
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

// TestWordTestMatchesBuildCover holds the scan's word test to
// BuildCoverWith: on random graphs with care sets of one to three words,
// some cut short in their last word, the test must reject a candidate u
// exactly when the kept set plus u is infeasible, for every root, every
// kept set the scan forms (the other fanin, or none) in both polarities
// and every node as u in both polarities.
func TestWordTestMatchesBuildCover(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 12; trial++ {
		g := randomGraph(rng, 4+rng.Intn(6), 20+rng.Intn(40))
		words := 1 + trial%3
		valid := (words-1)*64 + 1 + rng.Intn(64)
		p := sim.UniformN(g.NumPIs(), valid, int64(300+trial))
		vecs := sim.Simulate(g, p)
		wt := newWordTest(valid)
		for v := aig.Node(1); int(v) < g.NumNodes(); v++ {
			if !g.IsAnd(v) {
				continue
			}
			target := aig.MakeLit(v, false)
			for _, a := range [][]aig.Lit{nil,
				{aig.MakeLit(g.Fanin0(v).Node(), false)}, {g.Fanin1(v)}, {g.Fanin0(v).Not()}} {
				wt.prepare(vecs, a, target)
				for u := aig.Node(1); int(u) < g.NumNodes(); u++ {
					for _, ul := range []aig.Lit{aig.MakeLit(u, false), aig.MakeLit(u, true)} {
						_, ok := BuildCoverWith(vecs, append(a[:len(a):len(a)], ul), target, valid, ISOP)
						if got := wt.rejects(vecs, ul); got == ok {
							t.Fatalf("trial %d (valid %d) root %d kept %v u %v: word test rejects=%v, BuildCoverWith feasible=%v",
								trial, valid, v, a, ul, got, ok)
						}
					}
				}
			}
		}
		vecs.Release()
	}
}

// TestCoverTableMatchesMinimizers checks every table entry against its
// minimizer: each (onset ⊆ care) function of at most two divisors must read
// the cover tt.ISOP and espresso.Minimize return for the same tables.
func TestCoverTableMatchesMinimizers(t *testing.T) {
	for _, c := range []struct {
		m  Minimizer
		fn func(on, dc tt.Table) tt.Cover
	}{{ISOP, tt.ISOP}, {Espresso, espresso.Minimize}} {
		for k := 0; k <= tableMaxVars; k++ {
			bits := 1 << k
			for care := uint64(0); care < 1<<bits; care++ {
				for on := uint64(0); on < 1<<bits; on++ {
					if on&^care != 0 {
						continue
					}
					got := c.m.Cover(k, on, care)
					if want := c.fn(tt.FromOnCare(k, on, care)); !coversEqual(got, want) {
						t.Fatalf("minimizer %d k=%d on=%b care=%b: table %v, minimizer %v",
							c.m, k, on, care, got, want)
					}
				}
			}
		}
	}
}
