package tt

import (
	"slices"
	"sync"
)

// ISOP computes an irredundant sum-of-products for an incompletely
// specified function using the Minato–Morreale procedure. The function is
// given as an interval: on is the onset (must be covered) and dc the
// don't-care set (may be covered). on and dc must be disjoint tables over
// the same variables.
//
// The returned cover F satisfies on ⊆ F ⊆ on ∪ dc, every cube of F is a
// prime implicant of the interval, and no cube can be dropped without
// uncovering part of the onset.
func ISOP(on, dc Table) Cover {
	on.check(dc)
	if !on.And(dc).IsConst0() {
		panic("tt: ISOP onset and don't-care set overlap")
	}
	cov, _ := isop(on, on.Or(dc), on.NumVars()-1)
	return cov
}

// ISOPOnCare returns ISOP's cover of the k-variable function (k ≤ 2) whose
// observed minterms are care and whose onset is on ⊆ care, the masks
// wordops.CoverTest returns; every other minterm is a don't-care. The cover
// comes from a table and is shared: the caller must not modify it.
func ISOPOnCare(k int, on, care uint64) Cover {
	return isopTable()[k][care<<(1<<k)|on]
}

// isopTableMaxVars is the widest function ISOPOnCare reads from its table:
// a function of k ≤ 2 variables has a 2^k-bit onset inside a 2^k-bit care
// mask, so 4 + 16 + 256 (onset, care) pairs cover every such function.
const isopTableMaxVars = 2

// isopTable holds ISOP's cover of every function of at most
// isopTableMaxVars variables, entry [k][care<<2^k | on] for on ⊆ care,
// filled on first use.
var isopTable = sync.OnceValue(func() *[isopTableMaxVars + 1][]Cover {
	t := new([isopTableMaxVars + 1][]Cover)
	for k := range t {
		bits := uint(1) << k
		t[k] = make([]Cover, 1<<(2*bits))
		for i := range t[k] {
			on, care := uint64(i)&(1<<bits-1), uint64(i)>>bits
			if on&^care == 0 {
				// Clipped, so an append by any holder reallocates.
				t[k][i] = slices.Clip(ISOP(FromOnCare(k, on, care)))
			}
		}
	}
	return t
})

// isop implements the recursion on the interval [lower, upper]; v is the
// highest variable index that may still appear in cubes. It returns the
// cover and the exact table of the cover.
func isop(lower, upper Table, v int) (Cover, Table) {
	n := lower.NumVars()
	if lower.IsConst0() {
		return nil, New(n)
	}
	if upper.IsConst1() {
		return Cover{{}}, Ones(n)
	}
	// Find the top variable on which either bound depends.
	for v >= 0 && !lower.DependsOn(v) && !upper.DependsOn(v) {
		v--
	}
	if v < 0 {
		// lower is not 0 and upper is not 1, yet neither depends on any
		// variable: impossible for a consistent interval.
		panic("tt: inconsistent ISOP interval")
	}

	l0 := lower.Cofactor(v, false)
	l1 := lower.Cofactor(v, true)
	u0 := upper.Cofactor(v, false)
	u1 := upper.Cofactor(v, true)

	// Cubes that must contain ¬v: onset part in the v=0 half that the v=1
	// half's upper bound cannot absorb.
	c0, t0 := isop(l0.AndNot(u1), u0, v-1)
	// Cubes that must contain v.
	c1, t1 := isop(l1.AndNot(u0), u1, v-1)
	// Remaining onset, coverable without v.
	lnew := l0.AndNot(t0).Or(l1.AndNot(t1))
	cs, ts := isop(lnew, u0.And(u1), v-1)

	cover := make(Cover, 0, len(c0)+len(c1)+len(cs))
	for _, c := range c0 {
		cover = append(cover, c.WithNeg(v))
	}
	for _, c := range c1 {
		cover = append(cover, c.WithPos(v))
	}
	cover = append(cover, cs...)

	varT := Var(n, v)
	table := varT.Not().And(t0).Or(varT.And(t1)).Or(ts)
	return cover, table
}
