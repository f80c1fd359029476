package mapper

import (
	"math"
	"math/bits"

	"repro/internal/aig"
	"repro/internal/cell"
	"repro/internal/cut"
	"repro/internal/tt"
)

// CellResult summarizes an ASIC mapping.
type CellResult struct {
	Area  float64
	Delay float64
	Gates int // number of library cell instances (inverters included)
}

// Match is the cheapest library realization of a 4-input function,
// including any inverters needed for input/output phases.
type Match struct {
	Cell  string
	Area  float64
	Delay float64
}

// MatchTable maps every 4-variable function (as a 16-bit truth table,
// padded when the cut is smaller) realizable by the library — under input
// permutation and input/output complementation with explicit inverter
// cost — to its cheapest realization.
type MatchTable struct {
	m   map[uint16]Match
	inv cell.Cell
}

// BuildMatchTable precomputes the function→cell match map for a library.
func BuildMatchTable(lib []cell.Cell) *MatchTable {
	inv := cell.Inverter(lib)
	mt := &MatchTable{m: make(map[uint16]Match, 1<<12), inv: inv}
	for _, c := range lib {
		k := c.NumIns
		perms := permutations(k)
		for _, perm := range perms {
			for phase := 0; phase < 1<<k; phase++ {
				f := transform(c.Fn, k, perm, phase)
				nInv := bits.OnesCount(uint(phase))
				area := c.Area + float64(nInv)*inv.Area
				delay := c.Delay
				if nInv > 0 {
					delay += inv.Delay
				}
				mt.consider(f, Match{Cell: c.Name, Area: area, Delay: delay})
				mt.consider(^f, Match{Cell: c.Name + "+inv", Area: area + inv.Area, Delay: delay + inv.Delay})
			}
		}
	}
	return mt
}

func (mt *MatchTable) consider(f uint16, m Match) {
	if old, ok := mt.m[f]; !ok || m.Area < old.Area ||
		(m.Area == old.Area && m.Delay < old.Delay) {
		mt.m[f] = m
	}
}

// Lookup returns the cheapest realization of f, if any.
func (mt *MatchTable) Lookup(f uint16) (Match, bool) {
	m, ok := mt.m[f]
	return m, ok
}

// Size returns the number of distinct matchable functions.
func (mt *MatchTable) Size() int { return len(mt.m) }

// permutations returns all injective maps of k cell inputs onto positions
// 0..3 as slices perm[i] = position of input i.
func permutations(k int) [][]int {
	var out [][]int
	var cur []int
	used := [4]bool{}
	var rec func()
	rec = func() {
		if len(cur) == k {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for p := 0; p < 4; p++ {
			if used[p] {
				continue
			}
			used[p] = true
			cur = append(cur, p)
			rec()
			cur = cur[:len(cur)-1]
			used[p] = false
		}
	}
	rec()
	return out
}

// transform computes the 16-bit table of f applied to permuted, optionally
// complemented inputs: out(m) = f(x) with x_i = m[perm[i]] ^ phase_i.
func transform(f tt.Table, k int, perm []int, phase int) uint16 {
	var out uint16
	for m := 0; m < 16; m++ {
		idx := 0
		for i := 0; i < k; i++ {
			b := m >> uint(perm[i]) & 1
			b ^= phase >> uint(i) & 1
			idx |= b << uint(i)
		}
		if f.Get(idx) {
			out |= 1 << uint(m)
		}
	}
	return out
}

// pad16 widens the truth table w of a function over n ≤ 4 variables, in
// the cut.Cut.Truth layout, into a 16-bit table that ignores the missing
// variables.
func pad16(n int, w uint64) uint16 {
	for v := n; v < 4; v++ {
		w |= w << (1 << uint(v))
	}
	return uint16(w)
}

// phaseChoice records how one (node, phase) is realized: either a direct
// library match over a cut, or an inverter fed by the opposite phase.
type phaseChoice struct {
	cutIdx  int
	match   Match
	fromInv bool
}

// MapCells maps g onto the given library, minimizing arrival time first and
// area flow second. Mapping is phase-aware: both polarities of every node
// are costed (a complemented output can be realized directly by a NAND-like
// cell rather than by an extra inverter).
func MapCells(g *aig.Graph, lib []cell.Cell) CellResult {
	mt := BuildMatchTable(lib)
	inv := cell.Inverter(lib)
	sets := cut.Enumerate(g, cut.Config{K: 4, PerNode: 8})
	refs := g.RefCounts()

	n := g.NumNodes()
	// Index 0 = positive phase, 1 = negative phase.
	arr := [2][]float64{make([]float64, n), make([]float64, n)}
	flow := [2][]float64{make([]float64, n), make([]float64, n)}
	choice := [2][]phaseChoice{make([]phaseChoice, n), make([]phaseChoice, n)}

	// PIs: positive phase free, negative phase one inverter.
	for i := 0; i < g.NumPIs(); i++ {
		pi := g.PI(i)
		arr[1][pi] = inv.Delay
		flow[1][pi] = inv.Area
		choice[1][pi] = phaseChoice{fromInv: true}
	}

	for nd := aig.Node(1); int(nd) < n; nd++ {
		if !g.IsAnd(nd) {
			continue
		}
		d := float64(refs[nd])
		if d < 1 {
			d = 1
		}
		for p := 0; p < 2; p++ {
			bestArr := math.Inf(1)
			bestFlow := math.Inf(1)
			var best phaseChoice
			for ci, c := range sets.Cuts(nd) {
				if c.IsTrivial(nd) {
					continue
				}
				f16 := pad16(len(c.Leaves), c.Truth)
				if p == 1 {
					f16 = ^f16
				}
				m, ok := mt.Lookup(f16)
				if !ok {
					continue
				}
				a := 0.0
				fl := m.Area
				for _, l := range c.Leaves {
					if arr[0][l] > a {
						a = arr[0][l]
					}
					fl += flow[0][l]
				}
				a += m.Delay
				if a < bestArr || (a == bestArr && fl < bestFlow) {
					bestArr, bestFlow = a, fl
					best = phaseChoice{cutIdx: ci, match: m}
				}
			}
			arr[p][nd] = bestArr
			flow[p][nd] = bestFlow / d
			choice[p][nd] = best
		}
		// Allow each phase to come from the other through an inverter.
		for p := 0; p < 2; p++ {
			aInv := arr[1-p][nd] + inv.Delay
			fInv := flow[1-p][nd] + inv.Area/d
			if aInv < arr[p][nd] || (aInv == arr[p][nd] && fInv < flow[p][nd]) {
				arr[p][nd] = aInv
				flow[p][nd] = fInv
				choice[p][nd] = phaseChoice{fromInv: true}
			}
		}
		if math.IsInf(arr[0][nd], 1) && math.IsInf(arr[1][nd], 1) {
			panic("mapper: node has no matchable cut (library incomplete)")
		}
	}

	// Extract the cover from the primary outputs.
	res := CellResult{}
	type demand struct {
		nd aig.Node
		p  int
	}
	covered := make(map[demand]bool)
	var stack []demand
	need := func(nd aig.Node, p int) {
		if nd == 0 || (p == 0 && !g.IsAnd(nd)) {
			return // constants and positive PIs are free
		}
		stack = append(stack, demand{nd, p})
	}
	for i := 0; i < g.NumPOs(); i++ {
		po := g.PO(i)
		p := 0
		if po.IsCompl() {
			p = 1
		}
		nd := po.Node()
		a := 0.0
		if nd != 0 {
			a = arr[p][nd]
		}
		if a > res.Delay {
			res.Delay = a
		}
		need(nd, p)
	}
	for len(stack) > 0 {
		d := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if covered[d] {
			continue
		}
		covered[d] = true
		ch := choice[d.p][d.nd]
		if ch.fromInv {
			res.Area += inv.Area
			res.Gates++
			need(d.nd, 1-d.p)
			continue
		}
		res.Area += ch.match.Area
		res.Gates++
		for _, l := range sets.Cuts(d.nd)[ch.cutIdx].Leaves {
			need(l, 0)
		}
	}
	return res
}
