// Package tt implements bit-parallel truth tables over up to 16 variables,
// together with sum-of-products covers and irredundant SOP (ISOP)
// computation in the style of Minato–Morreale.
//
// A truth table over n variables stores 2^n function values packed into
// 64-bit words. Variable 0 is the fastest-toggling input (minterm bit 0).
// Truth tables are the working representation for resubstitution functions
// and for cut functions during rewriting and mapping.
package tt

import (
	"fmt"
	"math/bits"
	"strings"
)

// MaxVars is the largest supported number of variables.
const MaxVars = 16

// varMasks[v] is the repeating word pattern of variable v for v < 6.
var varMasks = [6]uint64{
	0xAAAAAAAAAAAAAAAA,
	0xCCCCCCCCCCCCCCCC,
	0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00,
	0xFFFF0000FFFF0000,
	0xFFFFFFFF00000000,
}

// Table is a truth table over a fixed number of variables.
type Table struct {
	nVars int
	w     []uint64
}

// WordCount returns the number of 64-bit words needed for n variables.
func WordCount(n int) int {
	if n <= 6 {
		return 1
	}
	return 1 << (n - 6)
}

// New returns the constant-0 table over n variables (0 ≤ n ≤ MaxVars).
func New(n int) Table {
	if n < 0 || n > MaxVars {
		panic(fmt.Sprintf("tt: unsupported variable count %d", n))
	}
	return Table{nVars: n, w: make([]uint64, WordCount(n))}
}

// Ones returns the constant-1 table over n variables.
func Ones(n int) Table {
	t := New(n)
	for i := range t.w {
		t.w[i] = ^uint64(0)
	}
	t.trim()
	return t
}

// VarWord returns word w of input variable v in the layout that enumerates
// every input pattern once: bit b of word w is pattern 64·w+b, and v is bit
// v of the pattern index. Below six variables the word repeats a mask; from
// v = 6 on it is all ones or all zeros, by bit v−6 of w. Truth tables,
// exhaustive simulation patterns and the exact checker's enumeration all
// read this one definition.
func VarWord(v, w int) uint64 {
	if v < 6 {
		return varMasks[v]
	}
	return -(uint64(w) >> uint(v-6) & 1)
}

// Var returns the table of input variable v over n variables.
func Var(n, v int) Table {
	if v < 0 || v >= n {
		panic(fmt.Sprintf("tt: variable %d out of range for %d vars", v, n))
	}
	t := New(n)
	for i := range t.w {
		t.w[i] = VarWord(v, i)
	}
	t.trim()
	return t
}

// FromBits builds a table over n variables from the low 2^n bits of bits
// (n ≤ 6).
func FromBits(n int, b uint64) Table {
	if n > 6 {
		panic("tt: FromBits supports at most 6 variables")
	}
	t := New(n)
	t.w[0] = b
	t.trim()
	return t
}

// FromOnCare builds the onset and don't-care tables of a sampled
// incompletely specified function over n ≤ 6 variables from packed minterm
// masks: bit m of on (resp. care) tells whether minterm m was observed with
// function value 1 (resp. observed at all). The don't-care table is the
// complement of the care set. It fills ISOPOnCare's table of the functions
// wordops.CoverTest samples.
func FromOnCare(n int, on, care uint64) (onset, dc Table) {
	return FromBits(n, on), FromBits(n, ^care)
}

// trim clears the unused high bits of the last word when nVars < 6.
func (t *Table) trim() {
	if t.nVars < 6 {
		t.w[0] &= (uint64(1) << (1 << t.nVars)) - 1
	}
}

// NumVars returns the number of variables.
func (t Table) NumVars() int { return t.nVars }

// NumBits returns the number of minterms (2^n).
func (t Table) NumBits() int { return 1 << t.nVars }

// Words exposes the backing words (shared, not a copy).
func (t Table) Words() []uint64 { return t.w }

// Clone returns an independent copy.
func (t Table) Clone() Table {
	return Table{nVars: t.nVars, w: append([]uint64(nil), t.w...)}
}

// Get returns the function value for minterm m.
func (t Table) Get(m int) bool { return t.w[m>>6]>>(uint(m)&63)&1 == 1 }

// Set assigns the function value for minterm m.
func (t *Table) Set(m int, v bool) {
	if v {
		t.w[m>>6] |= 1 << (uint(m) & 63)
	} else {
		t.w[m>>6] &^= 1 << (uint(m) & 63)
	}
}

func (t Table) check(o Table) {
	if t.nVars != o.nVars {
		panic("tt: mixing tables of different arity")
	}
}

// And returns t ∧ o.
func (t Table) And(o Table) Table {
	t.check(o)
	r := New(t.nVars)
	for i := range r.w {
		r.w[i] = t.w[i] & o.w[i]
	}
	return r
}

// AndNot returns t ∧ ¬o.
func (t Table) AndNot(o Table) Table {
	t.check(o)
	r := New(t.nVars)
	for i := range r.w {
		r.w[i] = t.w[i] &^ o.w[i]
	}
	return r
}

// Or returns t ∨ o.
func (t Table) Or(o Table) Table {
	t.check(o)
	r := New(t.nVars)
	for i := range r.w {
		r.w[i] = t.w[i] | o.w[i]
	}
	return r
}

// Xor returns t ⊕ o.
func (t Table) Xor(o Table) Table {
	t.check(o)
	r := New(t.nVars)
	for i := range r.w {
		r.w[i] = t.w[i] ^ o.w[i]
	}
	return r
}

// Not returns ¬t.
func (t Table) Not() Table {
	r := New(t.nVars)
	for i := range r.w {
		r.w[i] = ^t.w[i]
	}
	r.trim()
	return r
}

// Equal reports whether the two tables denote the same function.
func (t Table) Equal(o Table) bool {
	t.check(o)
	for i := range t.w {
		if t.w[i] != o.w[i] {
			return false
		}
	}
	return true
}

// IsConst0 reports whether the function is identically false.
func (t Table) IsConst0() bool {
	for _, w := range t.w {
		if w != 0 {
			return false
		}
	}
	return true
}

// IsConst1 reports whether the function is identically true.
func (t Table) IsConst1() bool { return t.Not().IsConst0() }

// CountOnes returns the number of minterms on which the function is true.
func (t Table) CountOnes() int {
	c := 0
	for _, w := range t.w {
		c += bits.OnesCount64(w)
	}
	return c
}

// Cofactor returns the cofactor of t with variable v fixed to val. The
// result is still expressed over the same n variables (v becomes don't-care).
func (t Table) Cofactor(v int, val bool) Table {
	r := t.Clone()
	if v < 6 {
		shift := uint(1) << v
		m := varMasks[v]
		for i := range r.w {
			if val {
				hi := r.w[i] & m
				r.w[i] = hi | hi>>shift
			} else {
				lo := r.w[i] &^ m
				r.w[i] = lo | lo<<shift
			}
		}
		return r
	}
	block := 1 << (v - 6)
	for i := 0; i < len(r.w); i += 2 * block {
		for j := 0; j < block; j++ {
			if val {
				r.w[i+j] = r.w[i+block+j]
			} else {
				r.w[i+block+j] = r.w[i+j]
			}
		}
	}
	return r
}

// DependsOn reports whether the function depends on variable v.
func (t Table) DependsOn(v int) bool {
	return !t.Cofactor(v, false).Equal(t.Cofactor(v, true))
}

// SupportSize returns the number of variables the function depends on.
func (t Table) SupportSize() int {
	n := 0
	for v := 0; v < t.nVars; v++ {
		if t.DependsOn(v) {
			n++
		}
	}
	return n
}

// String renders the table as a hex string, most significant word first.
func (t Table) String() string {
	var sb strings.Builder
	for i := len(t.w) - 1; i >= 0; i-- {
		digits := 16
		if t.nVars < 6 && i == 0 {
			digits = max(1, (1<<t.nVars)/4)
		}
		fmt.Fprintf(&sb, "%0*x", digits, t.w[i])
	}
	return sb.String()
}
