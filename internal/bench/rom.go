package bench

import (
	"math"

	"repro/internal/aig"
	"repro/internal/tt"
)

// ROM synthesizes a combinational lookup table: PIs addr[nIn]; POs y[nOut].
// values[m] holds the output word for address m (low nOut bits used). Each
// output bit is built from its irredundant sum-of-products.
func ROM(name string, nIn, nOut int, values []uint64) *aig.Graph {
	if len(values) != 1<<nIn {
		panic("bench: ROM needs 2^nIn values")
	}
	g := aig.New()
	g.Name = name
	addr := bus(g.AddPIs(nIn, "addr"))

	for b := 0; b < nOut; b++ {
		on := tt.New(nIn)
		for m, v := range values {
			if v>>uint(b)&1 == 1 {
				on.Set(m, true)
			}
		}
		g.AddPO(g.SOP(tt.ISOP(on, tt.New(nIn)), addr), busName("y", b))
	}
	return g
}

// Sine builds an n-bit sine table: y = round((2^n−1)/2 · (1 + sin(2πx/2^n))).
// The EPFL "sine" benchmark is a 24-bit implementation; this is the scaled
// table form.
func Sine(n int) *aig.Graph {
	size := 1 << n
	maxV := float64(size - 1)
	values := make([]uint64, size)
	for x := 0; x < size; x++ {
		s := math.Sin(2 * math.Pi * float64(x) / float64(size))
		values[x] = uint64(math.Round(maxV / 2 * (1 + s)))
	}
	g := ROM("sine"+itoa(n), n, n, values)
	return g
}

// Log2 builds an n-bit fixed-point base-2 logarithm table with fracBits
// fractional output bits: y = round(log2(max(x,1)) · 2^fracBits). The EPFL
// "log2" benchmark is the 32-bit implementation; this is the scaled table
// form.
func Log2(n, fracBits int) *aig.Graph {
	size := 1 << n
	values := make([]uint64, size)
	var maxVal uint64
	for x := 0; x < size; x++ {
		v := 1.0
		if x > 1 {
			v = float64(x)
		}
		values[x] = uint64(math.Round(math.Log2(v) * float64(int(1)<<fracBits)))
		if values[x] > maxVal {
			maxVal = values[x]
		}
	}
	outBits := 1
	for uint64(1)<<outBits <= maxVal {
		outBits++
	}
	return ROM("log2_"+itoa(n), n, outBits, values)
}

// Comparator builds an n-bit three-way comparator: PIs a[n], b[n]; POs lt,
// eq, gt. Used by examples and tests.
func Comparator(n int) *aig.Graph {
	g := aig.New()
	g.Name = "cmp" + itoa(n)
	a := bus(g.AddPIs(n, "a"))
	b := bus(g.AddPIs(n, "b"))
	_, borrow := subBus(g, a, b)
	eqBits := make([]aig.Lit, n)
	for i := 0; i < n; i++ {
		eqBits[i] = g.Xnor(a[i], b[i])
	}
	eq := g.AndN(eqBits...)
	lt := borrow
	gt := g.And(lt.Not(), eq.Not())
	g.AddPO(lt, "lt")
	g.AddPO(eq, "eq")
	g.AddPO(gt, "gt")
	return g
}
