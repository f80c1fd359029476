package wordops

import (
	"math/rand"
	"slices"
	"testing"
)

func randWords(rng *rand.Rand, n int) []uint64 {
	w := make([]uint64, n)
	for i := range w {
		w[i] = rng.Uint64()
	}
	return w
}

func TestKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randWords(rng, 9)
	b := randWords(rng, 9)
	dst := make([]uint64, 9)

	Not(dst, a)
	for i := range a {
		if dst[i] != ^a[i] {
			t.Fatalf("Not word %d", i)
		}
	}

	CopyOrNot(dst, a, false)
	if !slices.Equal(dst, a) {
		t.Fatal("CopyOrNot plain")
	}
	CopyOrNot(dst, a, true)
	for i := range a {
		if dst[i] != ^a[i] {
			t.Fatal("CopyOrNot complemented")
		}
	}

	for _, c0 := range []bool{false, true} {
		for _, c1 := range []bool{false, true} {
			And(dst, a, b, c0, c1)
			for i := range dst {
				x, y := a[i], b[i]
				if c0 {
					x = ^x
				}
				if c1 {
					y = ^y
				}
				if dst[i] != x&y {
					t.Fatalf("And(c0=%v, c1=%v) word %d", c0, c1, i)
				}
			}
		}
	}

	for _, c0 := range []bool{false, true} {
		for _, c1 := range []bool{false, true} {
			And(dst, a, b, c0, c1)
			cp := append([]uint64(nil), dst...)
			if AndDiff(dst, a, b, dst, c0, c1) {
				t.Fatalf("AndDiff(c0=%v, c1=%v) reported a change on identical input", c0, c1)
			}
			if !slices.Equal(dst, cp) {
				t.Fatalf("AndDiff(c0=%v, c1=%v) result differs from And", c0, c1)
			}
			dst[3] ^= 1 << 17
			if !AndDiff(dst, a, b, dst, c0, c1) {
				t.Fatalf("AndDiff(c0=%v, c1=%v) missed a changed word", c0, c1)
			}
			if !slices.Equal(dst, cp) {
				t.Fatalf("AndDiff(c0=%v, c1=%v) did not rewrite the changed word", c0, c1)
			}
			// Against a separate reference: dst is written either way.
			ref := append([]uint64(nil), cp...)
			out := make([]uint64, len(dst))
			if AndDiff(out, a, b, ref, c0, c1) || !slices.Equal(out, cp) {
				t.Fatalf("AndDiff(c0=%v, c1=%v) against an equal reference", c0, c1)
			}
			ref[8] ^= 1
			if !AndDiff(out, a, b, ref, c0, c1) || !slices.Equal(out, cp) {
				t.Fatalf("AndDiff(c0=%v, c1=%v) against a differing reference", c0, c1)
			}
		}
	}

	y := randWords(rng, 9)
	yf := randWords(rng, 9)
	old := randWords(rng, 9)
	new_ := randWords(rng, 9)
	SelectFlip(dst, y, yf, old, new_)
	for i := range dst {
		c := old[i] ^ new_[i]
		if dst[i] != y[i]&^c|yf[i]&c {
			t.Fatalf("SelectFlip word %d", i)
		}
	}
}

func TestPoolRoundTrip(t *testing.T) {
	s := Get(100)
	if len(s) != 100 {
		t.Fatalf("Get(100) len = %d", len(s))
	}
	if cap(s) != 128 {
		t.Fatalf("Get(100) cap = %d, want power of two 128", cap(s))
	}
	for i := range s {
		s[i] = ^uint64(0)
	}
	Put(s)

	// A smaller request from the same bucket must reuse the buffer (pool is
	// process-global, so merely check length/capacity invariants and that
	// GetZero clears whatever comes back).
	z := GetZero(70)
	if len(z) != 70 {
		t.Fatalf("GetZero(70) len = %d", len(z))
	}
	for i, w := range z {
		if w != 0 {
			t.Fatalf("GetZero word %d = %x", i, w)
		}
	}
	Put(z)

	// Non-power-of-two capacities are dropped, not pooled.
	Put(make([]uint64, 3, 7))

	// Degenerate sizes.
	if s := Get(0); s != nil {
		t.Fatalf("Get(0) = %v", s)
	}
	Put(nil)
	one := Get(1)
	if len(one) != 1 || cap(one) != 1 {
		t.Fatalf("Get(1) len/cap = %d/%d", len(one), cap(one))
	}
	Put(one)
}
