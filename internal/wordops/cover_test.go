package wordops

import (
	"math/rand"
	"testing"
)

func TestTailMask(t *testing.T) {
	cases := []struct {
		n    int
		want uint64
	}{
		{64, ^uint64(0)}, {128, ^uint64(0)}, {1, 1}, {63, 1<<63 - 1},
		{65, 1}, {100, 1<<36 - 1},
	}
	for _, c := range cases {
		if got := TailMask(c.n); got != c.want {
			t.Errorf("TailMask(%d) = %#x, want %#x", c.n, got, c.want)
		}
	}
}

// coverScanRef is the per-pattern specification of CoverTest: divisor j is
// minterm bit j.
func coverScanRef(divs [][]uint64, dinv []uint64, tgt []uint64, tinv uint64, valid int) (on, care uint64, ok bool) {
	for p := 0; p < valid; p++ {
		w, b := p>>6, uint(p)&63
		key := 0
		for j := range divs {
			if (divs[j][w]^dinv[j])>>b&1 == 1 {
				key |= 1 << uint(j)
			}
		}
		v := (tgt[w]^tinv)>>b&1 == 1
		bit := uint64(1) << uint(key)
		if care&bit != 0 {
			if (on&bit != 0) != v {
				return 0, 0, false
			}
			continue
		}
		care |= bit
		if v {
			on |= bit
		}
	}
	return on, care, true
}

// TestCoverScanMatchesReference property-tests both calls of the cover test
// against the per-pattern reference on random words, random complements
// and valid counts including non-multiples of 64: Prepare with no kept
// divisor (k = 0) and with one (k = 1), and Add after each (k = 1 with the
// divisor added, k = 2). Tail bits are random garbage, so any leak past the
// valid count shows up as a mismatch.
func TestCoverScanMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	randomInv := func() uint64 {
		if rng.Intn(2) == 0 {
			return ^uint64(0)
		}
		return 0
	}
	randomWords := func(n int) []uint64 {
		ws := make([]uint64, n)
		for w := range ws {
			ws[w] = rng.Uint64()
		}
		return ws
	}
	for trial := 0; trial < 500; trial++ {
		words := 1 + rng.Intn(4)
		valid := 1 + rng.Intn(64*words)
		a, u, tgt := randomWords(words), randomWords(words), randomWords(words)
		ainv, uinv, tinv := randomInv(), randomInv(), randomInv()
		// Bias two trials in three toward feasibility: make the target a
		// function of the kept divisor, or a random function of both.
		switch trial % 3 {
		case 0:
			copy(tgt, a)
			tinv = ainv
		case 1:
			f := rng.Intn(16)
			for w := range tgt {
				x, y := a[w]^ainv, u[w]^uinv
				tgt[w] = tinv
				for m, mask := range [4]uint64{^x &^ y, x &^ y, ^x & y, x & y} {
					if f>>m&1 == 1 {
						tgt[w] ^= mask
					}
				}
			}
		}
		check := func(what string, divs [][]uint64, dinv []uint64, on, care uint64, ok bool) {
			t.Helper()
			wantOn, wantCare, wantOK := coverScanRef(divs, dinv, tgt, tinv, valid)
			if ok != wantOK {
				t.Fatalf("trial %d (%s, words=%d valid=%d): ok=%v, reference %v",
					trial, what, words, valid, ok, wantOK)
			}
			if ok && (on != wantOn || care != wantCare) {
				t.Fatalf("trial %d (%s, words=%d valid=%d): on/care %#x/%#x, reference %#x/%#x",
					trial, what, words, valid, on, care, wantOn, wantCare)
			}
		}

		ct := NewCoverTest(valid)
		on, care, ok := ct.Prepare(nil, 0, tgt, tinv)
		check("no kept divisor", nil, nil, on, care, ok)
		on, care, ok = ct.Add(a, ainv)
		check("a added", [][]uint64{a}, []uint64{ainv}, on, care, ok)
		on, care, ok = ct.Prepare(a, ainv, tgt, tinv)
		check("a kept", [][]uint64{a}, []uint64{ainv}, on, care, ok)
		on, care, ok = ct.Add(u, uinv)
		check("a kept, u added", [][]uint64{a, u}, []uint64{ainv, uinv}, on, care, ok)
	}
}
