package resub

import (
	"encoding/binary"
	"testing"

	"repro/internal/aig"
	"repro/internal/sim"
	"repro/internal/tt"
	"repro/internal/wordops"
)

// FuzzCoverScan drives the scan's cover path (wordops.CoverTest plus
// tt.ISOPOnCare, with divs[:k-1] kept and divs[k-1] added) and the
// per-pattern reference over fuzzer-chosen simulation words, sets of k ≤ 2
// divisors and valid counts, and requires them to agree exactly — the same
// contract TestBuildCoverWordMatchesPerPattern samples randomly. At k = 1
// it also holds Prepare's function of the divisor as the kept set to the
// reference. On feasible sets it additionally checks the semantic property
// both implementations promise: the minimized cover reproduces the target
// bit on every valid pattern.
func FuzzCoverScan(f *testing.F) {
	f.Add([]byte{0x00}, uint8(2), uint8(2), uint16(64))
	f.Add([]byte{0xFF, 0x0F, 0xF0, 0xAA, 0x55}, uint8(3), uint8(9), uint16(100))
	f.Add([]byte{0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x23, 0x45, 0x67}, uint8(6), uint8(4), uint16(1))
	f.Add([]byte{0x80, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01}, uint8(0), uint8(7), uint16(65))
	f.Add([]byte{0x3C, 0x5A, 0x96, 0x0F, 0xC3, 0x69, 0xA5, 0xF0, 0x11}, uint8(1), uint8(3), uint16(99))
	f.Add([]byte{0x6B, 0x1D, 0xE2, 0x47, 0x90, 0xFE, 0x35, 0x8C, 0x2A}, uint8(2), uint8(5), uint16(127))

	f.Fuzz(func(t *testing.T, data []byte, kRaw, targetRaw uint8, validRaw uint16) {
		const (
			nodes = 5 // constant node + 4 value nodes
			words = 2 // 128 patterns, so valid can cut the last word short
		)
		k := int(kRaw % 3)
		valid := 1 + int(validRaw)%(words*64)

		vecs := sim.NewVectors(nodes, words)
		defer vecs.Release()
		for n := aig.Node(1); n < nodes; n++ {
			ws := vecs.Node(n)
			for i := range ws {
				ws[i] = wordAt(data, (int(n)-1)*words+i)
			}
		}

		// Derive divisor/target literals from the fuzz input; selector bit 2
		// onward picks the node, bit 0 the complement.
		litAt := func(idx int) aig.Lit {
			sel := wordAt(data, 97+idx) ^ uint64(targetRaw)
			n := aig.Node(1 + sel>>1%(nodes-1))
			return aig.MakeLit(n, sel&1 == 1)
		}
		divs := make([]aig.Lit, k)
		for j := range divs {
			divs[j] = litAt(j + 1)
		}
		target := litAt(0)

		got, gotOK := kernelCover(vecs, divs, target, valid)
		want, wantOK := buildCoverPerPattern(vecs, divs, target, valid)
		if gotOK != wantOK {
			t.Fatalf("k=%d valid=%d: kernel feasibility %v, reference %v", k, valid, gotOK, wantOK)
		}
		if k == 1 {
			ct := wordops.NewCoverTest(valid)
			tw, tinv := vecs.LitWords(target)
			aw, ainv := vecs.LitWords(divs[0])
			on, care, ok := ct.Prepare(aw, ainv, tw, tinv)
			if ok != wantOK || ok && !coversEqual(tt.ISOPOnCare(1, on, care), want) {
				t.Fatalf("k=1 valid=%d divs %v target %v: kept set (%v, on %b care %b), reference (%v, %v)",
					valid, divs, target, ok, on, care, wantOK, want)
			}
		}
		if !gotOK {
			return
		}
		if !coversEqual(got, want) {
			t.Fatalf("k=%d valid=%d: kernel cover %v, reference %v", k, valid, got, want)
		}
		tbl := got.Table(k)
		for p := 0; p < valid; p++ {
			key := 0
			for j, d := range divs {
				if vecs.LitBit(d, p) {
					key |= 1 << uint(j)
				}
			}
			if tbl.Get(key) != vecs.LitBit(target, p) {
				t.Fatalf("k=%d valid=%d: cover %v wrong on pattern %d (key %d)", k, valid, got, p, key)
			}
		}
	})
}

// wordAt reads the i-th little-endian word of a byte string treated as
// cyclic, so short fuzz inputs still populate every simulation word.
func wordAt(data []byte, i int) uint64 {
	if len(data) == 0 {
		return 0
	}
	var b [8]byte
	for j := range b {
		b[j] = data[(i*8+j)%len(data)]
	}
	return binary.LittleEndian.Uint64(b[:])
}
