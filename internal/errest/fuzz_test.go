package errest

import (
	"math/rand"
	"testing"
)

// FuzzRankKernel drives checkRankKernels over fuzzed shapes: 1–64 outputs,
// 1–8 words, any valid count and any probe split.
func FuzzRankKernel(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(2), uint8(17))
	f.Add(int64(2), uint8(39), uint8(1), uint8(0))
	f.Add(int64(3), uint8(63), uint8(7), uint8(63))
	f.Fuzz(func(t *testing.T, seed int64, nPOs, words, cut uint8) {
		w := 1 + int(words)%8
		checkRankKernels(t, rand.New(rand.NewSource(seed)), 1+int(nPOs)%64, w, 64*w-int(cut)%64)
	})
}
