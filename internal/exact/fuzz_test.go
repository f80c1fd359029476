package exact

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/aig"
)

// FuzzMiterSAT is the PR's fuzz satellite: on random small AIG pairs and
// random thresholds, the CDCL backend's verdict must equal the exhaustive
// evaluator's, and every SAT model must replay to an input pattern whose
// error distance actually exceeds the threshold. The candidate is two
// mutations away from the original, and the middle circuit serves as the
// base of a second SAT certification whenever its own maximum error is
// within the threshold, as a certified flow's working graph is. The
// instance is derived deterministically from the fuzzed scalars, so every
// crash reproduces.
func FuzzMiterSAT(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(3), uint8(12), uint64(0))
	f.Add(int64(2), uint8(6), uint8(5), uint8(30), uint64(3))
	f.Add(int64(3), uint8(2), uint8(1), uint8(4), uint64(1))
	f.Add(int64(99), uint8(8), uint8(6), uint8(40), uint64(17))
	f.Add(int64(5), uint8(7), uint8(63), uint8(40), uint64(1)<<63+12345)
	// Through a base: base ED 10, candidate ED 32 (rejected); base ED 16,
	// candidate ED 18 (certified); 60 outputs with a base equivalent to the
	// original.
	f.Add(int64(27), uint8(7), uint8(5), uint8(39), uint64(10))
	f.Add(int64(30), uint8(7), uint8(5), uint8(39), uint64(18))
	f.Add(int64(43), uint8(66), uint8(59), uint8(10), uint64(0))
	f.Fuzz(func(t *testing.T, seed int64, nPIsRaw, nPOsRaw, nAndsRaw uint8, threshold uint64) {
		nPIs := 1 + int(nPIsRaw%8)  // 1..8
		nPOs := 1 + int(nPOsRaw%64) // 1..64
		nAnds := 1 + int(nAndsRaw%48)
		rng := rand.New(rand.NewSource(seed))
		orig := randGraph(rng, nPIs, nPOs, nAnds)
		base := mutate(orig, rng)
		appr := mutate(base, rng)
		T := threshold
		if top := ^uint64(0) >> uint(64-nPOs); top < math.MaxUint64 {
			T %= top + 2 // include the clamp region
		}

		exh, err := New(orig, Config{MaxExhaustivePIs: 30, BlockWords: 2})
		if err != nil {
			t.Fatal(err)
		}
		forced, err := New(orig, Config{MaxExhaustivePIs: -1})
		if err != nil {
			t.Fatal(err)
		}
		maxED, _, _, _ := bruteMeasure(orig, appr)
		want := maxED <= T
		check := func(name string, b *aig.Graph, chk *Checker) {
			cert, err := chk.CertifyED(b, appr, T)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if cert.OK != want {
				t.Fatalf("%s: verdict %v at T=%d, brute-force max ED %d", name, cert.OK, T, maxED)
			}
			if cert.OK {
				return
			}
			if len(cert.Witness) != nPIs {
				t.Fatalf("%s: witness length %d, want %d", name, len(cert.Witness), nPIs)
			}
			if ed := edAt(orig, appr, cert.Witness); ed <= T || ed != cert.MaxED {
				t.Fatalf("%s: witness ED %d, certificate MaxED %d, threshold %d", name, ed, cert.MaxED, T)
			}
			if cert.Backend == BackendSAT && edAt(b, appr, cert.Witness) == 0 {
				t.Fatalf("%s: witness where the candidate equals the base", name)
			}
		}
		check("exhaustive", orig, exh)
		check("sat", orig, forced)
		if baseED, _, _, _ := bruteMeasure(orig, base); baseED <= T {
			check("sat through the base", base, forced)
		}
	})
}
