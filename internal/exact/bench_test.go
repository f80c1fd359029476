package exact

import (
	"testing"

	"repro/internal/aig"
	"repro/internal/bench"
)

// certFixture builds an original circuit and a bounded-error candidate of
// the kind the flow certifies: one carry node of an adder replaced by a
// fanin, a real resubstitution-shaped change.
func certFixture(b *testing.B, n int) (orig, appr *aig.Graph) {
	b.Helper()
	orig = bench.RCA(n)
	// Replace the carry-out driver with its complement: the difference
	// support spans every input and the exact error distance is 2^n.
	po := orig.PO(n)
	appr = orig.CopyWith(map[aig.Node]aig.Lit{po.Node(): aig.MakeLit(po.Node(), true)})
	return orig, appr
}

// BenchmarkCertifyExhaustive measures one full exhaustive certification on
// an 8-bit ripple-carry adder (17 PIs in the difference support: 2^17
// patterns enumerated per call).
func BenchmarkCertifyExhaustive(b *testing.B) {
	orig, appr := certFixture(b, 8)
	chk, err := New(orig, Config{})
	if err != nil {
		b.Fatal(err)
	}
	bound := uint64(1) << 8 // exact ED of the fixture: full enumeration, no early exit
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cert, err := chk.CertifyED(orig, appr, bound)
		if err != nil {
			b.Fatal(err)
		}
		if !cert.OK || cert.Backend != BackendExhaustive {
			b.Fatalf("unexpected certificate %+v", cert)
		}
	}
}

// BenchmarkCertifySAT measures one full CDCL certification (miter build,
// datapath + comparator construction, Tseitin encoding, solve) on a
// 16-bit ripple-carry adder — a cone the exhaustive backend cannot touch.
func BenchmarkCertifySAT(b *testing.B) {
	orig, appr := certFixture(b, 16)
	chk, err := New(orig, Config{MaxExhaustivePIs: -1})
	if err != nil {
		b.Fatal(err)
	}
	bound := uint64(1) << 16 // certified: exact ED is 2^16
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cert, err := chk.CertifyED(orig, appr, bound)
		if err != nil {
			b.Fatal(err)
		}
		if !cert.OK || cert.Backend != BackendSAT {
			b.Fatalf("unexpected certificate %+v", cert)
		}
	}
}
