package tt

import "testing"

// FuzzISOP feeds arbitrary sampled incompletely specified functions (onset
// and care masks over up to 6 variables) to the ISOP generator and checks
// the two-level contract: the cover contains the whole onset and never
// touches the offset, i.e. onset ⊆ cover ⊆ onset ∪ dc.
func FuzzISOP(f *testing.F) {
	f.Add(uint8(3), uint64(0b1010_0101), ^uint64(0))
	f.Add(uint8(6), uint64(0xDEADBEEF_01234567), uint64(0xFFFF0000_FFFF0000))
	f.Add(uint8(1), uint64(0b01), uint64(0b11))
	f.Add(uint8(4), uint64(0), uint64(0))

	f.Fuzz(func(t *testing.T, nRaw uint8, on, care uint64) {
		n := 1 + int(nRaw)%6
		mask := uint64(1)<<(1<<uint(n)) - 1
		care &= mask
		on &= care // a minterm observed as 1 is by definition in the care set

		onset, dc := FromOnCare(n, on, care)
		cover := ISOP(onset, dc)
		checkCoverContract(t, n, cover, onset, dc)
	})
}

// checkCoverContract fails the test when a two-level cover violates
// onset ⊆ cover ⊆ onset ∪ dc.
func checkCoverContract(t *testing.T, n int, cover Cover, onset, dc Table) {
	t.Helper()
	tbl := cover.Table(n)
	if missed := onset.AndNot(tbl); !missed.IsConst0() {
		t.Fatalf("cover %v misses onset minterms %v", cover, missed)
	}
	if hit := tbl.AndNot(onset.Or(dc)); !hit.IsConst0() {
		t.Fatalf("cover %v intersects the offset at %v", cover, hit)
	}
}
