// Package wordops provides the shared word-level kernels and the reusable
// word-buffer pool behind the simulation-bound hot paths.
//
// Bit-parallel simulation, incremental re-simulation and batch error
// estimation all reduce to a handful of elementwise operations over
// []uint64 value words. Keeping those loops in one place gives the rest of
// the repository a single point to add SIMD-friendly kernels later, and the
// pool turns the per-call `make([]uint64, words)` churn of the hot stages
// into steady-state-allocation-free buffer reuse.
package wordops

import (
	"math/bits"
	"sync"
)

// Not writes the elementwise complement of src into dst. The slices must
// have the same length and may not overlap partially (dst == src is fine).
//
//alsrac:hotpath
func Not(dst, src []uint64) {
	for i := range dst {
		dst[i] = ^src[i]
	}
}

// CopyOrNot copies src into dst, complementing every word when compl is
// true. This is the literal-dereference kernel: a complemented AIG edge
// reads the complemented value vector.
//
//alsrac:hotpath
func CopyOrNot(dst, src []uint64, compl bool) {
	if compl {
		Not(dst, src)
		return
	}
	copy(dst, src)
}

// And writes the conjunction of a and b into dst, complementing a when c0
// is set and b when c1 is set — the four fanin-polarity cases of an AIG
// AND node in one kernel. All slices must have the same length.
//
//alsrac:hotpath
func And(dst, a, b []uint64, c0, c1 bool) {
	switch {
	case !c0 && !c1:
		for i := range dst {
			dst[i] = a[i] & b[i]
		}
	case c0 && !c1:
		for i := range dst {
			dst[i] = ^a[i] & b[i]
		}
	case !c0 && c1:
		for i := range dst {
			dst[i] = a[i] &^ b[i]
		}
	default:
		for i := range dst {
			dst[i] = ^(a[i] | b[i])
		}
	}
}

// AndDiff is the incremental-resimulation kernel: it computes the same
// four-polarity conjunction as And, writes it into dst, and reports whether
// any word differs from ref. ref may be dst itself, which asks whether dst
// changed. Fusing the write with the comparison lets event-driven
// propagation decide in one pass over the words whether a node's fanouts
// need re-evaluation. All slices must have the same length.
//
//alsrac:hotpath
func AndDiff(dst, a, b, ref []uint64, c0, c1 bool) bool {
	var m0, m1 uint64
	if c0 {
		m0 = ^uint64(0)
	}
	if c1 {
		m1 = ^uint64(0)
	}
	a, b, ref = a[:len(dst)], b[:len(dst)], ref[:len(dst)]
	var diff uint64
	for i := range dst {
		w := (a[i] ^ m0) & (b[i] ^ m1)
		diff |= w ^ ref[i]
		dst[i] = w
	}
	return diff != 0
}

// SelectFlip is the batch-estimation merge kernel: on the bit positions
// where old and new differ the output takes the flipped value yf, elsewhere
// the current value y. All slices must have the same length.
//
//alsrac:hotpath
func SelectFlip(dst, y, yf, old, new []uint64) {
	for i := range dst {
		c := old[i] ^ new[i]
		dst[i] = y[i]&^c | yf[i]&c
	}
}

// TailMask returns the mask of meaningful bits in the last simulation word
// of a run with n valid patterns: bits [0, n mod 64), or all ones when n is
// a multiple of 64. Bits at or beyond the valid count carry arbitrary
// values and must never influence pattern-granular results.
func TailMask(n int) uint64 {
	if r := uint(n) & 63; r != 0 {
		return 1<<r - 1
	}
	return ^uint64(0)
}

// CoverTest is the sampled resubstitution check of Theorem 1, word-parallel
// over the first valid patterns of the value words: a divisor set is
// feasible for a target when no two patterns agree on every divisor but
// disagree on the target. It serves divisor sets of at most two, a kept
// divisor a (or none) plus an added divisor u, for one target and any
// number of u, and returns the sampled function of every set it accepts.
//
// Prepare splits every valid pattern by a's value c and the target's:
// pq[w][c] holds word w of P_c, the patterns with a = c and target 1, and
// pq[w][2+c] word w of Q_c, those with a = c and target 0. With no kept
// divisor every pattern is in class 0 and class 1 is empty. Add splits each
// class by u's value b; the set is infeasible exactly when some minterm
// (c, b) holds a pattern of P_c and one of Q_c.
//
// Minterm bits number the divisors in order: the kept divisor is bit 0 and
// u is bit 1, or bit 0 with no kept divisor. Bit m of on tells that minterm
// m was observed with the target at 1, bit m of care that it was observed
// at all; tt.ISOPOnCare turns the pair into the cover.
type CoverTest struct {
	tail uint64      // valid bits of the last word
	kept bool        // Prepare was given a kept divisor
	pq   [][4]uint64 // one entry per word
}

// NewCoverTest sizes a cover test for valid patterns.
func NewCoverTest(valid int) CoverTest {
	return CoverTest{tail: TailMask(valid), pq: make([][4]uint64, (valid+63)>>6)}
}

// Prepare fills the class masks for the kept divisor a, complemented by XOR
// with ainv (all ones or zero), and the target tgt, complemented by tinv;
// a nil a means no kept divisor. It returns the sampled function of the
// kept set alone, with ok false when that set is infeasible. Later Add
// calls test the kept set plus one more divisor.
//
//alsrac:hotpath
func (t *CoverTest) Prepare(a []uint64, ainv uint64, tgt []uint64, tinv uint64) (on, care uint64, ok bool) {
	t.kept = a != nil
	var has1, has0 uint8
	for w := range t.pq {
		vmask := ^uint64(0)
		if w == len(t.pq)-1 {
			vmask = t.tail
		}
		tv := tgt[w] ^ tinv
		c1 := uint64(0) // patterns with a = 1
		if a != nil {
			c1 = (a[w] ^ ainv) & vmask
		}
		c0 := vmask &^ c1
		m := [4]uint64{c0 & tv, c1 & tv, c0 &^ tv, c1 &^ tv}
		t.pq[w] = m
		has1 |= nonzero(m[0]) | nonzero(m[1])<<1
		has0 |= nonzero(m[2]) | nonzero(m[3])<<1
	}
	return uint64(has1), uint64(has1 | has0), has1&has0 == 0
}

// Add tests the prepared kept set plus u, complemented by XOR with uinv,
// and returns the set's sampled function, or ok false as soon as a word
// holds a conflicting minterm.
//
//alsrac:hotpath
func (t *CoverTest) Add(u []uint64, uinv uint64) (on, care uint64, ok bool) {
	var has1, has0 uint8
	for w := range t.pq {
		x, m := u[w]^uinv, &t.pq[w]
		has1 |= nonzero(m[0]&^x) | nonzero(m[1]&^x)<<1 | nonzero(m[0]&x)<<2 | nonzero(m[1]&x)<<3
		has0 |= nonzero(m[2]&^x) | nonzero(m[3]&^x)<<1 | nonzero(m[2]&x)<<2 | nonzero(m[3]&x)<<3
		if has1&has0 != 0 {
			return 0, 0, false
		}
	}
	if !t.kept {
		// Class 1 is empty, so bits 1 and 3 are clear: u moves to bit 1.
		has1 = has1&1 | has1>>1
		has0 = has0&1 | has0>>1
	}
	return uint64(has1), uint64(has1 | has0), true
}

// nonzero is 1 when x has a set bit and 0 otherwise. The compiler emits a
// flag set, not a branch, so Add runs branch-free up to its exit test.
func nonzero(x uint64) uint8 {
	if x != 0 {
		return 1
	}
	return 0
}

// --- slice pools -----------------------------------------------------------
//
// Buffers are bucketed by power-of-two capacity: get rounds the requested
// length up to the next power of two, so a buffer returned by put lands in
// the bucket get draws from. Buckets are bounded so that transient bursts
// cannot pin unbounded memory. Besides the value-word pool there are pools
// for the per-round scaffolding of the incremental resimulator (int32
// touched lists, vector pointer rows for its overlay and the batch
// estimator's PO rows) and for the simulator's int32 shard bounds, so a
// per-iteration batch setup allocates nothing in steady state either. The
// fanout index and event queues it walks are not pooled: the simulation
// arena owns them and keeps them across rounds.

type bucket[T any] struct {
	mu   sync.Mutex
	free [][]T
}

// pool is a bucketed freelist for []T. elemShift is log2 of T's size in
// bytes, used to bound each bucket by retained bytes. clearOnPut zeroes
// returned slices — required when T contains pointers, so a pooled buffer
// cannot pin the memory it used to reference.
type pool[T any] struct {
	buckets    [33]bucket[T]
	elemShift  uint
	clearOnPut bool
}

// bucketCap bounds a bucket by retained bytes (~4 MiB per bucket) rather
// than a flat entry count: one ranking pass keeps hundreds of small
// node-vector buffers alive at once (PO rows plus the resimulation
// overlay), and dropping them on put would turn every following pass into
// an allocation storm. Huge buffers keep a floor of 4 entries.
func (p *pool[T]) bucketCap(idx int) int {
	const targetBytes = 4 << 20
	n := targetBytes >> (p.elemShift + uint(idx))
	if n < 4 {
		return 4
	}
	if n > 1024 {
		return 1024
	}
	return n
}

// get returns a slice of length n, contents unspecified.
func (p *pool[T]) get(n int) []T {
	if n <= 0 {
		return nil
	}
	idx := bits.Len(uint(n - 1))
	b := &p.buckets[idx]
	b.mu.Lock()
	if k := len(b.free); k > 0 {
		s := b.free[k-1]
		b.free[k-1] = nil
		b.free = b.free[:k-1]
		b.mu.Unlock()
		return s[:n]
	}
	b.mu.Unlock()
	return make([]T, n, 1<<idx)
}

// put returns a slice obtained from get. Slices whose capacity is not a
// power of two (i.e. not pool-allocated) are silently dropped.
func (p *pool[T]) put(s []T) {
	c := cap(s)
	if c == 0 || c&(c-1) != 0 {
		return
	}
	if p.clearOnPut {
		s = s[:c] // clear the FULL capacity: stale entries beyond len would survive
		var zero T
		for i := range s {
			s[i] = zero
		}
	}
	idx := bits.Len(uint(c - 1))
	b := &p.buckets[idx]
	b.mu.Lock()
	if len(b.free) < p.bucketCap(idx) {
		b.free = append(b.free, s[:0])
	}
	b.mu.Unlock()
}

var (
	words   = pool[uint64]{elemShift: 3}
	ints32  = pool[int32]{elemShift: 2}
	vecPtrs = pool[[]uint64]{elemShift: 3, clearOnPut: true} // header is 24 bytes; shift 3 is close enough
)

// Get returns a word slice of length n drawn from the pool, allocating a
// fresh one when the pool is empty. The contents are NOT zeroed — callers
// must fully overwrite the slice before reading it.
func Get(n int) []uint64 { return words.get(n) }

// Put returns a slice obtained from Get to the pool. Slices whose capacity
// is not a power of two (i.e. not pool-allocated) are silently dropped, so
// Put is always safe to call. The caller must not use the slice afterwards.
func Put(s []uint64) { words.put(s) }

// GetI32 returns an int32 slice of length n from the pool, contents
// unspecified.
func GetI32(n int) []int32 { return ints32.get(n) }

// PutI32 returns a slice obtained from GetI32 to the pool.
func PutI32(s []int32) { ints32.put(s) }

// GetVecsZero returns an all-nil slice of vector pointers of length n from
// the pool — the overlay row of an incremental resimulation, or a batch
// estimator's PO-row headers.
func GetVecsZero(n int) [][]uint64 {
	// All-nil by construction: fresh slices come zeroed from make, pooled
	// ones were cleared on PutVecs.
	return vecPtrs.get(n)
}

// PutVecs returns a slice obtained from GetVecsZero to the pool. The
// contained vectors are NOT released — the caller owns them.
func PutVecs(s [][]uint64) { vecPtrs.put(s) }
