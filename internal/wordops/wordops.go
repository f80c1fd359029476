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

// CoverScan classifies the first valid patterns of a target signal by the
// valuation ("key") of up to six divisor signals, entirely at word
// granularity. divs[j] holds the value words of divisor j, complemented by
// XOR with dinv[j] (all-ones or zero); tgt/tinv encode the target the same
// way. Bit m of the returned masks tells whether divisor valuation m was
// observed with the target at 1 (onset) or observed at all (care). ok is
// false when some valuation occurs with both target values — the sampled
// resubstitution feasibility check — detected with an early exit on the
// first conflicting word.
//
// The scan performs O(2^k · words) word operations in place of the
// O(valid · k) single-bit probes of a per-pattern loop: per word, the 2^k
// minterm-indicator masks are derived by iterative splitting (each divisor
// halves every mask into an AND with the divisor's word and an AND with its
// complement).
//
//alsrac:hotpath
func CoverScan(divs [][]uint64, dinv []uint64, tgt []uint64, tinv uint64, valid int) (onset, care uint64, ok bool) {
	k := len(divs)
	if k > 6 {
		panic("wordops: CoverScan supports at most 6 divisors")
	}
	words := (valid + 63) >> 6
	var on, off uint64
	for w := 0; w < words; w++ {
		vmask := ^uint64(0)
		if w == words-1 {
			vmask = TailMask(valid)
		}
		t := tgt[w] ^ tinv
		var masks [64]uint64
		masks[0] = vmask
		n := 1
		for j := 0; j < k; j++ {
			dv := divs[j][w] ^ dinv[j]
			for i := 0; i < n; i++ {
				m := masks[i]
				masks[n+i] = m & dv // key bit j = 1
				masks[i] = m &^ dv  // key bit j = 0
			}
			n <<= 1
		}
		for key := 0; key < n; key++ {
			m := masks[key]
			if m == 0 {
				continue
			}
			bit := uint64(1) << uint(key)
			if m&t != 0 {
				on |= bit
			}
			if m&^t != 0 {
				off |= bit
			}
		}
		if on&off != 0 {
			return 0, 0, false
		}
	}
	return on, on | off, true
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

// GetZero returns a zeroed word slice of length n from the pool.
func GetZero(n int) []uint64 {
	s := Get(n)
	for i := range s {
		s[i] = 0
	}
	return s
}

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
