// Fixture: the allocation-free idioms the allocflow analyzer must accept.
package wordops

type scanState struct {
	cone []int32
}

//alsrac:hotpath
func kernelOK(s *scanState, dst, src []uint64, picks []int32) uint64 {
	// Fixed-size array scratch lives on the stack.
	var masks [64]uint64
	vals := masks[:]
	for i := range src {
		dst[i] = src[i] &^ vals[i&63]
	}
	// Self-append into persistent scratch is amortized, including the
	// truncate-and-refill form.
	s.cone = s.cone[:0]
	for _, p := range picks {
		s.cone = append(s.cone, p)
	}
	s.cone = append(s.cone[:0], picks...)
	// The audited escape hatch: a reasoned alloc-ok marker suppresses.
	//alsrac:alloc-ok one-time header allocation measured off the hot loop
	hdr := make([]uint64, 2)
	return dst[0] ^ hdr[0]
}
