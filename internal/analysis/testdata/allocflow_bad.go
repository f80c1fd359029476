// Fixture: transitive allocations the allocflow analyzer must trace through
// the call graph. Every kernel body here is itself allocation-free; the
// findings are the calls into allocating helpers.
package wordops

//alsrac:hotpath
func kernelCallsAllocatingHelper(dst []uint64, n int) []uint64 {
	return growWords(dst, n) //want:allocflow
}

//alsrac:hotpath
func kernelTwoFramesDeep(dst []uint64, n int) []uint64 {
	return ensureWords(dst, n) //want:allocflow
}

//alsrac:hotpath
func kernelCallsAllocatingMethod(s *wordScratch, n int) {
	s.grow(n) //want:allocflow
}

//alsrac:hotpath
func kernelWaivedEdge(dst []uint64, n int) []uint64 {
	//alsrac:alloc-ok warmup call only; steady-state iterations stay within capacity
	return growWords(dst, n)
}

func ensureWords(dst []uint64, n int) []uint64 {
	return growWords(dst, n)
}

func growWords(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

type wordScratch struct{ buf []uint64 }

func (s *wordScratch) grow(n int) {
	s.buf = make([]uint64, n)
}
