// Fixture: an epoch-recycling commit path that allocates per call. The free
// list, epoch snapshot and stale mask are all persistent-scratch candidates;
// rebuilding any of them inside a hotpath-annotated kernel is a finding.
package aig

type recycler struct {
	free   []int
	epochs []uint32
	stale  []bool
}

//alsrac:hotpath
func (r *recycler) recycleBad(n int, epochs []uint32, touched []int) []bool {
	snap := make([]uint32, len(epochs)) //want:allocflow
	copy(snap, epochs)
	r.free = append(touched[:0:0], touched...) //want:allocflow
	stale := make([]bool, n)                   //want:allocflow
	for _, t := range touched {
		stale[t] = true
	}
	onFree := func(slot int) { stale[slot] = true } //want:allocflow
	for _, f := range r.free {
		onFree(f)
	}
	return stale
}

// The amortized shape of the same path: scratch lives on the receiver and is
// re-sliced in place, so steady-state commits allocate nothing.
//
//alsrac:hotpath
func (r *recycler) recycleOK(epochs []uint32, touched []int) []bool {
	r.epochs = append(r.epochs[:0], epochs...)
	r.free = append(r.free[:0], touched...)
	r.stale = r.stale[:0]
	for range epochs {
		r.stale = append(r.stale, false)
	}
	for _, t := range touched {
		r.stale[t] = true
	}
	return r.stale
}
