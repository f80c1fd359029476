package aig

import "math/bits"

// FanoutIndex is a CSR index of the AND fanouts of every slot of a graph:
// Of(n) lists, in ascending id order, the live AND nodes with a fanin on n.
// It is a snapshot of the structure at the last Build; in-place edits leave
// it stale until the next Build. Build reuses the index's storage, so a
// steady stream of rebuilds allocates nothing once it has grown to the
// graph size.
//
// Every event-driven fanout walk — ReplaceNode's rebuild, the simulation
// arena's dirty-TFO update, and the batch estimator's resimulation, which
// borrows the arena's index — reads this one structure through an
// EventQueue.
type FanoutIndex struct {
	start []int32 // fanouts of n are list[start[n]:start[n+1]]
	list  []int32
}

// Build (re)computes the index over g's current slots.
//
//alsrac:hotpath
func (x *FanoutIndex) Build(g *Graph) {
	n := g.NumNodes()
	// Count each node's fanouts two slots ahead, so that after the prefix
	// sum start[f+1] is f's first list position and can serve as its fill
	// cursor; filling leaves it at f's end, which is start[f+1] proper.
	x.start = grow(x.start, n+2)
	clear(x.start)
	for m := Node(1); int(m) < n; m++ {
		if g.kind[m] == KindAnd {
			x.start[g.fanin0[m].Node()+2]++
			x.start[g.fanin1[m].Node()+2]++
		}
	}
	for i := 2; i < n+2; i++ {
		x.start[i] += x.start[i-1]
	}
	x.list = grow(x.list, int(x.start[n+1]))
	for m := Node(1); int(m) < n; m++ {
		if g.kind[m] != KindAnd {
			continue
		}
		for _, f := range [2]Node{g.fanin0[m].Node(), g.fanin1[m].Node()} {
			x.list[x.start[f+1]] = int32(m)
			x.start[f+1]++
		}
	}
	x.start = x.start[:n+1]
}

// Of returns the AND fanouts of n in ascending id order (a view into the
// index, not a copy).
//
//alsrac:hotpath
func (x *FanoutIndex) Of(n Node) []int32 {
	return x.list[x.start[n]:x.start[n+1]]
}

// EventQueue is the event queue of a fanout walk: a bitset of node ids with
// a forward cursor, in which each node is queued at most once. Pop returns
// the smallest queued id, which is a topological order, so a walk that only
// queues the fanouts of the node it just popped visits every node after all
// of its changed fanins and never sees a popped node again. Such a walk
// only pushes ids above the one it popped, and the cursor only moves
// forward: one walk scans each bitset word at most once. A push below the
// cursor (a caller seeding an arbitrary set, as Arena.Update does) lowers
// the cursor, so the queue stays a correct min-queue for any push order.
type EventQueue struct {
	bits []uint64 // bit m%64 of bits[m/64]: m is queued; all zero while the queue is empty
	cur  int      // no bit is set in the words below bits[cur]
	n    int      // number of queued ids
}

// Reset empties the queue, including one a walk abandoned, and sizes it
// for node ids below n. Push never allocates.
func (q *EventQueue) Reset(n int) {
	if q.n > 0 {
		clear(q.bits)
	}
	// A drained queue leaves every bit zero and Reset keeps them so over
	// the whole capacity, so re-slicing to a larger size needs no clear.
	q.bits = grow(q.bits, (n+63)/64)
	q.cur, q.n = 0, 0
}

// Len returns the number of queued nodes.
func (q *EventQueue) Len() int { return q.n }

// Push queues m unless it is already queued.
//
//alsrac:hotpath
func (q *EventQueue) Push(m Node) {
	i, bit := int(m)>>6, uint64(1)<<(uint(m)&63)
	if q.bits[i]&bit != 0 {
		return
	}
	q.bits[i] |= bit
	q.n++
	if i < q.cur {
		q.cur = i
	}
}

// PushFanouts queues every AND fanout of n that x records.
//
//alsrac:hotpath
func (q *EventQueue) PushFanouts(x *FanoutIndex, n Node) {
	for _, m := range x.Of(n) {
		q.Push(Node(m))
	}
}

// Pop removes and returns the smallest queued id. The queue must not be
// empty.
//
//alsrac:hotpath
func (q *EventQueue) Pop() Node {
	for q.bits[q.cur] == 0 {
		q.cur++
	}
	w := q.bits[q.cur]
	q.bits[q.cur] = w & (w - 1)
	q.n--
	return Node(q.cur<<6 | bits.TrailingZeros64(w))
}

// grow returns s resized to length n, reusing its storage when it is large
// enough. Contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		//alsrac:alloc-ok amortized capacity growth; recycled scratch makes steady-state calls allocation-free
		return make([]T, n)
	}
	return s[:n]
}
