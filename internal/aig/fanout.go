package aig

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

// EventQueue is the event queue of a fanout walk: a binary min-heap of node
// ids in which each node is queued at most once. Nodes pop in ascending id
// order, which is a topological order, so a walk that only queues the
// fanouts of the node it just popped visits every node after all of its
// changed fanins and never sees a popped node again.
type EventQueue struct {
	heap   []int32
	queued []bool // queued[m]: m is in heap; all false while the queue is empty
}

// Reset empties the queue and sizes it for node ids below n. The heap gets
// capacity n, the most it can hold, so Push never allocates.
func (q *EventQueue) Reset(n int) {
	for _, m := range q.heap {
		q.queued[m] = false
	}
	q.heap = grow(q.heap, n)[:0]
	q.queued = grow(q.queued, n)
}

// Len returns the number of queued nodes.
func (q *EventQueue) Len() int { return len(q.heap) }

// Push queues m unless it is already queued.
//
//alsrac:hotpath
func (q *EventQueue) Push(m Node) {
	if q.queued[m] {
		return
	}
	q.queued[m] = true
	q.heap = append(q.heap, int32(m))
	for i := len(q.heap) - 1; i > 0; {
		p := (i - 1) / 2
		if q.heap[p] <= q.heap[i] {
			break
		}
		q.heap[p], q.heap[i] = q.heap[i], q.heap[p]
		i = p
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
	m := q.heap[0]
	last := len(q.heap) - 1
	q.heap[0] = q.heap[last]
	q.heap = q.heap[:last]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && q.heap[l] < q.heap[small] {
			small = l
		}
		if r < last && q.heap[r] < q.heap[small] {
			small = r
		}
		if small == i {
			break
		}
		q.heap[i], q.heap[small] = q.heap[small], q.heap[i]
		i = small
	}
	q.queued[m] = false
	return Node(m)
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
