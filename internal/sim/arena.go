package sim

import (
	"sync"

	"repro/internal/aig"
	"repro/internal/wordops"
)

// Arena is a persistent simulation state that tracks a graph across in-place
// mutations (aig.Graph.ReplaceNode). Where SimulateWorkers recomputes every
// node vector from scratch, Arena.Update re-evaluates only the slots whose
// epoch moved since the last sync plus the transitive fanout that actually
// changes value — the dirty-TFO slice of a committed LAC instead of the
// whole circuit.
//
// The result is bitwise identical to a fresh SimulateWorkers run on the
// mutated graph for every live node, for any worker count: word columns are
// independent, evaluation follows ascending node ids (the graph's
// topological order), and propagation prunes a fanout only when the fused
// AndDiff kernel proves the node's words did not change — in which case the
// fanout's inputs are bit-identical to the from-scratch run's.
type Arena struct {
	g       *aig.Graph
	p       *Patterns
	workers int
	vecs    *Vectors
	epochs  []uint32 // graph epochs at last sync

	// The fanout index of the bound graph and the event queue of Update,
	// both reused across calls so steady-state updates allocate nothing once
	// grown to the graph size. A dirty Update rebuilds the index; after a
	// Rebind it is built on first use (see fanouts), so an arena that is
	// never resimulated from and never goes dirty never builds it.
	fo    aig.FanoutIndex
	foOK  bool // fo matches the bound graph
	queue aig.EventQueue

	// queues holds the event queues that released Resimulators handed back
	// (a queue value carries its storage), lent again to the next ones, so
	// ranking rounds allocate no queue once each worker has had one. Forks
	// borrow concurrently, hence the lock.
	queuesMu sync.Mutex
	queues   []aig.EventQueue
}

// NewArena builds an arena bound to g and p and fully simulates it (with
// the given worker count, 0 = GOMAXPROCS). The pattern input count must
// match g.NumPIs().
func NewArena(g *aig.Graph, p *Patterns, workers int) *Arena {
	a := &Arena{workers: workers}
	a.Rebind(g, p)
	return a
}

// Rebind points the arena at a (possibly different) graph and pattern set
// and re-simulates from scratch. Sessions use this after a structural
// optimization pass replaced the graph object, and when the care patterns
// are rerolled.
func (a *Arena) Rebind(g *aig.Graph, p *Patterns) {
	a.vecs.Release()
	a.g, a.p = g, p
	a.vecs = SimulateWorkers(g, p, a.workers)
	a.foOK = false
	a.syncEpochs()
}

// Graph returns the graph the arena is bound to.
func (a *Arena) Graph() *aig.Graph { return a.g }

// Vectors returns the arena's value vectors. The returned object is owned
// by the arena: it is updated in place by Update and freed by Release.
func (a *Arena) Vectors() *Vectors { return a.vecs }

// Patterns returns the pattern set the arena is bound to.
func (a *Arena) Patterns() *Patterns { return a.p }

// Release returns the arena's vectors to the shared pool. The arena must
// not be used afterwards.
func (a *Arena) Release() {
	a.vecs.Release()
	a.vecs = nil
}

// Update incrementally re-simulates after in-place mutations of the bound
// graph, and returns the number of AND evaluations performed. Every slot
// whose epoch moved since the last Update (created, recycled or freed by
// ReplaceNode) is re-evaluated, and changes propagate through the current
// fanout structure in ascending node-id order; fanouts of a node whose
// value words came out unchanged are pruned. After Update, Vectors holds
// bitwise the same words a from-scratch SimulateWorkers run would for every
// live node.
//
//alsrac:alloc-ok scratch slices grow to the graph size once and are reused
func (a *Arena) Update() int {
	g := a.g
	n := g.NumNodes()
	a.vecs.EnsureNodes(n)
	for len(a.epochs) < n {
		a.epochs = append(a.epochs, 0)
	}

	// Seed the queue with every epoch-dirty live AND node. Recycled slots
	// hold stale value words from their previous occupant; their fanouts are
	// necessarily also epoch-dirty (an old node cannot reference a slot that
	// was dead when it was built), so even a coincidental AndDiff match on
	// garbage cannot mask a needed downstream update.
	a.queue.Reset(n)
	dirty := false
	for i := 0; i < n; i++ {
		if a.epochs[i] != g.Epoch(aig.Node(i)) {
			dirty = true
			if g.IsAnd(aig.Node(i)) {
				a.queue.Push(aig.Node(i))
			}
		}
	}
	if !dirty {
		return 0
	}
	a.fo.Build(g)
	a.foOK = true

	evals := 0
	vecs := a.vecs
	for a.queue.Len() > 0 {
		m := a.queue.Pop()
		if !g.IsAnd(m) {
			continue
		}
		f0, f1 := g.Fanin0(m), g.Fanin1(m)
		out := vecs.Node(m)
		changed := wordops.AndDiff(out, vecs.Node(f0.Node()), vecs.Node(f1.Node()), out,
			f0.IsCompl(), f1.IsCompl())
		evals++
		if changed || a.epochs[m] != g.Epoch(m) {
			a.queue.PushFanouts(&a.fo, m)
		}
	}
	a.syncEpochs()
	return evals
}

// fanouts returns the fanout index of the bound graph as of the last
// Update or Rebind, building it if that was a Rebind.
func (a *Arena) fanouts() *aig.FanoutIndex {
	if !a.foOK {
		a.fo.Build(a.g)
		a.foOK = true
	}
	return &a.fo
}

func (a *Arena) borrowQueue() aig.EventQueue {
	a.queuesMu.Lock()
	defer a.queuesMu.Unlock()
	k := len(a.queues)
	if k == 0 {
		return aig.EventQueue{}
	}
	q := a.queues[k-1]
	a.queues = a.queues[:k-1]
	return q
}

func (a *Arena) returnQueue(q aig.EventQueue) {
	a.queuesMu.Lock()
	defer a.queuesMu.Unlock()
	a.queues = append(a.queues, q)
}

func (a *Arena) syncEpochs() {
	g := a.g
	n := g.NumNodes()
	if cap(a.epochs) < n {
		a.epochs = make([]uint32, n)
	}
	a.epochs = a.epochs[:n]
	for i := range a.epochs {
		a.epochs[i] = g.Epoch(aig.Node(i))
	}
}

// EnsureNodes grows the vector storage to hold at least `nodes` node
// vectors, preserving existing contents. Newly covered slots hold arbitrary
// words until written.
func (v *Vectors) EnsureNodes(nodes int) {
	need := nodes * v.Words
	if len(v.flat) >= need {
		return
	}
	nf := wordops.Get(need)
	copy(nf, v.flat)
	wordops.Put(v.flat)
	v.flat = nf
}
