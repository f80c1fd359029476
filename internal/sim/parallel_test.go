package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/aig"
	"repro/internal/wordops"
)

// randomAIG builds a random DAG with nPIs inputs, nAnds AND attempts and a
// few POs. Structural hashing may fold some ANDs; that is fine for the
// property tests here.
func randomAIG(rng *rand.Rand, nPIs, nAnds, nPOs int) *aig.Graph {
	g := aig.New()
	lits := g.AddPIs(nPIs, "x")
	for i := 0; i < nAnds; i++ {
		a := lits[rng.Intn(len(lits))].NotCond(rng.Intn(2) == 0)
		b := lits[rng.Intn(len(lits))].NotCond(rng.Intn(2) == 0)
		lits = append(lits, g.And(a, b))
	}
	for i := 0; i < nPOs; i++ {
		g.AddPO(lits[rng.Intn(len(lits))].NotCond(rng.Intn(2) == 0), "f")
	}
	return g
}

// TestSimulateWorkersBitwiseIdentical: word-column sharding must reproduce
// the sequential simulation exactly, for every worker count (including
// counts that do not divide the word count and counts above it).
func TestSimulateWorkersBitwiseIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5; trial++ {
		g := randomAIG(rng, 8, 60, 4)
		p := Uniform(g.NumPIs(), 7, int64(trial+1)) // 7 words: odd on purpose
		ref := SimulateWorkers(g, p, 1)
		for _, workers := range []int{2, 3, 4, 8, 16} {
			v := SimulateWorkers(g, p, workers)
			for n := aig.Node(0); int(n) < g.NumNodes(); n++ {
				for w := 0; w < p.Words; w++ {
					if v.Node(n)[w] != ref.Node(n)[w] {
						t.Fatalf("trial %d workers %d: node %d word %d differs",
							trial, workers, n, w)
					}
				}
			}
			v.Release()
		}
		ref.Release()
	}
}

// TestVectorsPoolReuse: releasing and re-simulating must not leak stale
// values through the pooled backing array — in particular the constant
// node's vector must be re-zeroed.
func TestVectorsPoolReuse(t *testing.T) {
	g := aig.New()
	a := g.AddPI("a")
	g.AddPO(g.And(a, a.Not()), "zero") // folds to constant false
	g.AddPO(a, "a")

	p := Exhaustive(1)
	for round := 0; round < 3; round++ {
		v := Simulate(g, p)
		if got := v.Node(0)[0]; got != 0 {
			t.Fatalf("round %d: constant node vector = %x, want 0", round, got)
		}
		if got := v.LitInto(g.PO(0), make([]uint64, 1))[0]; got != 0 {
			t.Fatalf("round %d: constant PO = %x, want 0", round, got)
		}
		// Dirty the buffer before releasing so reuse bugs surface.
		for i := range v.flat {
			v.flat[i] = ^uint64(0)
		}
		v.Release()
	}
}

// fullRescanResimulate reproduces the pre-event-queue Resimulator behavior:
// scan EVERY node above n and re-evaluate those with a changed fanin. It is
// the reference the event-driven implementation must match.
func fullRescanResimulate(g *aig.Graph, base *Vectors, n aig.Node, newVec []uint64, out [][]uint64) {
	overlay := make([][]uint64, g.NumNodes())
	overlay[n] = append([]uint64(nil), newVec...)
	get := func(m aig.Node) []uint64 {
		if o := overlay[m]; o != nil {
			return o
		}
		return base.Node(m)
	}
	for m := n + 1; int(m) < g.NumNodes(); m++ {
		if !g.IsAnd(m) {
			continue
		}
		if overlay[g.Fanin0(m).Node()] == nil && overlay[g.Fanin1(m).Node()] == nil {
			continue
		}
		buf := make([]uint64, base.Words)
		f0, f1 := g.Fanin0(m), g.Fanin1(m)
		wordops.And(buf, get(f0.Node()), get(f1.Node()), f0.IsCompl(), f1.IsCompl())
		eq := true
		for i := range buf {
			if buf[i] != base.Node(m)[i] {
				eq = false
				break
			}
		}
		if eq {
			continue
		}
		overlay[m] = buf
	}
	for i := 0; i < g.NumPOs(); i++ {
		po := g.PO(i)
		src := get(po.Node())
		for w := range out[i] {
			if po.IsCompl() {
				out[i][w] = ^src[w]
			} else {
				out[i][w] = src[w]
			}
		}
	}
}

// TestResimulatorEventDrivenMatchesFullRescan: property test on random AIGs
// — for random (node, replacement-vector) pairs the event-driven TFO walk
// must produce the same PO words as the old full-rescan sweep, whether it
// walks every word at once or the words split at a random point into two
// walks, as the ranking probe does. The walks alternate between a root and
// a fork, and half of them follow a walk stopped at a random id and
// abandoned there, on word 0 alone or on several words: every node below
// the id RunTo returned must hold its final words, and the next walk must
// start from an empty queue and clean overlay.
func TestResimulatorEventDrivenMatchesFullRescan(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	stopped := 0
	for trial := 0; trial < 20; trial++ {
		g := randomAIG(rng, 6+rng.Intn(6), 30+rng.Intn(120), 1+rng.Intn(5))
		if g.NumAnds() == 0 {
			continue
		}
		p := Uniform(g.NumPIs(), 1+rng.Intn(4), int64(trial))
		arena := NewArena(g, p, 1)
		base := arena.Vectors()
		root := NewResimulator(arena)
		fork := root.Fork()
		got := make([][]uint64, g.NumPOs())
		want := make([][]uint64, g.NumPOs())
		for i := range got {
			got[i] = make([]uint64, base.Words)
			want[i] = make([]uint64, base.Words)
		}
		for rep := 0; rep < 10; rep++ {
			r := root
			if rep%4 >= 2 {
				r = fork
			}
			if rng.Intn(2) == 0 {
				stopped += stopWalk(t, rng, g, base, r)
			}
			var n aig.Node
			for {
				n = aig.Node(rng.Intn(g.NumNodes()-1) + 1)
				if g.IsAnd(n) {
					break
				}
			}
			newVec := make([]uint64, base.Words)
			for w := range newVec {
				newVec[w] = rng.Uint64()
			}
			r.Start(n, newVec, 0, base.Words)
			if first, want := r.RunTo(0), firstFanout(arena, n); first != want {
				t.Fatalf("trial %d rep %d node %d: the walk's first node is %d, want %d", trial, rep, n, first, want)
			}
			if split := rng.Intn(base.Words + 1); rep%2 == 1 && split > 0 && split < base.Words {
				r.Resimulate(n, newVec, 0, split)
				r.POWordsInto(got)
				r.Resimulate(n, newVec, split, base.Words)
				r.POWordsInto(got)
			} else {
				r.Resimulate(n, newVec, 0, base.Words)
				r.POWordsInto(got)
			}
			fullRescanResimulate(g, base, n, newVec, want)
			for i := range want {
				for w := range want[i] {
					if got[i][w] != want[i][w] {
						t.Fatalf("trial %d rep %d node %d: PO %d word %d: event-driven %x, full rescan %x",
							trial, rep, n, i, w, got[i][w], want[i][w])
					}
				}
			}
		}
		fork.Release()
		root.Release()
		arena.Release()
	}
	if stopped == 0 {
		t.Fatal("no walk stopped with nodes left to evaluate")
	}
}

// stopWalk starts a walk from a random AND node over word 0 alone or a
// random multi-word range, runs it up to a random id, and checks that every
// node below the id RunTo returns holds its final words. It reports 1 when
// the walk stopped with nodes left, 0 when it ran to its end.
func stopWalk(t *testing.T, rng *rand.Rand, g *aig.Graph, base *Vectors, r *Resimulator) int {
	t.Helper()
	ands := liveAndNodes(g)
	n := ands[rng.Intn(len(ands))]
	lo, hi := 0, 1
	if base.Words > 1 && rng.Intn(2) == 0 {
		lo = rng.Intn(base.Words - 1)
		hi = lo + 2 + rng.Intn(base.Words-lo-1)
	}
	newVec := make([]uint64, base.Words)
	for w := range newVec {
		newVec[w] = rng.Uint64()
	}
	ref := nodeWords(g, base, n, newVec)
	r.Start(n, newVec, lo, hi)
	next := r.RunTo(n + 1 + aig.Node(rng.Intn(g.NumNodes()-int(n))))
	for m := aig.Node(0); m < next && int(m) < g.NumNodes(); m++ {
		for w, x := range r.Words(m) {
			if x != ref[m][lo+w] {
				t.Fatalf("walk from node %d on words [%d, %d) stopped before %d: node %d word %d is %x, want %x",
					n, lo, hi, next, m, lo+w, x, ref[m][lo+w])
			}
		}
	}
	if next == WalkEnd {
		return 0
	}
	return 1
}

// nodeWords returns every node's words with node n's replaced by newVec,
// recomputed from scratch in id order.
func nodeWords(g *aig.Graph, base *Vectors, n aig.Node, newVec []uint64) [][]uint64 {
	vals := make([][]uint64, g.NumNodes())
	for m := range vals {
		vals[m] = append([]uint64(nil), base.Node(aig.Node(m))...)
	}
	copy(vals[n], newVec)
	for m := n + 1; int(m) < g.NumNodes(); m++ {
		if g.IsAnd(m) {
			f0, f1 := g.Fanin0(m), g.Fanin1(m)
			wordops.And(vals[m], vals[f0.Node()], vals[f1.Node()], f0.IsCompl(), f1.IsCompl())
		}
	}
	return vals
}

// firstFanout returns the smallest AND fanout of n, the first node a walk
// from n evaluates, or WalkEnd when n has none.
func firstFanout(a *Arena, n aig.Node) aig.Node {
	if fo := a.fo.Of(n); len(fo) > 0 {
		return aig.Node(fo[0])
	}
	return WalkEnd
}

// TestResimulatorForkIndependence: a Fork must share base values but keep
// its own overlay, so interleaved Resimulate calls cannot interfere.
func TestResimulatorForkIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := randomAIG(rng, 6, 40, 3)
	p := Uniform(g.NumPIs(), 2, 9)
	arena := NewArena(g, p, 1)
	base := arena.Vectors()
	r := NewResimulator(arena)
	f := r.Fork()

	var n1, n2 aig.Node
	for {
		n1 = aig.Node(rng.Intn(g.NumNodes()-1) + 1)
		if g.IsAnd(n1) {
			break
		}
	}
	for {
		n2 = aig.Node(rng.Intn(g.NumNodes()-1) + 1)
		if g.IsAnd(n2) && n2 != n1 {
			break
		}
	}
	v1 := make([]uint64, base.Words)
	v2 := make([]uint64, base.Words)
	for w := range v1 {
		v1[w] = rng.Uint64()
		v2[w] = rng.Uint64()
	}

	want1 := make([][]uint64, g.NumPOs())
	want2 := make([][]uint64, g.NumPOs())
	got := make([][]uint64, g.NumPOs())
	for i := range got {
		want1[i] = make([]uint64, base.Words)
		want2[i] = make([]uint64, base.Words)
		got[i] = make([]uint64, base.Words)
	}
	fullRescanResimulate(g, base, n1, v1, want1)
	fullRescanResimulate(g, base, n2, v2, want2)

	// Interleave: root resimulates n1, fork resimulates n2, then read both.
	r.Resimulate(n1, v1, 0, base.Words)
	f.Resimulate(n2, v2, 0, base.Words)
	r.POWordsInto(got)
	for i := range got {
		for w := range got[i] {
			if got[i][w] != want1[i][w] {
				t.Fatalf("root PO %d word %d: %x want %x", i, w, got[i][w], want1[i][w])
			}
		}
	}
	f.POWordsInto(got)
	for i := range got {
		for w := range got[i] {
			if got[i][w] != want2[i][w] {
				t.Fatalf("fork PO %d word %d: %x want %x", i, w, got[i][w], want2[i][w])
			}
		}
	}
	f.Release()
	r.Release()
	arena.Release()
}

// TestBorrowedResimulatorMatchesFreshArena: a Resimulator borrows its
// arena's vectors and fanout index. After a run of in-place commits (which
// leave dead and recycled slots) and one Update, and again after a Rebind
// to a different graph, the borrowed Resimulator and a Fork of it must
// produce the PO words of a Resimulator built from a fresh arena on the
// same graph, and those of the full-rescan reference.
func TestBorrowedResimulatorMatchesFreshArena(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	dead := 0
	for trial := 0; trial < 12; trial++ {
		g := randomAIG(rng, 6+rng.Intn(4), 40+rng.Intn(80), 1+rng.Intn(4))
		p := Uniform(g.NumPIs(), 1+rng.Intn(3), int64(trial))
		arena := NewArena(g, p, 1+trial%2)
		// Borrow once up front, so the index exists and Update must rebuild it.
		NewResimulator(arena).Release()
		for step := 0; step < 10; step++ {
			randomCommit(rng, g)
		}
		for n := aig.Node(1); int(n) < g.NumNodes(); n++ {
			if g.Kind(n) == aig.KindDead {
				dead++
			}
		}
		arena.Update()
		checkBorrowedResimulator(t, rng, fmt.Sprintf("trial %d after commits", trial), arena)

		g2 := randomAIG(rng, g.NumPIs(), 40+rng.Intn(80), 1+rng.Intn(4))
		arena.Rebind(g2, Uniform(g2.NumPIs(), 1+rng.Intn(3), int64(trial)+100))
		checkBorrowedResimulator(t, rng, fmt.Sprintf("trial %d after rebind", trial), arena)
		arena.Release()
	}
	if dead == 0 {
		t.Fatal("the commits left no dead slots; the test does not exercise recycling")
	}
}

// randomCommit replaces a random live AND node in place by a constant or by
// a fresh AND of two older signals, which cannot depend on it.
func randomCommit(rng *rand.Rand, g *aig.Graph) {
	ands := liveAndNodes(g)
	if len(ands) == 0 {
		return
	}
	v := ands[rng.Intn(len(ands))]
	pick := func() aig.Lit {
		n := aig.Node(rng.Intn(int(v)))
		for g.Kind(n) == aig.KindDead {
			n--
		}
		return aig.MakeLit(n, rng.Intn(2) == 0)
	}
	l := aig.LitFalse
	if rng.Intn(8) != 0 {
		l = g.And(pick(), pick())
	}
	g.ReplaceNode(v, l, nil)
}

func checkBorrowedResimulator(t *testing.T, rng *rand.Rand, label string, arena *Arena) {
	t.Helper()
	g, words := arena.Graph(), arena.Vectors().Words
	fresh := NewArena(g, arena.Patterns(), 1)
	defer fresh.Release()
	borrowed := NewResimulator(arena)
	fork := borrowed.Fork()
	ref := NewResimulator(fresh)
	defer func() {
		fork.Release()
		borrowed.Release()
		ref.Release()
	}()
	ands := liveAndNodes(g)
	if len(ands) == 0 {
		return
	}
	rows := func() [][]uint64 {
		out := make([][]uint64, g.NumPOs())
		for i := range out {
			out[i] = make([]uint64, words)
		}
		return out
	}
	got, gotFork, want, rescan := rows(), rows(), rows(), rows()
	for rep := 0; rep < 10; rep++ {
		n := ands[rng.Intn(len(ands))]
		newVec := make([]uint64, words)
		for w := range newVec {
			newVec[w] = rng.Uint64()
		}
		borrowed.Resimulate(n, newVec, 0, words)
		borrowed.POWordsInto(got)
		fork.Resimulate(n, newVec, 0, words)
		fork.POWordsInto(gotFork)
		ref.Resimulate(n, newVec, 0, words)
		ref.POWordsInto(want)
		fullRescanResimulate(g, fresh.Vectors(), n, newVec, rescan)
		for i := range want {
			for w := range want[i] {
				if got[i][w] != want[i][w] || gotFork[i][w] != want[i][w] || rescan[i][w] != want[i][w] {
					t.Fatalf("%s: node %d PO %d word %d: borrowed %x, fork %x, fresh arena %x, full rescan %x",
						label, n, i, w, got[i][w], gotFork[i][w], want[i][w], rescan[i][w])
				}
			}
		}
	}
}

func liveAndNodes(g *aig.Graph) []aig.Node {
	var out []aig.Node
	for n := aig.Node(1); int(n) < g.NumNodes(); n++ {
		if g.IsAnd(n) {
			out = append(out, n)
		}
	}
	return out
}

// TestSimWorkersClamp pins the small-simulation fan-out skip: below the
// per-worker work floor extra workers are dropped (the CLA32×256-word
// benchmark case regressed 54% at workers=4 before the clamp), while a
// large simulation keeps the requested parallelism.
func TestSimWorkersClamp(t *testing.T) {
	// 333 ANDs × 256 words ≈ 85K evals: under one work quantum → sequential.
	if got := simWorkers(4, 333, 256); got != 1 {
		t.Fatalf("small simulation kept %d workers, want 1", got)
	}
	// 1M ANDs × 128 words: far above the floor → knob honored.
	if got := simWorkers(4, 1_000_000, 128); got != 4 {
		t.Fatalf("large simulation clamped to %d workers, want 4", got)
	}
	// The word count still bounds the shard count.
	if got := simWorkers(8, 1_000_000, 3); got != 3 {
		t.Fatalf("worker count exceeded word count: %d", got)
	}
	bounds := shardBounds(4, 10)
	if bounds[0] != 0 || bounds[4] != 10 {
		t.Fatalf("shard bounds do not cover the word range: %v", bounds[:5])
	}
	for w := 0; w < 4; w++ {
		if bounds[w] > bounds[w+1] {
			t.Fatalf("shard bounds not monotone: %v", bounds[:5])
		}
	}
	wordops.PutI32(bounds)
}
