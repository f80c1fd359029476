package aig

import (
	"math/rand"
	"slices"
	"testing"
)

// TestEventQueueMatchesSortedSet property-tests the event queue against a
// sorted, de-duplicated reference set under random push/pop interleavings:
// duplicate pushes, pushes below the last popped id (Arena.Update seeds an
// arbitrary dirty set), and walks abandoned part-way before a Reset to a
// smaller and then a larger size. Every Peek and Pop must return the
// reference's minimum and Len must equal its size.
func TestEventQueueMatchesSortedSet(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var q EventQueue
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(700)
		q.Reset(n)
		var ref []Node // sorted, no duplicates
		push := func(m Node) {
			q.Push(m)
			if i, found := slices.BinarySearch(ref, m); !found {
				ref = slices.Insert(ref, i, m)
			}
		}
		pop := func(step int) {
			if got := q.Peek(); got != ref[0] {
				t.Fatalf("trial %d step %d (n=%d): Peek = %d, want %d", trial, step, n, got, ref[0])
			}
			got := q.Pop()
			if got != ref[0] {
				t.Fatalf("trial %d step %d (n=%d): Pop = %d, want %d", trial, step, n, got, ref[0])
			}
			ref = ref[1:]
		}

		steps := rng.Intn(4 * n)
		// Leave about a third of the walks with queued ids, as a walk that
		// stops early does; the next Reset must forget them.
		abandon := rng.Intn(3) == 0
		for step := 0; step < steps; step++ {
			switch r := rng.Intn(10); {
			case r < 4 || len(ref) == 0:
				push(Node(rng.Intn(n)))
			case r < 5:
				push(ref[rng.Intn(len(ref))]) // duplicate
			case r < 6:
				// Below the cursor: an id smaller than everything queued.
				push(Node(rng.Intn(int(ref[0]) + 1)))
			default:
				pop(step)
			}
			if q.Len() != len(ref) {
				t.Fatalf("trial %d step %d: Len = %d, want %d", trial, step, q.Len(), len(ref))
			}
		}
		if abandon {
			continue
		}
		for step := 0; len(ref) > 0; step++ {
			pop(steps + step)
		}
		if q.Len() != 0 {
			t.Fatalf("trial %d: drained queue has Len %d", trial, q.Len())
		}
	}
}

// TestEventQueueResetAfterAbandonedWalk pins the resize sequence directly:
// a walk abandoned with ids near the top of a large queue, a Reset to a
// smaller size, and a Reset back to a larger one must leave no stale id
// behind in either.
func TestEventQueueResetAfterAbandonedWalk(t *testing.T) {
	var q EventQueue
	q.Reset(1000)
	for _, m := range []Node{3, 64, 500, 999, 998} {
		q.Push(m)
	}
	if got := q.Pop(); got != 3 {
		t.Fatalf("Pop = %d, want 3", got)
	}
	q.Reset(10) // abandons 64, 500, 998, 999
	if q.Len() != 0 {
		t.Fatalf("Len after Reset = %d, want 0", q.Len())
	}
	q.Push(7)
	q.Push(2)
	if a, b := q.Pop(), q.Pop(); a != 2 || b != 7 || q.Len() != 0 {
		t.Fatalf("small queue popped %d, %d (Len %d), want 2, 7 (Len 0)", a, b, q.Len())
	}
	q.Reset(2000)
	q.Push(1500)
	if got := q.Pop(); got != 1500 || q.Len() != 0 {
		t.Fatalf("regrown queue popped %d (Len %d), want 1500 (Len 0)", got, q.Len())
	}
}
