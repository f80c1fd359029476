package tt

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestISOPCompletelySpecified(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 6, 8} {
		rng := rand.New(rand.NewSource(int64(n)))
		for trial := 0; trial < 20; trial++ {
			on := randomTable(rng, n)
			cov := ISOP(on, New(n))
			if !cov.Table(n).Equal(on) {
				t.Fatalf("n=%d trial=%d: cover %v does not equal function", n, trial, cov)
			}
		}
	}
}

func TestISOPRespectsInterval(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(8)
		a, b := randomTable(rng, n), randomTable(rng, n)
		on := a.AndNot(b)
		dc := a.And(b)
		cov := ISOP(on, dc)
		f := cov.Table(n)
		// on ⊆ f
		if !on.AndNot(f).IsConst0() {
			t.Fatalf("trial %d: cover misses onset", trial)
		}
		// f ⊆ on ∪ dc
		if !f.AndNot(on.Or(dc)).IsConst0() {
			t.Fatalf("trial %d: cover overlaps offset", trial)
		}
	}
}

func TestISOPIsIrredundant(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(6)
		on := randomTable(rng, n)
		dc := randomTable(rng, n).AndNot(on)
		cov := ISOP(on, dc)
		// Dropping any single cube must uncover part of the onset.
		for i := range cov {
			reduced := make(Cover, 0, len(cov)-1)
			reduced = append(reduced, cov[:i]...)
			reduced = append(reduced, cov[i+1:]...)
			if on.AndNot(reduced.Table(n)).IsConst0() {
				t.Fatalf("trial %d: cube %d (%v) is redundant in %v", trial, i, cov[i], cov)
			}
		}
	}
}

func TestISOPCubesArePrime(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(5)
		on := randomTable(rng, n)
		dc := randomTable(rng, n).AndNot(on)
		upper := on.Or(dc)
		cov := ISOP(on, dc)
		for _, c := range cov {
			// Removing any literal must leave the interval.
			for v := 0; v < n; v++ {
				bit := uint32(1) << uint(v)
				if c.Pos&bit == 0 && c.Neg&bit == 0 {
					continue
				}
				enlarged := c
				enlarged.Pos &^= bit
				enlarged.Neg &^= bit
				if enlarged.Table(n).AndNot(upper).IsConst0() {
					t.Fatalf("trial %d: cube %v is not prime (literal %d removable)", trial, c, v)
				}
			}
		}
	}
}

func TestISOPConstants(t *testing.T) {
	n := 4
	if cov := ISOP(New(n), New(n)); len(cov) != 0 {
		t.Errorf("ISOP(0) = %v, want empty", cov)
	}
	cov := ISOP(Ones(n), New(n))
	if len(cov) != 1 || cov[0].NumLits() != 0 {
		t.Errorf("ISOP(1) = %v, want tautology cube", cov)
	}
	// Onset empty but DC full: the empty cover is a fine choice.
	cov = ISOP(New(n), Ones(n))
	if len(cov) != 0 {
		t.Errorf("ISOP(0,dc=1) = %v, want empty", cov)
	}
}

func TestISOPPaperExample(t *testing.T) {
	// Table II of the ALSRAC paper: inputs u,z; output v̂ with
	// v̂(00)=1, v̂(01)=0, v̂(10)=0, v̂(11)=don't-care.
	// Expected ISOP: ¬u ∧ ¬z (a single NOR cube).
	on := New(2)
	on.Set(0b00, true)
	dc := New(2)
	dc.Set(0b11, true)
	cov := ISOP(on, dc)
	if len(cov) != 1 {
		t.Fatalf("cover = %v, want single cube", cov)
	}
	c := cov[0]
	if c.Pos != 0 || c.Neg != 0b11 {
		t.Fatalf("cube = %v, want u'z' (Pos=0 Neg=3)", c)
	}
}

func TestISOPXor(t *testing.T) {
	n := 3
	f := Var(n, 0).Xor(Var(n, 1)).Xor(Var(n, 2))
	cov := ISOP(f, New(n))
	if len(cov) != 4 {
		t.Fatalf("xor3 ISOP has %d cubes, want 4", len(cov))
	}
	for _, c := range cov {
		if c.NumLits() != 3 {
			t.Fatalf("xor3 cube %v has %d literals", c, c.NumLits())
		}
	}
}

func TestISOPOverlapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for overlapping on/dc")
		}
	}()
	on := Ones(2)
	dc := Ones(2)
	ISOP(on, dc)
}

// Property: the ISOP of a randomly generated interval is always within the
// interval and covers the onset (compact restatement used by quick.Check).
func TestISOPIntervalProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(7)
		on := randomTable(r, n)
		dc := randomTable(r, n).AndNot(on)
		cov := ISOP(on, dc)
		ft := cov.Table(n)
		return on.AndNot(ft).IsConst0() && ft.AndNot(on.Or(dc)).IsConst0()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestISOPOnCareMatchesISOP checks ISOPOnCare against ISOP on every function
// its table holds, the 93 (onset ⊆ care) pairs of at most two variables;
// table entries must be clipped, so a holder's append cannot write into the
// table.
func TestISOPOnCareMatchesISOP(t *testing.T) {
	for k := 0; k <= isopTableMaxVars; k++ {
		bits := 1 << k
		for care := uint64(0); care < 1<<bits; care++ {
			for on := uint64(0); on < 1<<bits; on++ {
				if on&^care != 0 {
					continue
				}
				got := ISOPOnCare(k, on, care)
				if want := ISOP(FromOnCare(k, on, care)); !slices.Equal(got, want) {
					t.Fatalf("k=%d on=%b care=%b: ISOPOnCare %v, ISOP %v", k, on, care, got, want)
				}
				if cap(got) != len(got) {
					t.Fatalf("k=%d on=%b care=%b: table entry has spare capacity %d", k, on, care, cap(got)-len(got))
				}
			}
		}
	}
}

func TestCubeBasics(t *testing.T) {
	c := Cube{}.WithPos(0).WithNeg(2)
	if c.NumLits() != 2 {
		t.Errorf("NumLits = %d", c.NumLits())
	}
	if !c.HasVar(0) || c.HasVar(1) || !c.HasVar(2) {
		t.Errorf("HasVar wrong")
	}
	if c.String() != "ac'" {
		t.Errorf("String = %q", c.String())
	}
	if !c.EvalMinterm(0b001) || c.EvalMinterm(0b101) || c.EvalMinterm(0b000) {
		t.Errorf("EvalMinterm wrong")
	}
	taut := Cube{}
	if !taut.Contains(c) || c.Contains(taut) {
		t.Errorf("Contains wrong")
	}
}

func TestCoverEvalWords(t *testing.T) {
	// f = ab' + c over 3 vars, evaluated bit-parallel on random words.
	cov := Cover{
		Cube{}.WithPos(0).WithNeg(1),
		Cube{}.WithPos(2),
	}
	rng := rand.New(rand.NewSource(3))
	const W = 4
	ins := make([][]uint64, 3)
	for v := range ins {
		ins[v] = make([]uint64, W)
		for i := range ins[v] {
			ins[v][i] = rng.Uint64()
		}
	}
	out := make([]uint64, W)
	cov.EvalWords(ins, W, out)
	for i := 0; i < W; i++ {
		want := (ins[0][i] &^ ins[1][i]) | ins[2][i]
		if out[i] != want {
			t.Fatalf("word %d: got %x want %x", i, out[i], want)
		}
	}
}

func TestCoverString(t *testing.T) {
	if (Cover{}).String() != "0" {
		t.Errorf("empty cover string")
	}
	cov := Cover{Cube{}.WithPos(0), Cube{}.WithNeg(1)}
	if cov.String() != "a + b'" {
		t.Errorf("cover string = %q", cov.String())
	}
}
