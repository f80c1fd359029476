package tt

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWordCount(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 6: 1, 7: 2, 8: 4, 10: 16, 16: 1024}
	for n, want := range cases {
		if got := WordCount(n); got != want {
			t.Errorf("WordCount(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestVarTables(t *testing.T) {
	for n := 1; n <= 9; n++ {
		for v := 0; v < n; v++ {
			tab := Var(n, v)
			for m := 0; m < 1<<n; m++ {
				want := m>>v&1 == 1
				if tab.Get(m) != want {
					t.Fatalf("Var(%d,%d).Get(%d) = %v, want %v", n, v, m, tab.Get(m), want)
				}
			}
		}
	}
	// VarWord: bit b of word w is pattern 64·w+b, whose bit v is variable v.
	words := []int{1<<17 + 5, 1<<18 - 1, 1 << 18}
	for w := 0; w < 256; w++ {
		words = append(words, w)
	}
	for v := 0; v < 26; v++ {
		for _, w := range words {
			for b := 0; b < 64; b++ {
				if got, want := VarWord(v, w)>>b&1, uint64(64*w+b)>>v&1; got != want {
					t.Fatalf("VarWord(%d, %d) bit %d = %d, want %d", v, w, b, got, want)
				}
			}
		}
	}
}

func TestConstTables(t *testing.T) {
	for n := 0; n <= 8; n++ {
		if !New(n).IsConst0() {
			t.Errorf("New(%d) not const0", n)
		}
		if !Ones(n).IsConst1() {
			t.Errorf("Ones(%d) not const1", n)
		}
		if Ones(n).CountOnes() != 1<<n {
			t.Errorf("Ones(%d) has %d ones", n, Ones(n).CountOnes())
		}
	}
}

func TestBooleanOps(t *testing.T) {
	const n = 7
	a, b := Var(n, 2), Var(n, 6)
	if got := a.And(b).CountOnes(); got != 1<<(n-2) {
		t.Errorf("And count = %d", got)
	}
	if got := a.Or(b).CountOnes(); got != 3<<(n-2) {
		t.Errorf("Or count = %d", got)
	}
	if got := a.Xor(b).CountOnes(); got != 1<<(n-1) {
		t.Errorf("Xor count = %d", got)
	}
	if !a.AndNot(b).Equal(a.And(b.Not())) {
		t.Errorf("AndNot mismatch")
	}
	if !a.Not().Not().Equal(a) {
		t.Errorf("double negation is not identity")
	}
}

func TestSetGet(t *testing.T) {
	tab := New(8)
	tab.Set(100, true)
	tab.Set(255, true)
	if !tab.Get(100) || !tab.Get(255) || tab.Get(99) {
		t.Fatalf("Set/Get inconsistent")
	}
	tab.Set(100, false)
	if tab.Get(100) {
		t.Fatalf("clearing failed")
	}
	if tab.CountOnes() != 1 {
		t.Fatalf("count = %d, want 1", tab.CountOnes())
	}
}

func TestCofactor(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{3, 6, 7, 9} {
		tab := randomTable(rng, n)
		for v := 0; v < n; v++ {
			c0 := tab.Cofactor(v, false)
			c1 := tab.Cofactor(v, true)
			for m := 0; m < 1<<n; m++ {
				m0 := m &^ (1 << v)
				m1 := m | 1<<v
				if c0.Get(m) != tab.Get(m0) {
					t.Fatalf("n=%d v=%d cofactor0 wrong at %d", n, v, m)
				}
				if c1.Get(m) != tab.Get(m1) {
					t.Fatalf("n=%d v=%d cofactor1 wrong at %d", n, v, m)
				}
			}
			if c0.DependsOn(v) || c1.DependsOn(v) {
				t.Fatalf("cofactor still depends on %d", v)
			}
		}
	}
}

func TestDependsOn(t *testing.T) {
	n := 8
	f := Var(n, 1).Xor(Var(n, 7))
	for v := 0; v < n; v++ {
		want := v == 1 || v == 7
		if f.DependsOn(v) != want {
			t.Errorf("DependsOn(%d) = %v", v, f.DependsOn(v))
		}
	}
	if f.SupportSize() != 2 {
		t.Errorf("SupportSize = %d", f.SupportSize())
	}
}

func randomTable(rng *rand.Rand, n int) Table {
	tab := New(n)
	for i := range tab.w {
		tab.w[i] = rng.Uint64()
	}
	tab.trim()
	return tab
}

// Property: De Morgan's law holds for random tables.
func TestDeMorganProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(9)
		a, b := randomTable(r, n), randomTable(r, n)
		return a.And(b).Not().Equal(a.Not().Or(b.Not()))
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: Shannon expansion reconstructs the function.
func TestShannonExpansionProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(9)
		tab := randomTable(r, n)
		v := r.Intn(n)
		x := Var(n, v)
		rebuilt := x.And(tab.Cofactor(v, true)).Or(x.Not().And(tab.Cofactor(v, false)))
		return rebuilt.Equal(tab)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestStringRoundTrip(t *testing.T) {
	f := FromBits(2, 0b0110) // XOR
	if f.String() != "6" {
		t.Errorf("xor2 string = %q, want 6", f.String())
	}
	g := FromBits(4, 0x6996)
	if g.String() != "6996" {
		t.Errorf("xor4 string = %q", g.String())
	}
}

func TestCloneIndependence(t *testing.T) {
	a := Var(6, 2)
	b := a.Clone()
	b.Set(0, !b.Get(0))
	if a.Get(0) == b.Get(0) {
		t.Fatalf("Clone shares storage")
	}
	if a.Words()[0] == b.Words()[0] {
		t.Fatalf("Clone did not copy words")
	}
}

func TestNumBits(t *testing.T) {
	if New(0).NumBits() != 1 || New(5).NumBits() != 32 || New(10).NumBits() != 1024 {
		t.Fatalf("NumBits wrong")
	}
}

func TestNewPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for 17 variables")
		}
	}()
	New(17)
}

func TestVarPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for var out of range")
		}
	}()
	Var(3, 3)
}
