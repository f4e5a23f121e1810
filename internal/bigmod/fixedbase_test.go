package bigmod

import (
	"crypto/rand"
	"math/big"
	"sync"
	"testing"
)

func testModulus(t testing.TB, bits int) *big.Int {
	t.Helper()
	p1, err := RandPrime(bits / 2)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := RandPrime(bits - bits/2)
	if err != nil {
		t.Fatal(err)
	}
	return new(big.Int).Mul(p1, p2)
}

func checkExp(t *testing.T, fb *FixedBase, base, e, n *big.Int) {
	t.Helper()
	want := new(big.Int).Exp(base, e, n)
	got := fb.Exp(e)
	if (got == nil) != (want == nil) {
		t.Fatalf("exp %s: nil divergence got=%v want=%v", e, got, want)
	}
	if got != nil && got.Cmp(want) != 0 {
		t.Fatalf("exp %s: got %s want %s", e, got, want)
	}
}

// TestFixedBaseMatchesExp checks the comb evaluation against big.Int.Exp
// over random exponents at several widths.
func TestFixedBaseMatchesExp(t *testing.T) {
	for _, bits := range []int{64, 256, 512} {
		n := testModulus(t, bits)
		base, err := RandInvertible(n)
		if err != nil {
			t.Fatal(err)
		}
		fb := NewFixedBase(base, n, n.BitLen())
		for i := 0; i < 20; i++ {
			e, err := rand.Int(rand.Reader, n)
			if err != nil {
				t.Fatal(err)
			}
			checkExp(t, fb, base, e, n)
		}
	}
}

// TestFixedBaseEdges covers zero, one, small, negative and
// wider-than-modulus exponents, out-of-range and non-invertible bases, and
// degenerate (even, unit) moduli that have no Montgomery table.
func TestFixedBaseEdges(t *testing.T) {
	n := testModulus(t, 192)
	base, err := RandInvertible(n)
	if err != nil {
		t.Fatal(err)
	}
	wide := new(big.Int).Lsh(n, 70) // exponent wider than the comb table
	wide.Add(wide, big.NewInt(12345))
	exps := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		big.NewInt(2),
		big.NewInt(63),
		big.NewInt(64),
		big.NewInt(-1),
		big.NewInt(-987654321),
		new(big.Int).Sub(n, big.NewInt(1)),
		wide,
		new(big.Int).Neg(wide),
	}
	p, _ := RandPrime(96) // shares no factor with n except by accident
	factor := new(big.Int).Mul(p, big.NewInt(3))
	cases := []struct{ base, n *big.Int }{
		{base, n},
		{new(big.Int).Add(n, big.NewInt(7)), n}, // base ≥ n
		{big.NewInt(0), n},
		{big.NewInt(3), factor},         // not invertible: negative e → nil
		{big.NewInt(5), big.NewInt(14)}, // even modulus
		{big.NewInt(5), big.NewInt(1)},  // unit modulus
	}
	for _, c := range cases {
		fb := NewFixedBase(c.base, c.n, c.n.BitLen())
		for _, e := range exps {
			checkExp(t, fb, c.base, e, c.n)
		}
	}
}

// TestFixedBaseNarrowTable builds a table narrower than the modulus (the
// per-column-key shape: 62-bit exponents) and checks it is sized by its
// width, covers exactly that width, accumulates in the domain through
// MulExpTo, refuses an exponent past its digit rows there, and that Exp
// still answers for exponents past it.
func TestFixedBaseNarrowTable(t *testing.T) {
	n := testModulus(t, 256)
	base, err := RandInvertible(n)
	if err != nil {
		t.Fatal(err)
	}
	const width = 62
	fb := NewFixedBase(base, n, width)
	m := MontCtxFor(n)
	s := m.NewScratch()
	if want := 9 * 127 * m.Words() * montWordBits / 8; fb.Bytes() != want { // ⌈62/7⌉ digit rows of 127 entries
		t.Fatalf("Bytes() = %d, want %d", fb.Bytes(), want)
	}
	top := new(big.Int).Lsh(big.NewInt(1), width)
	v, _ := RandInvertible(n)
	for _, e := range []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(127), big.NewInt(128),
		new(big.Int).Sub(top, big.NewInt(1)), top, new(big.Int).Lsh(top, 3), big.NewInt(-5),
	} {
		checkExp(t, fb, base, e, n)
		if covered := e.Sign() >= 0 && e.BitLen() <= width; fb.Covers(e) != covered {
			t.Fatalf("Covers(%s) = %v", e, !covered)
		} else if covered {
			acc := m.ToMont(s, v)
			fb.MulExpTo(s, acc, e.Bits())
			want := Mul(v, new(big.Int).Exp(base, e, n), n)
			if got := m.FromMont(s, acc); got.Cmp(want) != 0 {
				t.Fatalf("MulExpTo(%s): got %s want %s", e, got, want)
			}
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("MulExpTo took an exponent wider than its table")
			}
		}()
		fb.MulExpTo(s, m.ToMont(s, v), new(big.Int).Lsh(top, 7).Bits()) // past the 9th digit row
	}()
	if even := NewFixedBase(big.NewInt(5), big.NewInt(14), width); even.Covers(big.NewInt(3)) || even.Bytes() != 0 {
		t.Fatal("an even modulus has no table to cover anything")
	}
}

// TestFixedBaseConcurrent evaluates one shared table from many goroutines;
// under -race this is the proof that a built table is read-only.
func TestFixedBaseConcurrent(t *testing.T) {
	n := testModulus(t, 128)
	base, err := RandInvertible(n)
	if err != nil {
		t.Fatal(err)
	}
	fb := NewFixedBase(base, n, n.BitLen())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				e := big.NewInt(int64(w*1000 + i*17 + 1))
				if fb.Exp(e).Cmp(new(big.Int).Exp(base, e, n)) != 0 {
					t.Errorf("mismatch at worker %d exponent %s", w, e)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func BenchmarkExpPlain(b *testing.B) {
	n := testModulus(b, 512)
	base, _ := RandInvertible(n)
	e, _ := rand.Int(rand.Reader, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Exp(base, e, n)
	}
}

func BenchmarkFixedBaseExp(b *testing.B) {
	n := testModulus(b, 512)
	base, _ := RandInvertible(n)
	e, _ := rand.Int(rand.Reader, n)
	fb := NewFixedBase(base, n, n.BitLen())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fb.Exp(e)
	}
}
