package bigmod

import (
	"math/big"
	"math/rand"
	"sync"
	"testing"
)

func randOddMod(r *rand.Rand, bits int) *big.Int {
	n := new(big.Int).Rand(r, new(big.Int).Lsh(big.NewInt(1), uint(bits)))
	n.SetBit(n, 0, 1)      // odd
	n.SetBit(n, bits-1, 1) // full width
	return n
}

func TestMontCtxForRejectsDegenerate(t *testing.T) {
	for _, n := range []*big.Int{
		nil,
		big.NewInt(0),
		big.NewInt(-7),
		big.NewInt(1),
		big.NewInt(10),  // even
		big.NewInt(256), // even, power of two
	} {
		if ctx := MontCtxFor(n); ctx != nil {
			t.Errorf("MontCtxFor(%v) = non-nil, want nil", n)
		}
	}
	if MontCtxFor(big.NewInt(3)) == nil {
		t.Error("MontCtxFor(3) = nil, want context")
	}
}

// montMul is a·b mod n the way the product computes it: a into the
// domain, one REDC by b in the normal domain, which lands the product
// outside it.
func montMul(ctx *MontCtx, a, b *big.Int) *big.Int {
	s := ctx.NewScratch()
	aM := ctx.ToMont(s, a)
	ctx.MulBig(s, aM, aM, b)
	return new(big.Int).SetBits(aM)
}

func TestMontCtxCached(t *testing.T) {
	n := big.NewInt(1000033) // no other test uses this modulus
	a := MontCtxFor(n)
	b := MontCtxFor(new(big.Int).Set(n))
	if a == nil || a != b {
		t.Fatalf("expected cached identical context, got %p vs %p", a, b)
	}
}

func TestMontRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, bits := range []int{8, 64, 65, 256, 512, 1024} {
		n := randOddMod(r, bits)
		ctx := MontCtxFor(n)
		if ctx == nil {
			t.Fatalf("no ctx for %d-bit odd modulus", bits)
		}
		s := ctx.NewScratch()
		for i := 0; i < 50; i++ {
			v := new(big.Int).Rand(r, n)
			got := ctx.FromMont(s, ctx.ToMont(s, v))
			if got.Cmp(v) != 0 {
				t.Fatalf("bits=%d round trip: got %v want %v", bits, got, v)
			}
		}
		// Edge values: 0, 1, n-1, and an unreduced/negative input.
		for _, v := range []*big.Int{
			big.NewInt(0),
			big.NewInt(1),
			new(big.Int).Sub(n, big.NewInt(1)),
		} {
			if got := ctx.FromMont(s, ctx.ToMont(s, v)); got.Cmp(v) != 0 {
				t.Fatalf("bits=%d edge round trip: got %v want %v", bits, got, v)
			}
		}
		big2n := new(big.Int).Add(n, big.NewInt(5))
		want := new(big.Int).Mod(big2n, n)
		if got := ctx.FromMont(s, ctx.ToMont(s, big2n)); got.Cmp(want) != 0 {
			t.Fatalf("bits=%d unreduced input: got %v want %v", bits, got, want)
		}
		neg := big.NewInt(-3)
		want = new(big.Int).Mod(neg, n)
		if got := ctx.FromMont(s, ctx.ToMont(s, neg)); got.Cmp(want) != 0 {
			t.Fatalf("bits=%d negative input: got %v want %v", bits, got, want)
		}
	}
}

func TestMontMulMatchesBigInt(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, bits := range []int{8, 64, 256, 512, 2048} {
		n := randOddMod(r, bits)
		ctx := MontCtxFor(n)
		for i := 0; i < 100; i++ {
			a := new(big.Int).Rand(r, n)
			b := new(big.Int).Rand(r, n)
			want := Mul(a, b, n)
			if got := montMul(ctx, a, b); got.Cmp(want) != 0 {
				t.Fatalf("bits=%d montMul(%v,%v) = %v, want %v", bits, a, b, got, want)
			}
		}
	}
}

// TestMontMulAsymmetric pins the load-bearing identity: montMul of a
// Montgomery-form operand and a normal-form operand is the NORMAL-form
// product in one REDC.
func TestMontMulAsymmetric(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	n := randOddMod(r, 512)
	ctx := MontCtxFor(n)
	s := ctx.NewScratch()
	for i := 0; i < 50; i++ {
		a := new(big.Int).Rand(r, n)
		b := new(big.Int).Rand(r, n)
		aM := ctx.ToMont(s, a)
		z := make([]big.Word, ctx.Words())
		ctx.MulBig(s, z, aM, b)
		got := new(big.Int).SetBits(z)
		if want := Mul(a, b, n); got.Cmp(want) != 0 {
			t.Fatalf("asymmetric mul: got %v want %v", got, want)
		}
	}
}

func TestMontExpMatchesBigInt(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for _, bits := range []int{16, 64, 256, 512} {
		n := randOddMod(r, bits)
		ctx := MontCtxFor(n)
		for i := 0; i < 40; i++ {
			base := new(big.Int).Rand(r, n)
			exp := new(big.Int).Rand(r, n)
			if i%3 == 0 {
				exp.Neg(exp)
			}
			want := new(big.Int).Exp(base, exp, n)
			got := ctx.MontExp(base, exp)
			if (got == nil) != (want == nil) {
				t.Fatalf("bits=%d MontExp nil mismatch: got %v want %v", bits, got, want)
			}
			if got != nil && got.Cmp(want) != 0 {
				t.Fatalf("bits=%d MontExp(%v,%v) = %v, want %v", bits, base, exp, got, want)
			}
		}
		// Edge exponents.
		base := new(big.Int).Rand(r, n)
		for _, exp := range []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(16)} {
			want := new(big.Int).Exp(base, exp, n)
			if got := ctx.MontExp(base, exp); got.Cmp(want) != 0 {
				t.Fatalf("bits=%d MontExp edge exp=%v: got %v want %v", bits, exp, got, want)
			}
		}
	}
}

func TestMontExpNonInvertible(t *testing.T) {
	// n = 15, base = 5: gcd(5,15) != 1 so a negative exponent has no
	// answer; big.Int.Exp returns nil and MontExp must match.
	n := big.NewInt(15)
	ctx := MontCtxFor(n)
	got := ctx.MontExp(big.NewInt(5), big.NewInt(-2))
	if got != nil {
		t.Fatalf("MontExp(5, -2) mod 15 = %v, want nil", got)
	}
}

// TestPowersToMatchesBigInt holds the chain to big.Int.Exp: one to six
// exponents of mixed sign and width (one bit, a word, the modulus, wider)
// per call, over the CIOS, assembly-squared and hybrid widths, with bases
// that are zero, one, n−1, past n and non-units.
func TestPowersToMatchesBigInt(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, bits := range []int{64, 200, 512, 1100} {
		n := randOddMod(r, bits)
		n.Mul(n, big.NewInt(3)) // 3 divides n: base 3 is a non-unit
		ctx := MontCtxFor(n)
		s := ctx.NewScratch()
		bases := []*big.Int{new(big.Int), big.NewInt(1), new(big.Int).Sub(n, big.NewInt(1)),
			new(big.Int).Add(n, big.NewInt(5)), big.NewInt(3), new(big.Int).Rand(r, n)}
		for i, w := range bases {
			for e := 1; e <= 6; e++ {
				exps := make([]*big.Int, e)
				for j := range exps {
					switch (i + j) % 4 {
					case 0:
						exps[j] = big.NewInt(1)
					case 1:
						exps[j] = new(big.Int).Rand(r, big.NewInt(1<<62))
					case 2:
						exps[j] = new(big.Int).Rand(r, n)
					default:
						exps[j] = new(big.Int).Rand(r, new(big.Int).Lsh(n, 70))
					}
					if r.Intn(3) == 0 {
						exps[j].Neg(exps[j])
					}
				}
				out := make([][]big.Word, e)
				for j := range out {
					out[j] = make([]big.Word, ctx.Words())
				}
				ok, refused := ctx.PowersTo(s, out, w, exps), false
				for j, q := range exps {
					want := new(big.Int).Exp(w, q, n)
					if want == nil {
						refused = true
						continue
					}
					if ok {
						if got := ctx.FromMont(s, out[j]); got.Cmp(want) != 0 {
							t.Fatalf("%d bits, base %d, %d exponents: power %d = %v, want %v", bits, i, e, j, got, want)
						}
					}
				}
				if ok == refused {
					t.Fatalf("%d bits, base %d, %d exponents: ok %v, big.Int.Exp refused one: %v", bits, i, e, ok, refused)
				}
			}
		}
	}
}

// batchInv inverts xs modulo n through InvertAll, in and out of the
// Montgomery domain.
func batchInv(xs []*big.Int, n *big.Int) ([]*big.Int, bool) {
	ctx := MontCtxFor(n)
	s := ctx.NewScratch()
	ms := make([][]big.Word, len(xs))
	for i, x := range xs {
		ms[i] = ctx.ToMont(s, x)
	}
	if !ctx.InvertAll(s, ms) {
		for i, x := range xs { // unchanged on failure
			if ctx.FromMont(s, ms[i]).Cmp(new(big.Int).Mod(x, n)) != 0 {
				panic("InvertAll changed its input on failure")
			}
		}
		return nil, false
	}
	out := make([]*big.Int, len(xs))
	for i := range ms {
		out[i] = ctx.FromMont(s, ms[i])
	}
	return out, true
}

func TestBatchInv(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, bits := range []int{64, 256, 1100} { // CIOS and hybrid
		n := randOddMod(r, bits)
		xs := make([]*big.Int, 33)
		for i := range xs {
			for {
				x := new(big.Int).Rand(r, n)
				if Coprime(x, n) {
					xs[i] = x
					break
				}
			}
		}
		invs, ok := batchInv(xs, n)
		if !ok {
			t.Fatalf("%d bits: units refused", bits)
		}
		for i, inv := range invs {
			if Mul(xs[i], inv, n).Cmp(big.NewInt(1)) != 0 {
				t.Fatalf("%d bits, element %d: x·inv != 1", bits, i)
			}
		}
		if out, ok := batchInv(nil, n); !ok || len(out) != 0 {
			t.Fatalf("empty batch: got %v, %v", out, ok)
		}
	}
}

func TestBatchInvNotInvertible(t *testing.T) {
	n := big.NewInt(15)
	xs := []*big.Int{big.NewInt(2), big.NewInt(5), big.NewInt(4)} // gcd(5,15)=5
	if _, ok := batchInv(xs, n); ok {
		t.Fatal("expected a refusal for a batch containing 5 mod 15")
	}
	xs = []*big.Int{big.NewInt(2), big.NewInt(0)}
	if _, ok := batchInv(xs, n); ok {
		t.Fatal("expected a refusal for a batch containing 0")
	}
}

// TestMontConcurrentSharedCtx hammers one shared context from many
// goroutines (each with its own scratch) under -race: contexts are
// immutable after construction, scratches are private.
func TestMontConcurrentSharedCtx(t *testing.T) {
	n := randOddMod(rand.New(rand.NewSource(6)), 512)
	ctx := MontCtxFor(n)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			s := ctx.NewScratch()
			for i := 0; i < 200; i++ {
				a := new(big.Int).Rand(r, n)
				b := new(big.Int).Rand(r, n)
				aM := ctx.ToMont(s, a)
				z := make([]big.Word, ctx.Words())
				ctx.MulBig(s, z, aM, b)
				if got := new(big.Int).SetBits(z); got.Cmp(Mul(a, b, n)) != 0 {
					t.Errorf("concurrent mul mismatch")
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

// TestMontCombMatchesPlain checks the Montgomery-domain comb table against
// plain Exp at the hybrid-multiply width, both exponent signs.
func TestMontCombMatchesPlain(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	n := randOddMod(r, 1024)
	base := new(big.Int).Rand(r, n)
	fb := NewFixedBase(base, n, n.BitLen())
	for i := 0; i < 8; i++ {
		e := new(big.Int).Rand(r, n)
		if i%2 == 1 {
			e.Neg(e)
		}
		want := new(big.Int).Exp(base, e, n)
		if got := fb.Exp(e); (got == nil) != (want == nil) || (got != nil && got.Cmp(want) != 0) {
			t.Fatalf("iter %d: got %v want %v", i, got, want)
		}
	}
}

// TestRedcMatchesBigInt: Redc(v) is v·R⁻¹ mod n over the whole input range
// [0, n·R) — on the CIOS and the hybrid side of montHybridWords — and
// refuses anything outside it.
func TestRedcMatchesBigInt(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, bits := range []int{8, 64, 65, 256, 1024, 1100} {
		n := randOddMod(r, bits)
		ctx := MontCtxFor(n)
		s := ctx.NewScratch()
		bigR := new(big.Int).Lsh(big.NewInt(1), uint(ctx.Words()*montWordBits))
		rInv := new(big.Int).ModInverse(bigR, n)
		top := new(big.Int).Mul(n, bigR) // exclusive
		z := make([]big.Word, ctx.Words())
		check := func(v *big.Int) {
			t.Helper()
			if !ctx.Redc(s, z, v) {
				t.Fatalf("bits=%d: Redc refused %d-bit input below n·R", bits, v.BitLen())
			}
			want := new(big.Int).Mul(v, rInv)
			if got := new(big.Int).SetBits(append([]big.Word(nil), z...)); got.Cmp(want.Mod(want, n)) != 0 {
				t.Fatalf("bits=%d: Redc(%v) = %v, want %v", bits, v, got, want)
			}
		}
		for _, v := range []*big.Int{big.NewInt(0), big.NewInt(1), n, bigR, new(big.Int).Sub(top, big.NewInt(1))} {
			check(v)
		}
		for i := 0; i < 50; i++ {
			check(new(big.Int).Rand(r, top))
		}
		for _, v := range []*big.Int{big.NewInt(-1), top, new(big.Int).Lsh(top, 70)} {
			if ctx.Redc(s, z, v) {
				t.Fatalf("bits=%d: Redc accepted an input outside [0, n·R)", bits)
			}
		}
	}
}

// TestInt128Centred: Int128 reads a residue as math/big's centred decode
// does — at zero, the int64 and int128 edges and one past them on either
// side, the middle of the modulus and random residues — and allocates
// nothing.
func TestInt128Centred(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	two127 := new(big.Int).Lsh(big.NewInt(1), 127)
	lo128, hi128 := new(big.Int).Neg(two127), new(big.Int).Sub(two127, big.NewInt(1))
	for _, bits := range []int{66, 127, 129, 256, 1024} {
		n := randOddMod(r, bits)
		ctx := MontCtxFor(n)
		half := new(big.Int).Rsh(n, 1)
		z := make([]big.Word, ctx.Words())
		check := func(v *big.Int) {
			t.Helper()
			res := new(big.Int).Mod(v, n)
			padTo(z, res.Bits())
			want := new(big.Int).Set(res)
			if want.Cmp(half) > 0 {
				want.Sub(want, n)
			}
			fits := want.Cmp(lo128) >= 0 && want.Cmp(hi128) <= 0
			hi, lo, ok := ctx.Int128(z)
			got := new(big.Int).Lsh(big.NewInt(hi), 64)
			got.Add(got, new(big.Int).SetUint64(lo))
			if ok != fits || (ok && got.Cmp(want) != 0) {
				t.Fatalf("bits=%d: Int128(residue of %v) = %v, %v", bits, want, got, ok)
			}
		}
		two63 := new(big.Int).Lsh(big.NewInt(1), 63)
		for _, v := range []*big.Int{
			big.NewInt(0), big.NewInt(1), big.NewInt(-1),
			big.NewInt(1<<63 - 1), big.NewInt(-1 << 63), two63, new(big.Int).Neg(new(big.Int).Add(two63, big.NewInt(1))),
			new(big.Int).Lsh(big.NewInt(1), 64), new(big.Int).Neg(new(big.Int).Lsh(big.NewInt(1), 64)),
			lo128, hi128, two127, new(big.Int).Sub(lo128, big.NewInt(1)),
			half, new(big.Int).Add(half, big.NewInt(1)),
		} {
			check(v)
		}
		for i := 0; i < 200; i++ {
			check(big.NewInt(r.Int63() - r.Int63()))
			check(new(big.Int).Rand(r, n))
			check(new(big.Int).Sub(new(big.Int).Rand(r, two127), new(big.Int).Rand(r, two127)))
		}
		padTo(z, big.NewInt(12345).Bits())
		if a := testing.AllocsPerRun(50, func() { ctx.Int128(z) }); a != 0 {
			t.Fatalf("bits=%d: Int128 allocates %v times", bits, a)
		}
	}
}
