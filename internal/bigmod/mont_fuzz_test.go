package bigmod

import (
	"math/big"
	"testing"
)

// fuzzOddMod derives a usable Montgomery modulus from raw fuzz bytes:
// interpret as a positive integer, force it odd, and require ≥ 2 bits
// (MontCtxFor's own precondition).
func fuzzOddMod(nb []byte) *big.Int {
	n := new(big.Int).SetBytes(nb)
	n.SetBit(n, 0, 1)
	if n.BitLen() < 2 {
		return nil
	}
	return n
}

// FuzzMontMulVsBigInt cross-checks the CIOS REDC core against big.Int
// Mul+Mod over arbitrary operands and moduli, including unreduced and
// limb-boundary-straddling inputs.
func FuzzMontMulVsBigInt(f *testing.F) {
	f.Add([]byte{5}, []byte{7}, []byte{15})
	f.Add([]byte{0}, []byte{1}, []byte{3})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, []byte{2}, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xfd})
	f.Fuzz(func(t *testing.T, ab, bb, nb []byte) {
		n := fuzzOddMod(nb)
		if n == nil {
			t.Skip()
		}
		ctx := MontCtxFor(n)
		if ctx == nil {
			t.Fatalf("MontCtxFor rejected odd n=%v", n)
		}
		a := new(big.Int).SetBytes(ab)
		b := new(big.Int).SetBytes(bb)
		want := Mul(a, b, n)
		if got := montMul(ctx, a, b); got.Cmp(want) != 0 {
			t.Fatalf("montMul(%v, %v) mod %v = %v, want %v", a, b, n, got, want)
		}
		// Round trip while we have the operands.
		s := ctx.NewScratch()
		wantA := new(big.Int).Mod(a, n)
		if got := ctx.FromMont(s, ctx.ToMont(s, a)); got.Cmp(wantA) != 0 {
			t.Fatalf("round trip %v mod %v = %v, want %v", a, n, got, wantA)
		}
	})
}

// FuzzMontExpVsBigInt cross-checks windowed Montgomery exponentiation
// against big.Int.Exp, including negative exponents and the nil result
// for non-invertible bases.
func FuzzMontExpVsBigInt(f *testing.F) {
	f.Add([]byte{2}, []byte{10}, false, []byte{0x03, 0xe9})
	f.Add([]byte{5}, []byte{2}, true, []byte{15})
	f.Add([]byte{0}, []byte{0}, false, []byte{3})
	f.Fuzz(func(t *testing.T, baseb, expb []byte, negExp bool, nb []byte) {
		n := fuzzOddMod(nb)
		if n == nil || len(expb) > 24 {
			t.Skip() // bound exponent width to keep iterations fast
		}
		ctx := MontCtxFor(n)
		if ctx == nil {
			t.Fatalf("MontCtxFor rejected odd n=%v", n)
		}
		base := new(big.Int).SetBytes(baseb)
		exp := new(big.Int).SetBytes(expb)
		if negExp {
			exp.Neg(exp)
		}
		want := new(big.Int).Exp(base, exp, n)
		got := ctx.MontExp(base, exp)
		if (got == nil) != (want == nil) {
			t.Fatalf("MontExp(%v, %v) mod %v nil mismatch: got %v want %v", base, exp, n, got, want)
		}
		if got != nil && got.Cmp(want) != 0 {
			t.Fatalf("MontExp(%v, %v) mod %v = %v, want %v", base, exp, n, got, want)
		}
	})
}
