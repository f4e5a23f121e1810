package bigmod

import (
	"bytes"
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

// FuzzMontMulVsBigInt cross-checks the REDC core, of two operands and of
// one by itself, against big.Int Mul+Mod over arbitrary operands and
// moduli, including unreduced and limb-boundary-straddling inputs, and
// math/big's assembly row kernel against the pure-Go loop.
func FuzzMontMulVsBigInt(f *testing.F) {
	f.Add([]byte{5}, []byte{7}, []byte{15})
	f.Add([]byte{0}, []byte{1}, []byte{3})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, []byte{2}, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xfd})
	wide := bytes.Repeat([]byte{0xff}, 8*montHybridWords) // the hybrid form
	f.Add(wide, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, append(wide[1:], 0xef))
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
		// One operand by itself, in place: a chain step's square, which
		// the hybrid form computes as a square.
		aM := ctx.ToMont(s, a)
		ctx.mulTo(s, aM, aM, aM)
		if got, want := ctx.FromMont(s, aM), Mul(wantA, wantA, n); got.Cmp(want) != 0 {
			t.Fatalf("mulTo(%v, %[1]v) mod %v = %v, want %v", a, n, got, want)
		}
		// The assembly rows the wide reductions run on, against the
		// pure-Go loop: z += x·y over a's limbs, one word of b, and n's
		// limbs as the accumulator.
		x, acc := a.Bits(), padTo(make([]big.Word, len(a.Bits())), n.Bits())
		var y big.Word
		if bw := b.Bits(); len(bw) > 0 {
			y = bw[0]
		}
		acc2 := append([]big.Word(nil), acc...)
		if c, c2 := addMulVVW(acc, x, y), addMulVVWAsm(acc2, x, y); c != c2 || cmpVV(acc, acc2) != 0 {
			t.Fatalf("addMulVVWAsm(%x, %x, %x) = %x, %x; pure Go %x, %x", n.Bits(), x, y, acc2, c2, acc, c)
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
