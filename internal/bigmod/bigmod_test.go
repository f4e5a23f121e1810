package bigmod

import (
	"errors"
	"fmt"
	"math/big"
	"testing"
	"testing/quick"
)

// MustInv is Inv for operands known to be invertible (e.g. values drawn by
// RandInvertible). It panics on failure.
func MustInv(a, n *big.Int) *big.Int {
	r, err := Inv(a, n)
	if err != nil {
		panic(err)
	}
	return r
}

// N returns the modulus.
func (d *Domain) N() *big.Int { return d.n }

// EncodeInt64 is Encode for machine integers.
func (d *Domain) EncodeInt64(v int64) (*big.Int, error) {
	return d.Encode(big.NewInt(v))
}

// DecodeInt64 decodes and converts; it returns an error if the result does
// not fit in an int64 (which indicates either corruption or a mask leak).
// The error gives the value's width only: what decodes out of range is a
// SENSITIVE plaintext or a residue of share · item key.
func (d *Domain) DecodeInt64(w *big.Int) (int64, error) {
	r := d.Decode(w)
	if !r.IsInt64() {
		return 0, fmt.Errorf("bigmod: decoded value <%d bits> exceeds int64", r.BitLen())
	}
	return r.Int64(), nil
}

// Sign reports the sign of the signed interpretation of residue w:
// -1, 0, or +1. The secure comparison protocol reveals only this.
func (d *Domain) Sign(w *big.Int) int {
	return d.Decode(w).Sign()
}

func TestExpKnownValues(t *testing.T) {
	n := big.NewInt(35)
	cases := []struct{ base, exp, want int64 }{
		{2, 2, 4},
		{2, 4, 16},
		{2, 16, 16}, // 65536 mod 35
		{3, 0, 1},
		{10, 1, 10},
	}
	for _, c := range cases {
		got := Exp(big.NewInt(c.base), big.NewInt(c.exp), n)
		if got.Int64() != c.want {
			t.Errorf("Exp(%d,%d,35) = %s, want %d", c.base, c.exp, got, c.want)
		}
	}
}

func TestExpPanicsOnBadModulus(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive modulus")
		}
	}()
	Exp(big.NewInt(2), big.NewInt(2), big.NewInt(0))
}

func TestMulAddSub(t *testing.T) {
	n := big.NewInt(97)
	if got := Mul(big.NewInt(50), big.NewInt(3), n); got.Int64() != 53 {
		t.Errorf("Mul = %s, want 53", got)
	}
	if got := Add(big.NewInt(90), big.NewInt(10), n); got.Int64() != 3 {
		t.Errorf("Add = %s, want 3", got)
	}
	if got := Sub(big.NewInt(3), big.NewInt(10), n); got.Int64() != 90 {
		t.Errorf("Sub = %s, want 90 (wrap into [0,n))", got)
	}
}

func TestInvRoundTrip(t *testing.T) {
	n := big.NewInt(35)
	a := big.NewInt(8) // gcd(8,35)=1
	inv, err := Inv(a, n)
	if err != nil {
		t.Fatalf("Inv: %v", err)
	}
	if got := Mul(a, inv, n); got.Int64() != 1 {
		t.Errorf("a*a^-1 mod n = %s, want 1", got)
	}
}

func TestInvNotInvertible(t *testing.T) {
	if _, err := Inv(big.NewInt(5), big.NewInt(35)); err == nil {
		t.Fatal("expected error for non-invertible operand")
	}
}

func TestMustInvPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustInv(big.NewInt(7), big.NewInt(35))
}

func TestRandRange(t *testing.T) {
	n := big.NewInt(100)
	for i := 0; i < 200; i++ {
		r, err := Rand(n)
		if err != nil {
			t.Fatalf("Rand: %v", err)
		}
		if r.Sign() <= 0 || r.Cmp(n) >= 0 {
			t.Fatalf("Rand out of [1,n): %s", r)
		}
	}
}

func TestRandTooSmall(t *testing.T) {
	if _, err := Rand(big.NewInt(1)); err == nil {
		t.Fatal("expected error for tiny modulus")
	}
}

func TestRandInvertible(t *testing.T) {
	n := big.NewInt(35)
	for i := 0; i < 100; i++ {
		r, err := RandInvertible(n)
		if err != nil {
			t.Fatalf("RandInvertible: %v", err)
		}
		if !Coprime(r, n) {
			t.Fatalf("RandInvertible returned non-coprime %s", r)
		}
	}
}

func TestRandPrime(t *testing.T) {
	p, err := RandPrime(64)
	if err != nil {
		t.Fatalf("RandPrime: %v", err)
	}
	if p.BitLen() != 64 {
		t.Errorf("prime bit length = %d, want 64", p.BitLen())
	}
	if !p.ProbablyPrime(32) {
		t.Errorf("RandPrime returned composite %s", p)
	}
}

func TestRandPrimeTooSmall(t *testing.T) {
	if _, err := RandPrime(4); err == nil {
		t.Fatal("expected error for tiny prime width")
	}
}

func TestCoprime(t *testing.T) {
	if !Coprime(big.NewInt(8), big.NewInt(35)) {
		t.Error("8 and 35 should be coprime")
	}
	if Coprime(big.NewInt(10), big.NewInt(35)) {
		t.Error("10 and 35 should not be coprime")
	}
}

func TestDomainEncodeDecodeRoundTrip(t *testing.T) {
	n, _ := RandPrime(128)
	d, err := NewDomain(n, 32, 40)
	if err != nil {
		t.Fatalf("NewDomain: %v", err)
	}
	for _, v := range []int64{0, 1, -1, 42, -42, 1 << 31, -(1 << 31)} {
		w, err := d.EncodeInt64(v)
		if err != nil {
			t.Fatalf("Encode(%d): %v", v, err)
		}
		got, err := d.DecodeInt64(w)
		if err != nil {
			t.Fatalf("Decode(%d): %v", v, err)
		}
		if got != v {
			t.Errorf("round trip %d -> %d", v, got)
		}
	}
}

func TestDomainRejectsOutOfRange(t *testing.T) {
	n, _ := RandPrime(128)
	d, _ := NewDomain(n, 16, 8)
	if _, err := d.EncodeInt64(1 << 20); err == nil {
		t.Fatal("expected ErrOutOfDomain")
	}
}

func TestDomainRejectsTightModulus(t *testing.T) {
	if _, err := NewDomain(big.NewInt(1<<20), 32, 40); err == nil {
		t.Fatal("expected error: modulus too small for budget")
	}
}

func TestDomainSign(t *testing.T) {
	n, _ := RandPrime(128)
	d, _ := NewDomain(n, 32, 16)
	pos, _ := d.EncodeInt64(123)
	neg, _ := d.EncodeInt64(-77)
	zero, _ := d.EncodeInt64(0)
	if d.Sign(pos) != 1 || d.Sign(neg) != -1 || d.Sign(zero) != 0 {
		t.Errorf("Sign wrong: %d %d %d", d.Sign(pos), d.Sign(neg), d.Sign(zero))
	}
}

func TestDomainRoundTripProperty(t *testing.T) {
	n, _ := RandPrime(256)
	d, _ := NewDomain(n, 62, 64)
	f := func(v int64) bool {
		w, err := d.EncodeInt64(v)
		if err != nil {
			// |v| can exceed the 2^62 bound; rejecting it is the contract.
			return errors.Is(err, ErrOutOfDomain)
		}
		got, err := d.DecodeInt64(w)
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDomainAdditionHomomorphismProperty(t *testing.T) {
	n, _ := RandPrime(256)
	d, _ := NewDomain(n, 62, 64)
	f := func(a, b int32) bool {
		wa, _ := d.EncodeInt64(int64(a))
		wb, _ := d.EncodeInt64(int64(b))
		sum := Add(wa, wb, d.N())
		got, err := d.DecodeInt64(sum)
		return err == nil && got == int64(a)+int64(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDomainMultiplicationProperty(t *testing.T) {
	n, _ := RandPrime(256)
	d, _ := NewDomain(n, 62, 64)
	f := func(a, b int16) bool {
		wa, _ := d.EncodeInt64(int64(a))
		wb, _ := d.EncodeInt64(int64(b))
		prod := Mul(wa, wb, d.N())
		got, err := d.DecodeInt64(prod)
		return err == nil && got == int64(a)*int64(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
