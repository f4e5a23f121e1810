// Package bigmod provides the modular big-integer arithmetic that underlies
// the SDB secret-sharing scheme: modular exponentiation and inversion,
// random element and prime generation, and the signed-value embedding that
// maps bounded application integers into Z_n.
//
// All functions treat *big.Int arguments as immutable and return fresh
// values, so callers may share inputs across goroutines.
package bigmod

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
)

var (
	one = big.NewInt(1)
	two = big.NewInt(2)
)

// ErrNotInvertible is returned when a modular inverse does not exist because
// the operand shares a factor with the modulus.
var ErrNotInvertible = errors.New("bigmod: operand not invertible modulo n")

// Exp returns base^exp mod n. It panics if n is nil or non-positive, which
// indicates a programming error rather than a data error.
func Exp(base, exp, n *big.Int) *big.Int {
	if n == nil || n.Sign() <= 0 {
		panic("bigmod: modulus must be positive")
	}
	return new(big.Int).Exp(base, exp, n)
}

// Mul returns a*b mod n.
func Mul(a, b, n *big.Int) *big.Int {
	r := new(big.Int).Mul(a, b)
	return r.Mod(r, n)
}

// Add returns a+b mod n.
func Add(a, b, n *big.Int) *big.Int {
	r := new(big.Int).Add(a, b)
	return r.Mod(r, n)
}

// Sub returns a-b mod n, always in [0, n).
func Sub(a, b, n *big.Int) *big.Int {
	r := new(big.Int).Sub(a, b)
	return r.Mod(r, n)
}

// Inv returns the modular multiplicative inverse of a modulo n, or
// ErrNotInvertible if gcd(a, n) != 1.
func Inv(a, n *big.Int) (*big.Int, error) {
	r := new(big.Int).ModInverse(a, n)
	if r == nil {
		return nil, fmt.Errorf("%w: gcd(%s, n) != 1", ErrNotInvertible, a.String())
	}
	return r, nil
}

// Rand returns a uniformly random integer in [1, n).
func Rand(n *big.Int) (*big.Int, error) {
	if n.Cmp(two) < 0 {
		return nil, errors.New("bigmod: modulus too small for random draw")
	}
	max := new(big.Int).Sub(n, one)
	r, err := rand.Int(rand.Reader, max)
	if err != nil {
		return nil, fmt.Errorf("bigmod: random draw: %w", err)
	}
	return r.Add(r, one), nil
}

// RandInvertible returns a uniformly random element of Z_n^* (co-prime with
// n). For an RSA modulus the rejection rate is negligible.
func RandInvertible(n *big.Int) (*big.Int, error) {
	gcd := new(big.Int)
	for i := 0; i < 4096; i++ {
		r, err := Rand(n)
		if err != nil {
			return nil, err
		}
		if gcd.GCD(nil, nil, r, n).Cmp(one) == 0 {
			return r, nil
		}
	}
	return nil, errors.New("bigmod: could not find invertible element (modulus degenerate?)")
}

// RandPrime returns a random prime with exactly bits bits.
func RandPrime(bits int) (*big.Int, error) {
	if bits < 8 {
		return nil, fmt.Errorf("bigmod: prime width %d too small", bits)
	}
	p, err := rand.Prime(rand.Reader, bits)
	if err != nil {
		return nil, fmt.Errorf("bigmod: prime generation: %w", err)
	}
	return p, nil
}

// Coprime reports whether gcd(a, n) == 1.
func Coprime(a, n *big.Int) bool {
	return new(big.Int).GCD(nil, nil, a, n).Cmp(one) == 0
}
