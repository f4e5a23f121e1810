package secure

import (
	"errors"
	"fmt"
	"math/big"

	"sdb/internal/bigmod"
)

// ColumnKey is the per-column secret ck = ⟨m, x⟩ (paper §2.1). It never
// leaves the DO; the SP only ever sees tokens derived from key differences.
//
// X is kept as a plain integer (not reduced modulo φ(n)): reducing would
// make token exponents uniform on [0, φ), and observing enough of them
// would let the SP estimate φ(n) and factor n. Exponent arithmetic is
// congruent mod φ(n) either way.
type ColumnKey struct {
	M *big.Int
	X *big.Int
}

// Clone returns a deep copy.
func (ck ColumnKey) Clone() ColumnKey {
	return ColumnKey{M: new(big.Int).Set(ck.M), X: new(big.Int).Set(ck.X)}
}

// Equal reports component-wise equality.
func (ck ColumnKey) Equal(other ColumnKey) bool {
	return ck.M.Cmp(other.M) == 0 && ck.X.Cmp(other.X) == 0
}

// String renders a REDACTED description, like Token.String: a column key
// is the secret itself, so only the component widths survive formatting.
func (ck ColumnKey) String() string {
	return fmt.Sprintf("⟨m=<%d bits>, x=<%d bits>⟩", ck.M.BitLen(), ck.X.BitLen())
}

// valid reports whether the key components are in range for modulus n.
func (ck ColumnKey) valid(n *big.Int) bool {
	return ck.M != nil && ck.X != nil &&
		ck.M.Sign() > 0 && ck.M.Cmp(n) < 0 && ck.X.Sign() >= 0
}

// NewColumnKey draws a fresh random column key: m uniform over Z_n^*,
// x uniform over [1, n).
func (s *Secret) NewColumnKey() (ColumnKey, error) {
	m, err := bigmod.RandInvertible(s.params.N)
	if err != nil {
		return ColumnKey{}, err
	}
	x, err := bigmod.Rand(s.params.N)
	if err != nil {
		return ColumnKey{}, err
	}
	return ColumnKey{M: m, X: x}, nil
}

// FlatKey returns a column key with x = 0. Under a flat key the item key is
// m for every row, so shares become deterministic per plaintext: this is
// what the SUM, GROUP BY and equi-JOIN rewrites key-update into.
func (s *Secret) FlatKey() (ColumnKey, error) {
	m, err := bigmod.RandInvertible(s.params.N)
	if err != nil {
		return ColumnKey{}, err
	}
	return ColumnKey{M: m, X: new(big.Int)}, nil
}

// MulKeys returns the column key of the product column: multiplying two
// shares ve_A·ve_B mod n yields a share of A·B under ⟨m_A·m_B, x_A+x_B⟩
// (paper §2.2). This is pure DO-side bookkeeping; the SP does one modular
// multiplication per row and nothing else.
func (s *Secret) MulKeys(a, b ColumnKey) ColumnKey {
	return ColumnKey{
		M: bigmod.Mul(a.M, b.M, s.params.N),
		X: new(big.Int).Add(a.X, b.X),
	}
}

// MulPlainKey returns the column key under which the *unchanged* shares of
// A represent the column c·A. Since ve = v·vk⁻¹, reinterpreting the same ve
// as c·v requires vk' = c·vk, i.e. m' = c·m. The SP does no work at all for
// plaintext multiplication. c must be invertible mod n and non-zero.
func (s *Secret) MulPlainKey(a ColumnKey, c *big.Int) (ColumnKey, error) {
	enc, err := s.domain.Encode(c)
	if err != nil {
		return ColumnKey{}, err
	}
	if enc.Sign() == 0 {
		return ColumnKey{}, errors.New("secure: multiplication by zero must be folded to a literal, not keyed")
	}
	if !bigmod.Coprime(enc, s.params.N) {
		return ColumnKey{}, fmt.Errorf("secure: constant %s not invertible mod n", c)
	}
	return ColumnKey{
		M: bigmod.Mul(a.M, enc, s.params.N),
		X: new(big.Int).Set(a.X),
	}, nil
}

// NegKey returns the column key under which the unchanged shares of A
// represent −A: m' = (n−1)·m, the plaintext-multiplication rule for c = −1.
func (s *Secret) NegKey(a ColumnKey) ColumnKey {
	minusOne := new(big.Int).Sub(s.params.N, one)
	return ColumnKey{
		M: bigmod.Mul(a.M, minusOne, s.params.N),
		X: new(big.Int).Set(a.X),
	}
}
