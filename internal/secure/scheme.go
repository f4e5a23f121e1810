package secure

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"math/big"

	"sdb/internal/bigmod"
)

// RowID is the per-row random identifier r drawn by the DO at upload time
// (paper §2.1): a machine word below 2^RowIDBits. It seeds item-key
// generation and is stored at the SP only in SIES-encrypted form plus as
// the helper w = g^r mod n. It is the word a Decryptor takes.
type RowID = uint64

// RowIDBits is the width of every row id: the proxy encrypts them for
// storage at the SP with SIES under the modulus 2^RowIDBits, and it is the
// exponent width every comb table of the secret covers — g's and each
// column key's — so DO-side cost per share is proportional to it.
const RowIDBits = 62

// NewRowID draws a row id uniformly from [1, 2^RowIDBits).
func (s *Secret) NewRowID() (RowID, error) {
	var b [8]byte
	for {
		if _, err := rand.Read(b[:]); err != nil {
			return 0, err
		}
		if r := binary.LittleEndian.Uint64(b[:]) >> (64 - RowIDBits); r != 0 {
			return r, nil
		}
	}
}

// RowHelper computes w = g^r mod n, the per-row public helper stored at the
// SP. Tokens instruct the SP to raise w to secret-derived exponents; since
// vk = m·w^x, the helper lets the SP re-key shares without knowing g.
// g's comb table is built on first use and covers RowIDBits, like every
// key table; a wider word takes the plain path and is just as exact.
func (s *Secret) RowHelper(r RowID) *big.Int {
	s.gOnce.Do(func() { s.gTable = bigmod.NewFixedBase(s.g, s.params.N, RowIDBits) })
	return s.gTable.Exp(new(big.Int).SetUint64(r))
}

// ItemKey implements gen(r, ⟨m,x⟩) = m · g^(r·x mod φ(n)) mod n (Def. 1).
// Only the DO can evaluate it: it needs g and φ(n). It goes through the
// column key's own comb table as m·(g^x)^r, at most 9 multiplies
// (keytable.go). Moduli without a Montgomery form, flat and malformed keys
// (x ≤ 0) and words of 2^RowIDBits or more take the exponent r·x mod φ(n)
// by square-and-multiply instead, so every input has its exact item key.
func (s *Secret) ItemKey(r RowID, ck ColumnKey) *big.Int {
	var t *bigmod.FixedBase
	if r>>RowIDBits == 0 {
		t = s.keyTable(s.full, ck.X)
	}
	return s.itemKey(r, ck, t)
}

// itemKey is ItemKey with ck.X's modulo-n table already resolved: t is
// s.keyTable(s.full, ck.X), or nil for the square-and-multiply path.
func (s *Secret) itemKey(r RowID, ck ColumnKey, t *bigmod.FixedBase) *big.Int {
	if t == nil || r>>RowIDBits != 0 {
		return bigmod.Mul(ck.M, s.gPow(r, ck.X), s.params.N)
	}
	ks := s.full.scratch()
	defer s.full.pool.Put(ks)
	copy(ks.acc, s.oneM)
	e := wordsOf(r)
	t.MulExpTo(ks.ms, ks.acc, e[:])
	z := make([]big.Word, s.full.ctx.Words())
	s.full.ctx.MulBig(ks.ms, z, ks.acc, ck.M)
	return new(big.Int).SetBits(z)
}

// Encrypt implements E(v, vk) = v·vk⁻¹ mod n (Def. 2) for a signed
// application value v under row r and column key ck.
func (s *Secret) Encrypt(v *big.Int, r RowID, ck ColumnKey) (*big.Int, error) {
	enc, err := s.domain.Encode(v)
	if err != nil {
		return nil, err
	}
	vk := s.ItemKey(r, ck)
	inv, err := bigmod.Inv(vk, s.params.N)
	if err != nil {
		return nil, fmt.Errorf("secure: item key not invertible (degenerate column key?): %w", err)
	}
	return bigmod.Mul(enc, inv, s.params.N), nil
}

// EncryptInt64 is Encrypt for machine integers.
func (s *Secret) EncryptInt64(v int64, r RowID, ck ColumnKey) (*big.Int, error) {
	return s.Encrypt(big.NewInt(v), r, ck)
}

// Decrypt implements D(ve, vk) = ve·vk mod n (Eq. 4) and decodes the result
// back into the signed domain. It is the scalar definition and stays modulo
// n for every secret; result rows go through a Decryptor.
func (s *Secret) Decrypt(ve *big.Int, r RowID, ck ColumnKey) *big.Int {
	vk := s.ItemKey(r, ck)
	return s.domain.Decode(bigmod.Mul(ve, vk, s.params.N))
}

// NewMaskValue draws the random positive multiplier used by the comparison
// protocol: uniform in [1, 2^maskWidth). Multiplying a difference by it
// hides the magnitude while preserving sign and zero-ness.
func (s *Secret) NewMaskValue() (*big.Int, error) {
	m, err := bigmod.Rand(s.maskBound())
	if err != nil {
		return nil, err
	}
	return m, nil
}

// EncryptMask encrypts a comparison mask under row r and column key ck.
// Masks live in the mask headroom budget, not the signed value domain, so
// they bypass the domain bound check; they must still be positive and
// below the mask bound so that (A−B)·mask cannot wrap past n/2.
func (s *Secret) EncryptMask(mask *big.Int, r RowID, ck ColumnKey) (*big.Int, error) {
	if mask.Sign() <= 0 || mask.Cmp(s.maskBound()) >= 0 {
		return nil, fmt.Errorf("secure: mask <%d bits> outside [1, 2^%d)", mask.BitLen(), s.maskWidth)
	}
	vk := s.ItemKey(r, ck)
	inv, err := bigmod.Inv(vk, s.params.N)
	if err != nil {
		return nil, fmt.Errorf("secure: item key not invertible: %w", err)
	}
	return bigmod.Mul(mask, inv, s.params.N), nil
}
