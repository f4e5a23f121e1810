package secure

import (
	"errors"
	"fmt"
	"math/big"

	"sdb/internal/bigmod"
)

// RowID is the per-row random identifier r drawn by the DO at upload time
// (paper §2.1). It seeds item-key generation and is stored at the SP only
// in SIES-encrypted form plus as the helper w = g^r mod n.
type RowID struct {
	R *big.Int
}

// NewRowID draws a random row id in [1, n).
func (s *Secret) NewRowID() (RowID, error) {
	r, err := bigmod.Rand(s.params.N)
	if err != nil {
		return RowID{}, err
	}
	return RowID{R: r}, nil
}

// NewShortRowID draws a random row id in [1, 2^RowIDBits): the width every
// proxy-uploaded row carries, and the one item keys are cheap at.
func NewShortRowID() (RowID, error) {
	r, err := bigmod.Rand(new(big.Int).Lsh(one, RowIDBits))
	if err != nil {
		return RowID{}, err
	}
	return RowID{R: r}, nil
}

// RowHelper computes w = g^r mod n, the per-row public helper stored at the
// SP. Tokens instruct the SP to raise w to secret-derived exponents; since
// vk = m·w^x, the helper lets the SP re-key shares without knowing g.
func (s *Secret) RowHelper(r RowID) *big.Int {
	return s.gExp(r.R)
}

// gExp returns g^e mod n through g's comb table. g is the one fixed base
// of the scheme — every encrypt and decrypt derives an item key from it —
// so its Secret builds the table on first use and keeps it.
func (s *Secret) gExp(e *big.Int) *big.Int {
	s.gOnce.Do(func() { s.gTable = bigmod.NewFixedBase(s.g, s.params.N, s.params.N.BitLen()) })
	return s.gTable.Exp(e)
}

// ItemKey implements gen(r, ⟨m,x⟩) = m · g^(r·x mod φ(n)) mod n (Def. 1).
// Only the DO can evaluate it: it needs g and φ(n). A row id of at most
// RowIDBits bits — every row id a proxy draws — goes through the column
// key's own comb table as m·(g^x)^r, at most 9 multiplies (keytable.go);
// wider ones take the modulus-wide exponent through g's table.
func (s *Secret) ItemKey(r RowID, ck ColumnKey) *big.Int {
	if r.R.Sign() >= 0 && r.R.BitLen() <= RowIDBits {
		if t := s.keyTable(s.full, ck.X); t != nil {
			ks := s.full.scratch()
			defer s.full.pool.Put(ks)
			copy(ks.acc, s.oneM)
			t.MulExpTo(ks.ms, ks.acc, r.R.Bits())
			z := make([]big.Word, s.full.ctx.Words())
			s.full.ctx.MulBig(ks.ms, z, ks.acc, ck.M)
			return new(big.Int).SetBits(z)
		}
	}
	return bigmod.Mul(ck.M, s.gPow(r.R, ck.X), s.params.N)
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

// DecryptInt64 decrypts and narrows to int64, failing loudly if the
// plaintext does not fit (which indicates share corruption).
func (s *Secret) DecryptInt64(ve *big.Int, r RowID, ck ColumnKey) (int64, error) {
	v := s.Decrypt(ve, r, ck)
	if !v.IsInt64() {
		return 0, fmt.Errorf("secure: decrypted value <%d bits> overflows int64", v.BitLen())
	}
	return v.Int64(), nil
}

// DecryptFlat decrypts a share produced under a flat key (x = 0), such as a
// SUM aggregate or a deterministic tag: the item key is m for every row, so
// no row id is needed.
func (s *Secret) DecryptFlat(ve *big.Int, ck ColumnKey) (*big.Int, error) {
	if ck.X.Sign() != 0 {
		return nil, errors.New("secure: DecryptFlat needs a flat key (x = 0)")
	}
	return s.domain.Decode(bigmod.Mul(ve, ck.M, s.params.N)), nil
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
		return nil, fmt.Errorf("secure: mask %s outside [1, 2^%d)", mask, s.maskWidth)
	}
	vk := s.ItemKey(r, ck)
	inv, err := bigmod.Inv(vk, s.params.N)
	if err != nil {
		return nil, fmt.Errorf("secure: item key not invertible: %w", err)
	}
	return bigmod.Mul(mask, inv, s.params.N), nil
}
