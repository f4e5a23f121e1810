package secure

import (
	"fmt"
	"math/big"

	"sdb/internal/bigmod"
)

// Token is the only key material the proxy ever ships to the SP. Applied to
// a share ve with row helper w = g^r, the SP computes
//
//	out = P · ve · w^Q mod n
//
// (Q may be negative; w is invertible so w^Q is well defined.) Choosing
// P and Q appropriately yields every key transformation SDB needs:
//
//   - key update ck_A → ck_C:  P = m_A·m_C⁻¹, Q = x_A − x_C
//   - flatten to DET tag:      the special case x_C = 0
//   - reveal (decrypt at SP):  the special case ck_C = ⟨1, 0⟩
//
// A token determines only differences of key components, never a column
// key itself, so possession of tokens does not decrypt columns other than
// those deliberately revealed.
type Token struct {
	// P is the multiplicative component.
	P *big.Int
	// Q is the (possibly negative) exponent applied to the row helper.
	Q *big.Int
}

// String renders the token WITHOUT its key material: P and Q are key
// differences (e.g. m_A·m_C⁻¹ and x_A−x_C), so printing them into a log
// or error message leaks exactly what a token is supposed to protect.
// Only the component widths survive formatting.
func (t Token) String() string {
	return fmt.Sprintf("token{update p=<%d bits> q=<%d bits>}", t.P.BitLen(), t.Q.BitLen())
}

// KeyUpdateToken builds the token transforming shares under from into
// shares under to: P = m_from·m_to⁻¹ mod n, Q = x_from − x_to.
//
// Correctness: ve' = P·ve·w^Q = (m_A/m_C)·v·m_A⁻¹·w^(−x_A)·w^(x_A−x_C)
// = v·(m_C·w^(x_C))⁻¹, a well-formed share under to.
//
// Q stays the integer difference, negative about half the time, although
// Q + φ(n) would give the same powers without an inversion at the SP. The
// flatten tokens already show the SP x_from and x_to, so a reduced Q would
// hand it φ(n), and with φ(n) the factors of n.
func (s *Secret) KeyUpdateToken(from, to ColumnKey) (Token, error) {
	if !from.valid(s.params.N) || to.M == nil || to.X == nil {
		return Token{}, fmt.Errorf("secure: invalid column key in key update")
	}
	mInv, err := bigmod.Inv(to.M, s.params.N)
	if err != nil {
		return Token{}, fmt.Errorf("secure: target key not invertible: %w", err)
	}
	return Token{
		P: bigmod.Mul(from.M, mInv, s.params.N),
		Q: new(big.Int).Sub(from.X, to.X),
	}, nil
}

// RevealToken builds the token that decrypts a column at the SP: the key
// update to ⟨1, 0⟩, i.e. P = m, Q = x. Issuing it is an explicit, audited
// act of disclosure — the comparison protocol only ever reveals masked
// differences, never raw columns, unless the query's answer itself is the
// column.
func (s *Secret) RevealToken(ck ColumnKey) (Token, error) {
	if !ck.valid(s.params.N) {
		return Token{}, fmt.Errorf("secure: invalid column key in reveal")
	}
	return Token{
		P: new(big.Int).Set(ck.M),
		Q: new(big.Int).Set(ck.X),
	}, nil
}

// ApplyToken is the SP-side UDF: out = P·ve·w^Q mod n. It uses only
// public material — the token, the
// stored share and the stored row helper. It is the scalar definition the
// engine's row programs (internal/engine/shareprog.go) are held to: w^Q
// comes from the helper-power memo (a row helper touched by several tokens
// of one exponent, in one query or across queries, is raised once), then
// one-REDC multiplies by ve and P; a Q = 0 token is a multiply by P alone.
// It returns nil when t.Q is negative and w is not invertible modulo n
// (mirroring big.Int.Exp); stored helpers are always invertible, so a nil
// here means corrupt or adversarial inputs.
func ApplyToken(t Token, ve, w, n *big.Int) *big.Int {
	mc := bigmod.MontCtxFor(n)
	if mc == nil {
		return applyPlain(t, ve, w, n)
	}
	ms := mc.NewScratch()
	var yM []big.Word // ToMont(w^Q); nil for Q = 0, where w^Q = 1
	if pt := NewPowerSet(n, t.Q); pt != nil {
		var hits int64
		var err error
		yM, err = pt.Lookup(ms, &hits, w)
		FlushHelperPowerHits(&hits)
		if err != nil {
			return nil
		}
	}
	// A Montgomery-form operand times a normal-form one is the normal-form
	// product in one REDC.
	z := make([]big.Word, mc.Words())
	if yM == nil {
		mc.MulBig(ms, z, mc.ToMont(ms, t.P), ve) // P·ve
	} else {
		mc.MulBig(ms, z, yM, ve)               // y·ve
		mc.MulTo(ms, z, mc.ToMont(ms, t.P), z) // P·y·ve
	}
	return new(big.Int).SetBits(z)
}

// applyPlain is the big.Int form of ApplyToken, for moduli without a
// Montgomery context. It returns nil when Q is negative and w is not
// invertible.
func applyPlain(t Token, ve, w, n *big.Int) *big.Int {
	out := bigmod.Exp(w, t.Q, n)
	if out == nil {
		return nil
	}
	return bigmod.Mul(bigmod.Mul(out, t.P, n), ve, n)
}

// errNotInvertible is the non-invertible-helper failure of a negative
// exponent, wrapping bigmod.ErrNotInvertible.
func errNotInvertible() error {
	return fmt.Errorf("secure: helper not invertible under negative-exponent token: %w",
		bigmod.ErrNotInvertible)
}
