package bigmod

import (
	"errors"
	"fmt"
	"math/big"
)

// Domain embeds bounded signed integers into Z_n. Values in [-Bound, Bound]
// map to themselves (non-negative) or to n-|v| (negative). Decoding treats
// residues above n/2 as negative. The secure comparison protocol multiplies
// differences by random positive masks, so the domain keeps a headroom
// budget: |v| * 2^MaskBits must stay below n/2.
type Domain struct {
	n     *big.Int
	half  *big.Int // floor(n/2)
	bound *big.Int // largest encodable magnitude
}

// ErrOutOfDomain is returned when a plaintext exceeds the encodable range.
var ErrOutOfDomain = errors.New("bigmod: value outside signed domain")

// NewDomain builds the signed embedding for modulus n, reserving maskBits of
// multiplicative headroom for comparison masking. valueBits is the magnitude
// budget for application values.
func NewDomain(n *big.Int, valueBits, maskBits int) (*Domain, error) {
	if valueBits <= 0 || maskBits < 0 {
		return nil, fmt.Errorf("bigmod: invalid domain budget (value=%d mask=%d)", valueBits, maskBits)
	}
	need := valueBits + maskBits + 2
	if n.BitLen() <= need {
		return nil, fmt.Errorf("bigmod: modulus of %d bits cannot host %d value bits + %d mask bits", n.BitLen(), valueBits, maskBits)
	}
	bound := new(big.Int).Lsh(one, uint(valueBits))
	return &Domain{
		n:     new(big.Int).Set(n),
		half:  new(big.Int).Rsh(n, 1),
		bound: bound,
	}, nil
}

// N returns the modulus.
func (d *Domain) N() *big.Int { return d.n }

// Bound returns the largest encodable magnitude (2^valueBits).
func (d *Domain) Bound() *big.Int { return d.bound }

// Encode maps a signed integer into Z_n.
func (d *Domain) Encode(v *big.Int) (*big.Int, error) {
	if new(big.Int).Abs(v).Cmp(d.bound) > 0 {
		return nil, fmt.Errorf("%w: a %d-bit magnitude, over the %d-bit bound", ErrOutOfDomain, v.BitLen(), d.bound.BitLen()-1)
	}
	return new(big.Int).Mod(v, d.n), nil
}

// EncodeInt64 is Encode for machine integers.
func (d *Domain) EncodeInt64(v int64) (*big.Int, error) {
	return d.Encode(big.NewInt(v))
}

// Decode maps a residue in [0, n) back to a signed integer: residues above
// n/2 are interpreted as negative.
func (d *Domain) Decode(w *big.Int) *big.Int {
	r := new(big.Int).Mod(w, d.n)
	if r.Cmp(d.half) > 0 {
		r.Sub(r, d.n)
	}
	return r
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
