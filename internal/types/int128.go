package types

import (
	"encoding/binary"
	"errors"
	"math/big"
	"math/bits"
)

// ErrOverflow reports an integer SUM or AVG whose value does not fit an
// int64. It names no value: the inputs may be SENSITIVE plaintexts.
var ErrOverflow = errors.New("types: integer result overflows int64")

// Int128 is a signed 128-bit integer in two's complement, the accumulator
// of integer SUM and AVG: fewer than 2^64 int64 terms cannot wrap it, so a
// sum is exact whatever order its terms are added and its partial sums
// merged in, and it overflows only if its final value does not fit.
type Int128 struct {
	Hi int64
	Lo uint64
}

// Int128Of returns v sign-extended to 128 bits.
func Int128Of(v int64) Int128 { return Int128{Hi: v >> 63, Lo: uint64(v)} }

// Int128OfBig returns v as an Int128, or false when it does not fit.
func Int128OfBig(v *big.Int) (Int128, bool) {
	n := v.BitLen() // of |v|
	if n > 127 && (v.Sign() > 0 || n > 128 || v.TrailingZeroBits() != 127) {
		return Int128{}, false // only −2^127 is 128 bits wide and fits
	}
	var b [16]byte
	new(big.Int).Abs(v).FillBytes(b[:])
	hi, lo := binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:])
	if v.Sign() < 0 {
		var br uint64
		lo, br = bits.Sub64(0, lo, 0)
		hi, _ = bits.Sub64(0, hi, br)
	}
	return Int128{Hi: int64(hi), Lo: lo}, true
}

// Add adds v.
func (a *Int128) Add(v int64) { a.Merge(Int128Of(v)) }

// Merge adds b.
func (a *Int128) Merge(b Int128) {
	lo, c := bits.Add64(a.Lo, b.Lo, 0)
	a.Hi += b.Hi + int64(c)
	a.Lo = lo
}

// Int64 returns a as an int64, or ErrOverflow when it does not fit.
func (a Int128) Int64() (int64, error) {
	if a.Hi != int64(a.Lo)>>63 {
		return 0, ErrOverflow
	}
	return int64(a.Lo), nil
}

// MeanX100 returns a·100 / count truncated toward zero — a mean with two
// extra decimal digits, the convention of AVG over integers and decimals
// at the SP and the DO alike — or ErrOverflow when it does not fit an
// int64. count must not be zero.
func (a Int128) MeanX100(count int64) (int64, error) {
	if count == 0 {
		return 0, errors.New("types: mean of zero rows")
	}
	neg := a.Hi < 0
	hi, lo := uint64(a.Hi), a.Lo
	if neg { // the magnitude, as an unsigned 128-bit value
		var b uint64
		lo, b = bits.Sub64(0, lo, 0)
		hi, _ = bits.Sub64(0, hi, b)
	}
	mh, ml := bits.Mul64(lo, 100)
	ph, pl := bits.Mul64(hi, 100)
	hi, c := bits.Add64(pl, mh, 0)
	if ph != 0 || c != 0 {
		return 0, ErrOverflow
	}
	d := uint64(count)
	if count < 0 {
		d, neg = -d, !neg
	}
	if hi >= d { // the quotient has a high word
		return 0, ErrOverflow
	}
	q, _ := bits.Div64(hi, ml, d)
	switch {
	case neg && q <= 1<<63:
		return int64(-q), nil // two's complement: q = 2^63 gives −2^63
	case !neg && q < 1<<63:
		return int64(q), nil
	}
	return 0, ErrOverflow
}
