// Package types defines the value and schema model shared by the SDB proxy
// and the service-provider engine: typed SQL values (integers, fixed-point
// decimals, dates, strings, booleans), encrypted shares, rows and schemas.
//
// Numeric values are all backed by int64: decimals are scaled integers
// (scale tracked in the column type / expression metadata, not in the
// value), and dates are days since the Unix epoch. This is what lets every
// numeric column be encrypted under the SDB scheme uniformly.
package types

import (
	"encoding/binary"
	"fmt"
	"math/big"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates value kinds.
type Kind uint8

const (
	// KindNull is the SQL NULL.
	KindNull Kind = iota
	// KindInt is a 64-bit integer.
	KindInt
	// KindDecimal is a fixed-point decimal stored as a scaled integer.
	KindDecimal
	// KindDate is a calendar date stored as days since 1970-01-01.
	KindDate
	// KindString is a UTF-8 string.
	KindString
	// KindBool is a boolean.
	KindBool
	// KindShare is an SDB encrypted share (element of Z_n).
	KindShare
)

func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindDecimal:
		return "DECIMAL"
	case KindDate:
		return "DATE"
	case KindString:
		return "STRING"
	case KindBool:
		return "BOOL"
	case KindShare:
		return "SHARE"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Numeric reports whether the kind is int64-backed and thus encryptable
// under the SDB scheme.
func (k Kind) Numeric() bool {
	return k == KindInt || k == KindDecimal || k == KindDate
}

// Value is a single SQL value. The zero Value is NULL.
type Value struct {
	K Kind
	// I backs Int, Decimal (scaled), Date (epoch days) and Bool (0/1).
	I int64
	// S backs String.
	S string
	// B backs Share.
	B *big.Int
}

// Convenience constructors.

// NewInt returns an INT value.
func NewInt(v int64) Value { return Value{K: KindInt, I: v} }

// NewDecimal returns a DECIMAL value from an already-scaled integer.
func NewDecimal(scaled int64) Value { return Value{K: KindDecimal, I: scaled} }

// NewDate returns a DATE value from epoch days.
func NewDate(days int64) Value { return Value{K: KindDate, I: days} }

// NewString returns a STRING value.
func NewString(s string) Value { return Value{K: KindString, S: s} }

// NewBool returns a BOOL value.
func NewBool(b bool) Value {
	var i int64
	if b {
		i = 1
	}
	return Value{K: KindBool, I: i}
}

// NewShare returns a SHARE value wrapping an encrypted residue.
func NewShare(b *big.Int) Value { return Value{K: KindShare, B: b} }

// Null is the NULL value.
var Null = Value{}

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.K == KindNull }

// Bool returns the boolean interpretation; NULL is false.
func (v Value) Bool() bool { return v.K == KindBool && v.I != 0 }

// DateFromTime converts a time to a DATE value (UTC calendar day).
func DateFromTime(t time.Time) Value {
	return NewDate(t.UTC().Unix() / 86400)
}

// ParseDate parses YYYY-MM-DD into a DATE value.
func ParseDate(s string) (Value, error) {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return Null, fmt.Errorf("types: bad date %q: %w", s, err)
	}
	return DateFromTime(t), nil
}

// FormatDate renders a DATE value as YYYY-MM-DD.
func FormatDate(v Value) string {
	var buf [16]byte
	return string(AppendDate(buf[:0], v))
}

// AppendDate appends FormatDate(v) to dst.
func AppendDate(dst []byte, v Value) []byte {
	return time.Unix(v.I*86400, 0).UTC().AppendFormat(dst, "2006-01-02")
}

// Compare orders two values of compatible kinds: -1, 0, +1. NULL sorts
// before everything; shares compare by residue (used only for
// deterministic-tag grouping, where residue equality is value equality).
func (v Value) Compare(o Value) int {
	if v.K == KindNull || o.K == KindNull {
		switch {
		case v.K == KindNull && o.K == KindNull:
			return 0
		case v.K == KindNull:
			return -1
		default:
			return 1
		}
	}
	switch v.K {
	case KindString:
		return strings.Compare(v.S, o.S)
	case KindShare:
		return v.B.Cmp(o.B)
	default:
		switch {
		case v.I < o.I:
			return -1
		case v.I > o.I:
			return 1
		default:
			return 0
		}
	}
}

// Equal reports deep equality including kind.
func (v Value) Equal(o Value) bool {
	if v.K != o.K {
		return false
	}
	switch v.K {
	case KindNull:
		return true
	case KindString:
		return v.S == o.S
	case KindShare:
		return v.B.Cmp(o.B) == 0
	default:
		return v.I == o.I
	}
}

// AppendGroupKey appends the value's hash-key encoding (GROUP BY, DISTINCT,
// hash join) to dst: the kind byte, then nothing for NULL, the 8 bytes of I
// for the int64-backed kinds, or a uvarint length and the raw bytes for
// strings and shares (a share is a residue in [0, n); its magnitude bytes
// carry no leading zeros). Every component is self-delimiting, so the
// concatenation over a value sequence is injective: two sequences encode
// equal exactly when they agree kind for kind and value for value.
func (v Value) AppendGroupKey(dst []byte) []byte {
	dst = append(dst, byte(v.K))
	switch v.K {
	case KindNull:
		return dst
	case KindString:
		dst = binary.AppendUvarint(dst, uint64(len(v.S)))
		return append(dst, v.S...)
	case KindShare:
		return appendMagnitude(dst, v.B)
	default:
		return binary.BigEndian.AppendUint64(dst, uint64(v.I))
	}
}

// GroupKey returns AppendGroupKey's encoding as a map key.
func (v Value) GroupKey() string {
	var buf [48]byte
	return string(v.AppendGroupKey(buf[:0]))
}

// String renders the value for display.
func (v Value) String() string {
	switch v.K {
	case KindNull:
		return "NULL"
	case KindInt:
		return fmt.Sprintf("%d", v.I)
	case KindDecimal:
		return fmt.Sprintf("dec(%d)", v.I)
	case KindDate:
		return FormatDate(v)
	case KindString:
		return v.S
	case KindBool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	case KindShare:
		return "E(" + v.B.Text(16) + ")"
	default:
		return "?"
	}
}

// FormatDecimal renders a scaled decimal with the given scale, e.g.
// FormatDecimal(12345, 2) = "123.45".
func FormatDecimal(scaled int64, scale int) string {
	var buf [24]byte
	return string(AppendDecimal(buf[:0], scaled, scale))
}

// AppendDecimal appends FormatDecimal(scaled, scale) to dst.
func AppendDecimal(dst []byte, scaled int64, scale int) []byte {
	if scale <= 0 {
		return strconv.AppendInt(dst, scaled, 10)
	}
	u := uint64(scaled) // the magnitude, math.MinInt64's included
	if scaled < 0 {
		dst = append(dst, '-')
		u = -u
	}
	whole, frac := uint64(0), u
	if scale < 20 { // 10^20 is past every uint64
		pow := uint64(1)
		for i := 0; i < scale; i++ {
			pow *= 10
		}
		whole, frac = u/pow, u%pow
	}
	dst = append(strconv.AppendUint(dst, whole, 10), '.')
	var buf [20]byte
	digits := strconv.AppendUint(buf[:0], frac, 10)
	for i := len(digits); i < scale; i++ {
		dst = append(dst, '0')
	}
	return append(dst, digits...)
}
