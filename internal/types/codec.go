package types

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"math/bits"
	"strings"
)

// The value codec is the one serialization of values and rows: spill run
// files, WAL records, snapshots and wire frames all carry these bytes
// (internal/spill wraps them in a byte stream, internal/wire in a frame).
// A value is one kind byte followed by a kind-determined payload — nothing
// for NULL, a zigzag varint for the int64-backed kinds, a uvarint length
// and the raw bytes for strings and share magnitudes — and a row is a
// uvarint column count followed by that many values. The encoding is
// positional and self-delimiting; no schema travels with it.
//
// Shares are residues in [0, n): a negative one cannot be represented and
// is an encode error. A nil share encodes as the zero-length magnitude and
// decodes as zero (the convention AppendGroupKey states).

// ErrShort reports that the input ended inside a component. Over a
// stream it means "read more and retry"; over a complete buffer (a wire
// frame, a WAL record) it means the input is truncated.
var ErrShort = errors.New("types: short buffer")

// ErrNegativeShare refuses a big integer the codec cannot represent.
var ErrNegativeShare = errors.New("types: cannot encode negative share")

// maxLen caps any single length or count the decoder will honor. Nothing
// this process writes comes near it, so a larger prefix is corruption —
// and erroring out beats letting a flipped bit drive a stream reader to
// buffer gigabytes before it finds the truncation.
const maxLen = 1 << 30

const wordBytes = bits.UintSize / 8

// The Append functions extend dst with one component. Those that can fail
// return dst unextended on error, so a stream never carries half a row.

// AppendString appends a uvarint length and the bytes of s.
func AppendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// AppendBig appends a non-negative big integer as a uvarint length and
// its big-endian magnitude (nil appends the zero-length form).
func AppendBig(dst []byte, v *big.Int) ([]byte, error) {
	if v != nil && v.Sign() < 0 {
		return dst, ErrNegativeShare
	}
	return appendMagnitude(dst, v), nil
}

// appendMagnitude appends the length-prefixed magnitude of v (nil is
// zero) straight from its limbs, most significant first: FillBytes would
// clear the destination and then walk the same limbs.
func appendMagnitude(dst []byte, v *big.Int) []byte {
	if v == nil {
		return append(dst, 0)
	}
	n := (v.BitLen() + 7) / 8
	dst = binary.AppendUvarint(dst, uint64(n))
	w := v.Bits()
	for i := len(w) - 1; i >= 0; i-- {
		if left := n - i*wordBytes; wordBytes == 8 && left >= 8 {
			dst = binary.BigEndian.AppendUint64(dst, uint64(w[i]))
		} else { // the top limb's significant bytes (every limb on 32-bit)
			for s := (min(left, wordBytes) - 1) * 8; s >= 0; s -= 8 {
				dst = append(dst, byte(w[i]>>s))
			}
		}
	}
	return dst
}

// AppendValue appends one typed value.
func AppendValue(dst []byte, v Value) ([]byte, error) {
	switch v.K {
	case KindNull:
		return append(dst, byte(v.K)), nil
	case KindInt, KindDecimal, KindDate, KindBool:
		return binary.AppendVarint(append(dst, byte(v.K)), v.I), nil
	case KindString:
		return AppendString(append(dst, byte(v.K)), v.S), nil
	case KindShare:
		out, err := AppendBig(append(dst, byte(v.K)), v.B)
		if err != nil {
			return dst, err
		}
		return out, nil
	default:
		return dst, fmt.Errorf("types: cannot encode value kind %s", v.K)
	}
}

// AppendRow appends a column count and every value of the row.
func AppendRow(dst []byte, row Row) ([]byte, error) {
	out := binary.AppendUvarint(dst, uint64(len(row)))
	for _, v := range row {
		var err error
		if out, err = AppendValue(out, v); err != nil {
			return dst, err
		}
	}
	return out, nil
}

// AppendRows appends the block form of a batch: a row count followed by
// the rows.
func AppendRows(dst []byte, rows []Row) ([]byte, error) {
	out := binary.AppendUvarint(dst, uint64(len(rows)))
	for _, row := range rows {
		var err error
		if out, err = AppendRow(out, row); err != nil {
			return dst, err
		}
	}
	return out, nil
}

// Decoder walks a byte slice component by component. The first failure
// sticks in Err and every later read returns a zero value, so callers
// decode straight-line and check once. Err == ErrShort means B ended
// inside a component; nothing is ever sized from a length or count that
// the bytes left in B cannot back.
type Decoder struct {
	B   []byte // the undecoded remainder
	Err error
}

// Byte decodes one raw byte.
func (d *Decoder) Byte() byte {
	if d.Err == nil && len(d.B) == 0 {
		d.Err = ErrShort
	}
	if d.Err != nil {
		return 0
	}
	c := d.B[0]
	d.B = d.B[1:]
	return c
}

// Uvarint decodes one unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	v, n := binary.Uvarint(d.B)
	return d.varint(v, n)
}

// Varint decodes one signed (zigzag) varint.
func (d *Decoder) Varint() int64 {
	v, n := binary.Varint(d.B)
	return int64(d.varint(uint64(v), n))
}

// varint consumes the n bytes binary.Uvarint / Varint took to decode v.
func (d *Decoder) varint(v uint64, n int) uint64 {
	switch {
	case d.Err != nil:
	case n > 0:
		d.B = d.B[n:]
		return v
	case n == 0:
		d.Err = ErrShort
	default:
		d.Err = errors.New("types: varint overflows 64 bits")
	}
	return 0
}

// Count decodes the count of items that follow, each at least one byte
// long, so a count the bytes left cannot hold is ErrShort (or, past
// maxLen, corruption) before anything is allocated from it.
func (d *Decoder) Count(what string) int {
	v := d.Uvarint()
	switch {
	case d.Err != nil:
	case v > maxLen:
		d.Err = fmt.Errorf("types: implausible %s %d", what, v)
	case v > uint64(len(d.B)):
		d.Err = ErrShort
	default:
		return int(v)
	}
	return 0
}

// raw decodes a length-prefixed byte string, aliasing B.
func (d *Decoder) raw() []byte {
	raw := d.B[:d.Count("length")]
	d.B = d.B[len(raw):]
	return raw
}

// Str decodes what AppendString encoded.
func (d *Decoder) Str() string { return string(d.raw()) }

// Big decodes what AppendBig encoded.
func (d *Decoder) Big() *big.Int {
	if raw := d.raw(); d.Err == nil {
		return new(big.Int).SetBytes(raw)
	}
	return nil
}

// scan splits the next value into its parts without allocating: the
// int64 payload, or the raw bytes of a string or share magnitude.
func (d *Decoder) scan() (k Kind, i int64, raw []byte) {
	switch k = Kind(d.Byte()); {
	case d.Err != nil || k == KindNull:
	case k == KindInt, k == KindDecimal, k == KindDate, k == KindBool:
		i = d.Varint()
	case k == KindString, k == KindShare:
		raw = d.raw()
	default:
		d.Err = fmt.Errorf("types: unknown value kind %d", k)
	}
	return k, i, raw
}

// Value decodes one typed value.
func (d *Decoder) Value() Value {
	k, i, raw := d.scan()
	switch {
	case d.Err != nil:
		return Null
	case k == KindString:
		return NewString(string(raw))
	case k == KindShare:
		return NewShare(new(big.Int).SetBytes(raw))
	}
	return Value{K: k, I: i}
}

// Row decodes one row into its own allocation — the form run-file readers
// want, because spilled rows are retained one by one.
func (d *Decoder) Row() Row {
	row := make(Row, d.Count("column count"))
	for c := range row {
		row[c] = d.Value()
	}
	if d.Err != nil {
		return nil
	}
	return row
}

// Rows decodes what AppendRows encoded into per-batch slabs: every value
// of the batch in one []Value (rows are capacity-clipped sub-slices, so an
// append on one cannot touch its neighbour), every string in one backing
// string, every share's limbs in one []big.Word with the big.Int headers
// in another. A first pass validates the block and sizes the slabs from
// the bytes actually present.
func (d *Decoder) Rows() []Row {
	nrows := d.Count("row count")
	var vals, shares, words, strBytes int
	pre := *d
	for r := 0; r < nrows && pre.Err == nil; r++ {
		cols := pre.Count("column count")
		vals += cols
		for c := 0; c < cols && pre.Err == nil; c++ {
			switch k, _, raw := pre.scan(); k {
			case KindString:
				strBytes += len(raw)
			case KindShare:
				shares++
				words += wordsFor(len(raw))
			}
		}
	}
	if d.Err = pre.Err; d.Err != nil || nrows == 0 {
		return nil
	}

	rows := make([]Row, nrows)
	valSlab := make([]Value, vals)
	intSlab := make([]big.Int, shares)
	wordSlab := make([]big.Word, words)
	var strSlab strings.Builder
	strSlab.Grow(strBytes) // never regrows, so earlier substrings stay valid
	for r := range rows {
		cols := d.Count("")
		rows[r], valSlab = valSlab[:cols:cols], valSlab[cols:]
		for c := range rows[r] {
			k, i, raw := d.scan()
			v := Value{K: k, I: i}
			switch k {
			case KindString:
				at := strSlab.Len()
				strSlab.Write(raw)
				v.S = strSlab.String()[at:]
			case KindShare:
				nw := wordsFor(len(raw))
				setWords(wordSlab[:nw], raw)
				v.B = intSlab[0].SetBits(wordSlab[:nw:nw])
				intSlab, wordSlab = intSlab[1:], wordSlab[nw:]
			}
			rows[r][c] = v
		}
	}
	return rows
}

func wordsFor(nbytes int) int { return (nbytes + wordBytes - 1) / wordBytes }

// setWords fills w (little-endian limbs, exactly wordsFor(len(raw)) of
// them) from a big-endian magnitude.
func setWords(w []big.Word, raw []byte) {
	for i := range w {
		end := len(raw) - i*wordBytes
		if wordBytes == 8 && end >= 8 {
			w[i] = big.Word(binary.BigEndian.Uint64(raw[end-8 : end]))
			continue
		}
		var x big.Word
		for _, c := range raw[max(end-wordBytes, 0):end] {
			x = x<<8 | big.Word(c)
		}
		w[i] = x
	}
}
