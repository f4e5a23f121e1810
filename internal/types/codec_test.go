package types_test

import (
	"bytes"
	"errors"
	"math/big"
	"testing"

	"sdb/internal/spill"
	"sdb/internal/types"
)

// FuzzValueRoundTrip is the codec's one fuzz target: any well-formed
// value, alone and in a row among neighbours, round-trips through the
// slice form, the block form (wire frames) and the stream form (run files,
// WAL records); all three carry identical value bytes; and a value the
// codec cannot represent — an unknown kind, a negative share — is an
// encode error in every form, never a silently altered value.
func FuzzValueRoundTrip(f *testing.F) {
	f.Add(uint8(1), int64(42), "x", []byte{0x01, 0x02}, false, true)
	f.Add(uint8(6), int64(0), "", []byte{0xff, 0x00, 0x7f}, true, true)
	f.Add(uint8(6), int64(0), "", []byte{0x00, 0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09}, false, true)
	f.Add(uint8(6), int64(0), "", []byte{}, false, false)
	f.Add(uint8(0), int64(-1), "null", []byte{}, false, false)
	f.Add(uint8(4), int64(0), "héllo\x00", []byte{}, false, false)
	f.Add(uint8(200), int64(1<<62), "big", []byte{0x80}, true, true)
	f.Fuzz(func(t *testing.T, k uint8, i int64, s string, b []byte, neg, isSet bool) {
		// Only the field the kind selects is part of the value.
		v := types.Value{K: types.Kind(k)}
		switch v.K {
		case types.KindInt, types.KindDecimal, types.KindDate, types.KindBool:
			v.I = i
		case types.KindString:
			v.S = s
		case types.KindShare:
			if isSet {
				v.B = new(big.Int).SetBytes(b)
				if neg {
					v.B.Neg(v.B)
				}
			}
		}
		row := types.Row{types.NewString(s), v, types.NewShare(new(big.Int).SetBytes(b)), v, types.NewInt(i)}
		wellFormed := v.K <= types.KindShare && (v.B == nil || v.B.Sign() >= 0)

		one, err := types.AppendValue([]byte("pre"), v)
		var stream bytes.Buffer
		w := spill.NewWriter(&stream)
		if !wellFormed {
			if err == nil {
				t.Fatalf("malformed value %+v encoded as %x", v, one[3:])
			}
			if len(one) != 3 {
				t.Fatalf("failed AppendValue extended dst to %q", one)
			}
			if blk, err := types.AppendRows(nil, []types.Row{row}); err == nil || len(blk) != 0 {
				t.Fatalf("malformed value inside a block: err=%v, %d bytes", err, len(blk))
			}
			if err := w.WriteRow(row); err == nil {
				t.Fatal("malformed value inside a streamed row accepted")
			}
			if w.Flush(); stream.Len() != 0 {
				t.Fatalf("refused row left %d bytes on the stream", stream.Len())
			}
			return
		}
		if err != nil {
			t.Fatalf("encode %+v: %v", v, err)
		}
		d := types.Decoder{B: one[3:]}
		if got := d.Value(); d.Err != nil || len(d.B) != 0 {
			t.Fatalf("Decoder.Value: %d bytes left, err=%v", len(d.B), d.Err)
		} else {
			checkSame(t, "slice form", got, v)
		}

		rows := []types.Row{row, {}, row[1:2]}
		block, err := types.AppendRows(nil, rows)
		if err != nil {
			t.Fatal(err)
		}
		d = types.Decoder{B: block}
		back := d.Rows()
		if d.Err != nil || len(d.B) != 0 || len(back) != len(rows) {
			t.Fatalf("Decoder.Rows: %d rows, %d bytes left, err=%v", len(back), len(d.B), d.Err)
		}
		w.WriteUvarint(uint64(len(rows)))
		for _, r := range rows {
			if err := w.WriteRow(r); err != nil {
				t.Fatal(err)
			}
		}
		w.Flush()
		if !bytes.Equal(stream.Bytes(), block) {
			t.Fatalf("stream and block forms differ:\n %x\n %x", stream.Bytes(), block)
		}
		rd := spill.NewReader(&stream)
		rd.ReadUvarint()
		for r, want := range rows {
			streamed, err := rd.ReadRow()
			if err != nil || len(streamed) != len(want) || len(back[r]) != len(want) {
				t.Fatalf("row %d: stream %d cells (err=%v), block %d cells, want %d", r, len(streamed), err, len(back[r]), len(want))
			}
			for c := range want {
				checkSame(t, "stream form", streamed[c], want[c])
				checkSame(t, "block form", back[r][c], want[c])
			}
		}
		// Every prefix of a well-formed encoding is short, not something else.
		for cut := 0; cut < len(block); cut++ {
			if d := (types.Decoder{B: block[:cut]}); d.Rows() != nil || d.Err != types.ErrShort {
				t.Fatalf("block cut at %d of %d: %v, want ErrShort", cut, len(block), d.Err)
			}
		}
	})
}

// checkSame compares a decoded value with its source; a nil share decodes
// as zero (the codec's stated convention).
func checkSame(t *testing.T, form string, got, want types.Value) {
	t.Helper()
	if want.K == types.KindShare && want.B == nil {
		want.B = new(big.Int)
	}
	if got.K != want.K || got.I != want.I || got.S != want.S || (got.B == nil) != (want.B == nil) ||
		(got.B != nil && got.B.Cmp(want.B) != 0) {
		t.Fatalf("%s: %+v came back as %+v", form, want, got)
	}
}

func TestCodecRefusesNegativeShare(t *testing.T) {
	neg := big.NewInt(-7)
	if out, err := types.AppendBig([]byte{1}, neg); !errors.Is(err, types.ErrNegativeShare) || len(out) != 1 {
		t.Fatalf("AppendBig(-7): %x, %v", out, err)
	}
	row := types.Row{types.NewInt(1), types.NewShare(neg)}
	if out, err := types.AppendRow([]byte{1}, row); !errors.Is(err, types.ErrNegativeShare) || len(out) != 1 {
		t.Fatalf("AppendRow with a negative share: %x, %v", out, err)
	}
	// nil is the zero-length form and reads back as zero.
	out, err := types.AppendValue(nil, types.NewShare(nil))
	if err != nil || !bytes.Equal(out, []byte{byte(types.KindShare), 0}) {
		t.Fatalf("nil share: %x, %v", out, err)
	}
	d := types.Decoder{B: out}
	if v := d.Value(); d.Err != nil || v.B == nil || v.B.Sign() != 0 {
		t.Fatalf("nil share decoded as %+v, %v", v, d.Err)
	}
}

// TestCodecBlockRowsAreIndependent pins the slab layout's one contract
// with callers: rows and shares of a batch share backing storage, yet
// growing a row or overwriting a share cannot reach a neighbour.
func TestCodecBlockRowsAreIndependent(t *testing.T) {
	wide := new(big.Int).Lsh(big.NewInt(0xabcdef), 500)
	rows := []types.Row{
		{types.NewInt(1), types.NewString("aa"), types.NewShare(big.NewInt(5))},
		{types.NewInt(2), types.NewString("bb"), types.NewShare(wide)},
	}
	block, err := types.AppendRows(nil, rows)
	if err != nil {
		t.Fatal(err)
	}
	d := types.Decoder{B: block}
	got := d.Rows()
	if d.Err != nil {
		t.Fatal(d.Err)
	}
	got[0] = append(got[0], types.NewInt(99))
	got[0][2].B.Lsh(got[0][2].B, 4096) // outgrows its limbs: must reallocate, not spill over
	if got[1][0].I != 2 || got[1][1].S != "bb" || got[1][2].B.Cmp(wide) != 0 {
		t.Fatalf("neighbour row changed: %v", got[1])
	}
}

// TestCodecBlockCountsBoundedByInput: a block whose counts promise more
// than its bytes can hold is short, whatever the counts say — nothing is
// sized from them.
func TestCodecBlockCountsBoundedByInput(t *testing.T) {
	for _, in := range [][]byte{
		{0xff, 0xff, 0xff, 0xff, 0x03},                // 2^30-ish rows, no bytes
		{0x01, 0xff, 0xff, 0xff, 0xff, 0x03},          // one row of 2^30-ish columns
		{0x01, 0x01, 0x06, 0xff, 0xff, 0xff, 0x7f, 1}, // a share of 2^28-ish bytes
	} {
		if d := (types.Decoder{B: in}); d.Rows() != nil || d.Err != types.ErrShort {
			t.Errorf("% x: %v, want ErrShort", in, d.Err)
		}
	}
	for name, in := range map[string][]byte{
		"row count past maxLen": {0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		"unknown kind":          {1, 1, 9},
		"varint overflow":       {1, 1, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
	} {
		if d := (types.Decoder{B: in}); d.Rows() != nil || d.Err == nil || d.Err == types.ErrShort {
			t.Errorf("%s: %v, want a corruption error", name, d.Err)
		}
	}
}
