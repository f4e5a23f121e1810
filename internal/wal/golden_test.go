package wal

import (
	"encoding/hex"
	"errors"
	"math/big"
	"testing"

	"sdb/internal/storage"
	"sdb/internal/types"
)

// TestCodecGoldenRecords pins WAL record payloads byte for byte: the hex
// below was printed by the encoder as it stood before the value codec
// moved into internal/types (PR 15), for the records FuzzWALRecordRoundTrip
// seeds with. A log written then must replay now.
func TestCodecGoldenRecords(t *testing.T) {
	schema, err := types.NewSchema([]types.Column{
		{Name: "id", Type: types.ColumnType{Kind: types.KindInt}},
		{Name: "v", Type: types.ColumnType{Kind: types.KindInt, Sensitive: true}},
		{Name: "s", Type: types.ColumnType{Kind: types.KindString}},
	})
	if err != nil {
		t.Fatal(err)
	}
	share := types.NewShare(new(big.Int).Lsh(big.NewInt(0xbeef), 300))
	const shareHex = "06280beef0" + "00000000000000000000000000000000000000000000000000000000000000000000000000"
	for _, tc := range []struct {
		rec    *Record
		golden string
	}{
		{&Record{Type: recCreate, Gens: storage.Generations{Rotation: 1, Catalog: 2}, Table: "t", Schema: schema},
			"01010201740302696401000001760100010173040000"},
		{&Record{
			Type: recInsert, Gens: storage.Generations{Catalog: 3}, Table: "t",
			Rows:   []types.Row{{types.NewInt(7), share, types.NewString("abc")}, {types.Null, types.Null, types.Null}},
			RowEnc: []*big.Int{new(big.Int).Lsh(big.NewInt(5), 90), nil},
			Helper: []*big.Int{big.NewInt(11), nil},
		}, "0200030174020c140000000000000000000000010b03010e" + shareHex + "0403616263000003000000"},
		{&Record{
			Type: recUpdate, Gens: storage.Generations{Rotation: 9, Catalog: 9}, Table: "t",
			Cols: map[int][]types.Value{1: {share}, 2: {types.NewString("z")}},
		}, "0309090174020101" + shareHex + "020104017a"},
		{&Record{Type: recDrop, Gens: storage.Generations{Catalog: 4}, Table: "t"}, "0400040174"},
	} {
		payload, err := EncodeRecord(tc.rec)
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(payload); got != tc.golden {
			t.Errorf("record type %d bytes changed:\n got %s\nwant %s", tc.rec.Type, got, tc.golden)
		}
		raw, _ := hex.DecodeString(tc.golden)
		back, err := DecodeRecord(raw)
		if err != nil {
			t.Fatalf("golden record type %d does not decode: %v", tc.rec.Type, err)
		}
		if again, err := EncodeRecord(back); err != nil || hex.EncodeToString(again) != tc.golden {
			t.Errorf("golden record type %d does not survive decode + encode (%v)", tc.rec.Type, err)
		}
	}
}

// TestCodecRefusesNegativeShare: a negative big anywhere in a record — a
// share cell, a row id, a helper — fails the encode (and so the commit)
// instead of reaching the log as its magnitude.
func TestCodecRefusesNegativeShare(t *testing.T) {
	neg := big.NewInt(-9)
	for name, rec := range map[string]*Record{
		"share cell": {Type: recInsert, Table: "t", Rows: []types.Row{{types.NewShare(neg)}},
			RowEnc: []*big.Int{big.NewInt(1)}, Helper: []*big.Int{big.NewInt(1)}},
		"row id": {Type: recInsert, Table: "t", Rows: []types.Row{{types.NewInt(1)}},
			RowEnc: []*big.Int{neg}, Helper: []*big.Int{big.NewInt(1)}},
		"helper": {Type: recInsert, Table: "t", Rows: []types.Row{{types.NewInt(1)}},
			RowEnc: []*big.Int{big.NewInt(1)}, Helper: []*big.Int{neg}},
		"updated column": {Type: recUpdate, Table: "t", Cols: map[int][]types.Value{0: {types.NewShare(neg)}}},
	} {
		if _, err := EncodeRecord(rec); !errors.Is(err, types.ErrNegativeShare) {
			t.Errorf("%s: EncodeRecord = %v, want ErrNegativeShare", name, err)
		}
	}
}
