package storage

import (
	"math/big"
	"testing"

	"sdb/internal/types"
)

// RowAt materialises row i of the published version (copy).
func (t *Table) RowAt(i int) types.Row { return t.cur.Load().RowAt(i) }

func testSchema(t *testing.T) types.Schema {
	t.Helper()
	s, err := types.NewSchema([]types.Column{
		{Name: "id", Type: types.ColumnType{Kind: types.KindInt}},
		{Name: "v", Type: types.ColumnType{Kind: types.KindInt, Sensitive: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestAppendAndRowAt(t *testing.T) {
	tbl := NewTable("t", testSchema(t))
	row := types.Row{types.NewInt(1), types.NewShare(big.NewInt(99))}
	if err := tbl.Append(row, big.NewInt(7), big.NewInt(8)); err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 1 {
		t.Fatal("row count")
	}
	got := tbl.RowAt(0)
	if got[0].I != 1 || got[1].B.Int64() != 99 {
		t.Errorf("row: %v", got)
	}
	v := tbl.Load()
	if v.RowEnc[0].Int64() != 7 || v.Helper[0].Int64() != 8 {
		t.Error("auxiliaries not stored")
	}
	if v.Gen != 1 {
		t.Errorf("generation after one append = %d, want 1", v.Gen)
	}
}

// TestVersionImmutability pins the MVCC contract: a pinned version is
// unaffected by later appends and column swaps, each publish bumps the
// generation exactly once, and an append batch is all-or-nothing.
func TestVersionImmutability(t *testing.T) {
	tbl := NewTable("t", testSchema(t))
	if err := tbl.Append(types.Row{types.NewInt(1), types.NewShare(big.NewInt(10))}, big.NewInt(1), big.NewInt(1)); err != nil {
		t.Fatal(err)
	}
	pinned := tbl.Load()

	if err := tbl.AppendBatch(
		[]types.Row{
			{types.NewInt(2), types.NewShare(big.NewInt(20))},
			{types.NewInt(3), types.NewShare(big.NewInt(30))},
		},
		[]*big.Int{big.NewInt(2), big.NewInt(3)},
		[]*big.Int{big.NewInt(2), big.NewInt(3)},
	); err != nil {
		t.Fatal(err)
	}
	if err := tbl.SwapCols(map[int][]types.Value{
		0: {types.NewInt(100), types.NewInt(200), types.NewInt(300)},
	}); err != nil {
		t.Fatal(err)
	}

	if pinned.NumRows() != 1 || pinned.Cols[0][0].I != 1 {
		t.Errorf("pinned version changed under writes: %d rows, id=%v", pinned.NumRows(), pinned.Cols[0][0])
	}
	cur := tbl.Load()
	if cur.Gen != 3 {
		t.Errorf("generation after three publishes = %d, want 3", cur.Gen)
	}
	if cur.NumRows() != 3 || cur.Cols[0][2].I != 300 {
		t.Errorf("current version wrong: %d rows, id[2]=%v", cur.NumRows(), cur.Cols[0][2])
	}

	// A failed batch publishes nothing.
	before := tbl.Load()
	err := tbl.AppendBatch(
		[]types.Row{
			{types.NewInt(4), types.NewShare(big.NewInt(40))},
			{types.NewInt(5), types.NewInt(50)}, // plaintext in sensitive col
		},
		[]*big.Int{big.NewInt(4), big.NewInt(5)},
		[]*big.Int{big.NewInt(4), big.NewInt(5)},
	)
	if err == nil {
		t.Fatal("invalid batch row accepted")
	}
	if got := tbl.Load(); got != before {
		t.Error("failed batch published a version")
	}

	// Swap validation: bad index and bad length are both refused.
	if err := tbl.SwapCols(map[int][]types.Value{7: {}}); err == nil {
		t.Error("out-of-range column swap accepted")
	}
	if err := tbl.SwapCols(map[int][]types.Value{0: {types.NewInt(1)}}); err == nil {
		t.Error("short column swap accepted")
	}
}

func TestAppendValidation(t *testing.T) {
	tbl := NewTable("t", testSchema(t))
	if err := tbl.Append(types.Row{types.NewInt(1)}, nil, nil); err == nil {
		t.Error("arity mismatch should fail")
	}
	// plaintext in sensitive column
	if err := tbl.Append(types.Row{types.NewInt(1), types.NewInt(2)}, nil, nil); err == nil {
		t.Error("plaintext in sensitive column should fail")
	}
	// share in insensitive column
	if err := tbl.Append(types.Row{types.NewShare(big.NewInt(1)), types.NewShare(big.NewInt(2))}, nil, nil); err == nil {
		t.Error("share in insensitive column should fail")
	}
	// NULL is allowed anywhere
	if err := tbl.Append(types.Row{types.Null, types.Null}, nil, nil); err != nil {
		t.Errorf("nulls: %v", err)
	}
}

func TestCatalog(t *testing.T) {
	c := NewCatalog()
	tbl := NewTable("T1", testSchema(t))
	if err := c.Create(tbl); err != nil {
		t.Fatal(err)
	}
	if err := c.Create(NewTable("t1", testSchema(t))); err == nil {
		t.Error("case-insensitive duplicate should fail")
	}
	got, err := c.Get("t1")
	if err != nil || got != tbl {
		t.Errorf("Get: %v %v", got, err)
	}
	if _, err := c.Get("nope"); err == nil {
		t.Error("missing table")
	}
	// Names preserves the declared case ("T1"), not the lookup key.
	if names := c.Names(); len(names) != 1 || names[0] != "T1" {
		t.Errorf("names: %v", names)
	}
	if tables := c.Tables(); len(tables) != 1 || tables[0] != tbl {
		t.Errorf("tables: %v", tables)
	}
	if err := c.Drop("T1"); err != nil {
		t.Fatal(err)
	}
	if err := c.Drop("T1"); err == nil {
		t.Error("double drop should fail")
	}
}
