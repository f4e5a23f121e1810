package proxy

import (
	"math/big"
	"strings"
	"testing"

	"sdb/internal/types"
)

func TestRotateColumn(t *testing.T) {
	p, eng := bankSystem(t)

	// Snapshot stored shares before rotation.
	tbl, err := eng.Catalog().Get("accounts")
	if err != nil {
		t.Fatal(err)
	}
	balIdx := tbl.Schema.Find("balance")
	ver := tbl.Load()
	before := make([]*big.Int, ver.NumRows())
	for i := range before {
		before[i] = new(big.Int).Set(ver.Cols[balIdx][i].B)
	}
	meta, _ := p.KeyStore().Get("accounts")
	oldKey, _ := meta.Key("balance")

	st, err := p.RotateColumn("accounts", "balance")
	if err != nil {
		t.Fatalf("RotateColumn: %v", err)
	}
	if !strings.Contains(st.RewrittenSQL, "sdb_keyupdate") {
		t.Errorf("rotation SQL: %s", st.RewrittenSQL)
	}

	// Every stored share must have changed (rotation published a new
	// version; the pre-rotation one pinned above is untouched)…
	after := tbl.Load()
	for i := range before {
		if after.Cols[balIdx][i].B.Cmp(before[i]) == 0 {
			t.Fatalf("row %d share unchanged after rotation", i)
		}
	}
	// …the store must hold a new key, published as new metadata (the old
	// metadata is immutable and keeps the old key)…
	newMeta, _ := p.KeyStore().Get("accounts")
	newKey, _ := newMeta.Key("balance")
	if newKey.Equal(oldKey) {
		t.Fatal("key store still holds the old key")
	}
	if k, _ := meta.Key("balance"); !k.Equal(oldKey) {
		t.Fatal("rotation modified the stored metadata in place")
	}
	// …and queries must keep returning the same plaintexts.
	res := mustP(t, p, `SELECT id, balance FROM accounts ORDER BY id`)
	want := []int64{1200, 300, 5000, -200, 1200}
	for i, w := range want {
		if res.Rows[i][1].I != w {
			t.Fatalf("post-rotation balances: %v", res.Rows)
		}
	}
	// Aggregates and comparisons still work under the new key.
	res = mustP(t, p, `SELECT SUM(balance) FROM accounts WHERE balance > 0`)
	if res.Rows[0][0].I != 1200+300+5000+1200 {
		t.Errorf("post-rotation sum: %v", res.Rows)
	}
}

func TestRotateColumnTwice(t *testing.T) {
	p, _ := bankSystem(t)
	if _, err := p.RotateColumn("accounts", "balance"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.RotateColumn("accounts", "balance"); err != nil {
		t.Fatal(err)
	}
	res := mustP(t, p, `SELECT balance FROM accounts WHERE id = 3`)
	if res.Rows[0][0].I != 5000 {
		t.Errorf("after double rotation: %v", res.Rows[0])
	}
}

func TestRotateMask(t *testing.T) {
	p, _ := bankSystem(t)
	if _, err := p.RotateMask("accounts"); err != nil {
		t.Fatal(err)
	}
	// Comparisons use the mask column; they must still be correct.
	res := mustP(t, p, `SELECT id FROM accounts WHERE balance > 1000 ORDER BY id`)
	wantInts(t, colInts(res, 0), 1, 3, 5)
}

func TestRotateValidation(t *testing.T) {
	p, _ := bankSystem(t)
	if _, err := p.RotateColumn("accounts", "owner"); err == nil {
		t.Error("rotating an insensitive column must fail")
	}
	if _, err := p.RotateColumn("nosuch", "x"); err == nil {
		t.Error("unknown table must fail")
	}
	mustP(t, p, `CREATE TABLE plainonly (a INT)`)
	if _, err := p.RotateMask("plainonly"); err == nil {
		t.Error("mask rotation on a plaintext table must fail")
	}
	_ = types.Null
}
