package engine

import (
	"fmt"
	"math/big"
	"strings"
	"testing"

	"sdb/internal/bigmod"
	"sdb/internal/secure"
	"sdb/internal/sqlparser"
	"sdb/internal/storage"
	"sdb/internal/types"
)

// secureFixture builds an engine with one encrypted table plus the secret
// needed to craft tokens, mimicking what the proxy would ship.
type secureFixture struct {
	eng  *Engine
	s    *secure.Secret
	ck   secure.ColumnKey // key of column "v"
	mask secure.ColumnKey // key of column "m" (encrypted masks)
	vals []int64
}

func newSecureFixture(t *testing.T, vals []int64) *secureFixture {
	t.Helper()
	s, err := secure.Setup(512, 62, 80)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(storage.NewCatalog(), s.N())
	if _, err := eng.ExecuteSQL(`CREATE TABLE enc (id INT, v INT SENSITIVE, m INT SENSITIVE)`); err != nil {
		t.Fatal(err)
	}
	ck, _ := s.NewColumnKey()
	mk, _ := s.NewColumnKey()
	for i, v := range vals {
		rid, _ := s.NewRowID()
		w := s.RowHelper(rid)
		ve, err := s.EncryptInt64(v, rid, ck)
		if err != nil {
			t.Fatal(err)
		}
		mask, _ := s.NewMaskValue()
		me, err := s.EncryptMask(mask, rid, mk)
		if err != nil {
			t.Fatal(err)
		}
		sql := fmt.Sprintf(
			"INSERT INTO enc (id, v, m, row_id, sdb_w) VALUES (%d, 0x%s, 0x%s, 0x1, 0x%s)",
			i+1, ve.Text(16), me.Text(16), w.Text(16))
		if _, err := eng.ExecuteSQL(sql); err != nil {
			t.Fatal(err)
		}
	}
	return &secureFixture{eng: eng, s: s, ck: ck, mask: mk, vals: vals}
}

func hex(v *big.Int) string { return "0x" + v.Text(16) }

// flattenSQL builds the sdb_keyupdate chain flattening column v to flat.
func (f *secureFixture) flattenSQL(col string, from, flat secure.ColumnKey) string {
	tok, _ := f.s.KeyUpdateToken(from, flat)
	return fmt.Sprintf("sdb_keyupdate(%s, sdb_w, %s, %s, %s)",
		col, hex(tok.P), hex(tok.Q), hex(f.s.N()))
}

func TestEngineSecureSumViaSQL(t *testing.T) {
	f := newSecureFixture(t, []int64{10, -3, 42, 1000})
	flat, _ := f.s.FlatKey()
	sql := fmt.Sprintf(`SELECT SUM(%s) FROM enc`, f.flattenSQL("v", f.ck, flat))
	res, err := f.eng.ExecuteSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	// Under a flat key (x = 0) every row's item key is m: any row id
	// decrypts the aggregate.
	got := f.s.Decrypt(res.Rows[0][0].B, 0, flat)
	if got.Int64() != 1049 {
		t.Errorf("SUM = %s, want 1049", got)
	}
}

func TestEngineSdbMinMaxViaSQL(t *testing.T) {
	f := newSecureFixture(t, []int64{10, -3, 42, 1000})
	flat, _ := f.s.FlatKey()
	mflat, _ := f.s.FlatKey()
	reveal := bigmod.Mul(flat.M, mflat.M, f.s.N())
	tagV := f.flattenSQL("v", f.ck, flat)
	tagM := f.flattenSQL("m", f.mask, mflat)
	sql := fmt.Sprintf(`SELECT sdb_min(%s, %s, %s, %s), sdb_max(%s, %s, %s, %s) FROM enc`,
		tagV, tagM, hex(reveal), hex(f.s.N()),
		tagV, tagM, hex(reveal), hex(f.s.N()))
	res, err := f.eng.ExecuteSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	minV := f.s.Decrypt(res.Rows[0][0].B, 0, flat)
	maxV := f.s.Decrypt(res.Rows[0][1].B, 0, flat)
	if minV.Int64() != -3 || maxV.Int64() != 1000 {
		t.Errorf("min/max = %s/%s, want -3/1000", minV, maxV)
	}
}

func TestEngineSdbOrdViaSQL(t *testing.T) {
	// Server-side ORDER BY over encrypted values using the masked pairwise
	// comparator with per-pair mask products: P = m_flat · m_maskflat².
	f := newSecureFixture(t, []int64{10, -3, 42, 1000})
	flat, _ := f.s.FlatKey()
	mflat, _ := f.s.FlatKey()
	p2 := bigmod.Mul(flat.M, bigmod.Mul(mflat.M, mflat.M, f.s.N()), f.s.N())
	sql := fmt.Sprintf(`SELECT id FROM enc ORDER BY sdb_ord(%s, %s, %s, %s)`,
		f.flattenSQL("v", f.ck, flat), f.flattenSQL("m", f.mask, mflat),
		hex(p2), hex(f.s.N()))
	res, err := f.eng.ExecuteSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	// values -3 < 10 < 42 < 1000 → ids 2, 1, 3, 4
	want := []int64{2, 1, 3, 4}
	for i, w := range want {
		if res.Rows[i][0].I != w {
			t.Fatalf("order: %v", res.Rows)
		}
	}
}

func TestEngineSdbSignViaSQL(t *testing.T) {
	// Filter v > 20 entirely in SQL, crafting the tokens by hand.
	f := newSecureFixture(t, []int64{10, -3, 42, 1000})
	flat, _ := f.s.FlatKey()
	mflat, _ := f.s.FlatKey()

	// const tag for 20 under flat
	enc20, _ := f.s.Domain().Encode(big.NewInt(20))
	flatInv := new(big.Int).ModInverse(flat.M, f.s.N())
	if flatInv == nil {
		t.Fatal("flat key not invertible")
	}
	tag20 := bigmod.Mul(enc20, flatInv, f.s.N())
	reveal := bigmod.Mul(flat.M, mflat.M, f.s.N())

	sql := fmt.Sprintf(
		`SELECT id FROM enc WHERE (sdb_sign(sdb_mul(sdb_sub(%s, %s, %s), %s, %s), 0x1, %s, 0x0, %s) = 1) ORDER BY id`,
		f.flattenSQL("v", f.ck, flat), hex(tag20), hex(f.s.N()),
		f.flattenSQL("m", f.mask, mflat), hex(f.s.N()),
		hex(reveal), hex(f.s.N()))
	res, err := f.eng.ExecuteSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].I != 3 || res.Rows[1][0].I != 4 {
		t.Errorf("rows: %v", res.Rows)
	}
}

func TestUDFArgValidation(t *testing.T) {
	f := newSecureFixture(t, []int64{1})
	bad := []string{
		`SELECT sdb_mul(v) FROM enc`,                     // arity
		`SELECT sdb_mul(id, v, 0x1) FROM enc`,            // plaintext where share expected
		`SELECT sdb_keyupdate(v, sdb_w, 0x1) FROM enc`,   // arity
		`SELECT sdb_sign(v, sdb_w, 0x1, 0x0) FROM enc`,   // arity
		`SELECT sdb_scale(v, name, 0x1) FROM enc`,        // no such column
		`SELECT sdb_const(sdb_w, 0x1, 0x0) FROM enc`,     // arity
		`SELECT MIN(v) FROM enc`,                         // shares need sdb_min
		`SELECT sdb_min(v, m, 0x1) FROM enc`,             // arity
		`SELECT id FROM enc ORDER BY sdb_ord(v, m, 0x1)`, // arity
	}
	for _, sql := range bad {
		if _, err := f.eng.ExecuteSQL(sql); err == nil {
			t.Errorf("ExecuteSQL(%q) should fail", sql)
		}
	}
}

func TestShareSumRequiresModulus(t *testing.T) {
	// An engine with no configured modulus must refuse share SUMs rather
	// than return garbage.
	eng := New(storage.NewCatalog(), nil)
	if _, err := eng.ExecuteSQL(`CREATE TABLE e (v INT SENSITIVE)`); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ExecuteSQL(`INSERT INTO e (v, row_id, sdb_w) VALUES (0x5, 0x1, 0x1)`); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ExecuteSQL(`SELECT SUM(v) FROM e`); err == nil ||
		!strings.Contains(err.Error(), "modulus") {
		t.Errorf("expected modulus error, got %v", err)
	}
}

func TestInsertRejectsPlaintextIntoSensitive(t *testing.T) {
	f := newSecureFixture(t, nil)
	if _, err := f.eng.ExecuteSQL(`INSERT INTO enc (id, v, m) VALUES (1, 42, 43)`); err == nil {
		t.Error("plaintext into sensitive column must fail")
	}
	_ = types.Null
}

// TestPruneHelperOnlySecureQuery: a rewritten query may name nothing of a
// table but its hidden row helper (sdb_const materialises a share of a
// constant from it). The scan then keeps that one column of five, and the
// shares match the full-width planner-off scan's, in memory and spilled.
func TestPruneHelperOnlySecureQuery(t *testing.T) {
	vals := make([]int64, 40)
	for i := range vals {
		vals[i] = int64(i)
	}
	f := newSecureFixture(t, vals)
	// sdb_const's token for 77 under f.ck: P·w^Q = 77·m⁻¹·w^(−x), a share
	// of 77 in every row.
	enc77, err := f.s.Domain().Encode(big.NewInt(77))
	if err != nil {
		t.Fatal(err)
	}
	mInv, err := bigmod.Inv(f.ck.M, f.s.N())
	if err != nil {
		t.Fatal(err)
	}
	tok := secure.Token{P: bigmod.Mul(enc77, mInv, f.s.N()), Q: new(big.Int).Neg(f.ck.X), Base: true}
	sql := fmt.Sprintf(`SELECT sdb_const(sdb_w, %s, %s, %s) AS c FROM enc ORDER BY c`,
		hex(tok.P), sqlparser.HexLit{V: tok.Q}, hex(f.s.N()))
	run := func(planner string, budget int) (*Result, ExecStats) {
		opts := spillOptions(budget, t.TempDir())
		opts.Planner = planner
		f.eng.SetOptions(opts)
		return queryWithStats(t, f.eng, sql)
	}
	want, st := run("off", -1)
	if len(want.Rows) != len(vals) || st.ScanCols != 5 || st.TableCols != 5 {
		t.Fatalf("planner off: %d rows, scan kept %d/%d columns", len(want.Rows), st.ScanCols, st.TableCols)
	}
	got, st := run("on", -1)
	if st.ScanCols != 1 || st.TableCols != 5 {
		t.Fatalf("planner on: scan kept %d/%d columns, want 1/5", st.ScanCols, st.TableCols)
	}
	requireSameRows(t, "helper-only, planner on", got, want)
	got, st = run("on", 8)
	if st.Spills == 0 || st.SpilledBytes == 0 {
		t.Fatalf("budget 8 did not spill the sort: %+v", st)
	}
	requireSameRows(t, "helper-only, planner on, spilled", got, want)
}
