package engine

import (
	"bytes"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"sdb/internal/bigmod"
	"sdb/internal/sqlparser"
	"sdb/internal/storage"
	"sdb/internal/types"
	"sdb/internal/wal"
)

// Key-rotation UPDATEs are ordinary UPDATEs: the SET list compiles into one
// row program per statement, evaluated per chunk of the worker pool. The
// tests here hold the stored shares to a big.Int oracle, P·ve·w^Q mod n,
// byte for byte.

// testPrime draws a deterministic prime of the given width.
func testPrime(r *rand.Rand, bits int) *big.Int {
	for {
		p := new(big.Int).Rand(r, new(big.Int).Lsh(big.NewInt(1), uint(bits)))
		p.SetBit(p, bits-1, 1).SetBit(p, 0, 1)
		if p.ProbablyPrime(20) {
			return p
		}
	}
}

// keyUpdateOracle is P·ve·w^Q mod n by big.Int arithmetic alone (nil when
// w^Q does not exist).
func keyUpdateOracle(p, q, ve, w, n *big.Int) *big.Int {
	y := new(big.Int).Exp(w, q, n)
	if y == nil {
		return nil
	}
	y.Mul(y, p).Mul(y, ve)
	return y.Mod(y, n)
}

// keyUpdateTable is a table of shares v and m with row helpers, and what
// was stored in it.
type keyUpdateTable struct {
	eng    *Engine
	n      *big.Int
	ids    []int64
	vs, ms []*big.Int
	ws     []*big.Int
}

// newKeyUpdateTable creates table enc (id, v, m) with rows random shares
// and helpers modulo n; the helper of row bad (if in range) is the factor
// p of n, so no negative power of it exists.
func newKeyUpdateTable(t *testing.T, eng *Engine, r *rand.Rand, n, p *big.Int, rows, bad int) *keyUpdateTable {
	t.Helper()
	if _, err := eng.ExecuteSQL(`CREATE TABLE enc (id INT, v INT SENSITIVE, m INT SENSITIVE)`); err != nil {
		t.Fatal(err)
	}
	kt := &keyUpdateTable{eng: eng}
	var vals []string
	for i := 0; i < rows; i++ {
		id := int64(i + 1)
		v, m := new(big.Int).Rand(r, n), new(big.Int).Rand(r, n)
		w := new(big.Int).Rand(r, n)
		if i == bad {
			w.Set(p)
		}
		kt.ids = append(kt.ids, id)
		kt.vs, kt.ms, kt.ws = append(kt.vs, v), append(kt.ms, m), append(kt.ws, w)
		vals = append(vals, fmt.Sprintf("(%d, %s, %s, 0x1, %s)", id, hex(v), hex(m), hex(w)))
	}
	sql := "INSERT INTO enc (id, v, m, row_id, sdb_w) VALUES " + strings.Join(vals, ", ")
	if _, err := eng.ExecuteSQL(sql); err != nil {
		t.Fatal(err)
	}
	return kt
}

// column returns the published values of one column of enc.
func (kt *keyUpdateTable) column(t *testing.T, name string) []types.Value {
	t.Helper()
	tab, err := kt.eng.Catalog().Get("enc")
	if err != nil {
		t.Fatal(err)
	}
	return tab.Load().Cols[tab.Schema.Find(name)]
}

// checkShares demands that column name holds want[i] byte for byte.
func checkShares(t *testing.T, got []types.Value, want []*big.Int, name string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("column %s: %d rows, want %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i].K != types.KindShare || !bytes.Equal(got[i].B.Bytes(), want[i].Bytes()) {
			t.Fatalf("column %s row %d: stored %v, oracle %s", name, i, got[i], want[i].Text(16))
		}
	}
}

// TestKeyUpdateStatementShapes runs the UPDATE shapes that apply key
// updates, for tokens of positive, negative and zero exponent, serially and
// on two workers with four-row chunks: the whole-table rotation, the same
// under a WHERE, a SET list mixing a rotation with a plain clause and a
// second rotation of another column, and a key update over a nested
// sdb_mul. Every stored share must equal the big.Int oracle byte for byte,
// and the updated count must be exact.
func TestKeyUpdateStatementShapes(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	p1, p2 := testPrime(r, 256), testPrime(r, 256)
	n := new(big.Int).Mul(p1, p2)
	const rows = 29
	qs := map[string]*big.Int{
		"positive": new(big.Int).Rand(r, n),
		"negative": new(big.Int).Neg(new(big.Int).Rand(r, n)),
		"zero":     new(big.Int),
	}
	type shape struct {
		name  string
		sql   string // %[1]s P, %[2]s Q, %[3]s n
		where func(id int64) bool
		// v and m compute the oracle's new v and m of a passing row.
		v, m  func(ve, me, w *big.Int) *big.Int
		idAdd int64
	}
	var p, q *big.Int
	rot := func(ve, me, w *big.Int) *big.Int { return keyUpdateOracle(p, q, ve, w, n) }
	all := func(int64) bool { return true }
	shapes := []shape{
		{name: "whole-table", where: all, v: rot,
			sql: `UPDATE enc SET v = sdb_keyupdate(v, sdb_w, %[1]s, %[2]s, %[3]s)`},
		{name: "where", where: func(id int64) bool { return id != 7 && id < 25 }, v: rot,
			sql: `UPDATE enc SET v = sdb_keyupdate(v, sdb_w, %[1]s, %[2]s, %[3]s) WHERE id <> 7 AND id < 25`},
		{name: "mixed", where: func(id int64) bool { return id > 4 }, v: rot, idAdd: 1000,
			m: func(ve, me, w *big.Int) *big.Int { return keyUpdateOracle(p, q, me, w, n) },
			sql: `UPDATE enc SET v = sdb_keyupdate(v, sdb_w, %[1]s, %[2]s, %[3]s), id = id + 1000,
				m = sdb_keyupdate(m, sdb_w, %[1]s, %[2]s, %[3]s) WHERE id > 4`},
		{name: "nested-mul", where: all,
			v: func(ve, me, w *big.Int) *big.Int {
				prod := new(big.Int).Mul(ve, me)
				return keyUpdateOracle(p, q, prod.Mod(prod, n), w, n)
			},
			sql: `UPDATE enc SET v = sdb_keyupdate(sdb_mul(v, m, %[3]s), sdb_w, %[1]s, %[2]s, %[3]s)`},
	}
	for _, opts := range []Options{{Parallelism: 1}, {Parallelism: 2, ChunkSize: 4}} {
		for _, qname := range []string{"positive", "negative", "zero"} {
			for _, sh := range shapes {
				name := fmt.Sprintf("par%d-chunk%d/%s/%s", opts.Parallelism, opts.ChunkSize, qname, sh.name)
				t.Run(name, func(t *testing.T) {
					p, q = new(big.Int).Rand(r, n), qs[qname]
					eng := NewWithOptions(storage.NewCatalog(), n, opts)
					kt := newKeyUpdateTable(t, eng, r, n, p1, rows, -1)
					res, err := eng.ExecuteSQL(fmt.Sprintf(sh.sql, hex(p), sqlparser.HexLit{V: q}, hex(n)))
					if err != nil {
						t.Fatal(err)
					}
					wantV := append([]*big.Int(nil), kt.vs...)
					wantM := append([]*big.Int(nil), kt.ms...)
					wantID := append([]int64(nil), kt.ids...)
					var updated int64
					for i, id := range kt.ids {
						if !sh.where(id) {
							continue
						}
						updated++
						wantV[i] = sh.v(kt.vs[i], kt.ms[i], kt.ws[i])
						if sh.m != nil {
							wantM[i] = sh.m(kt.vs[i], kt.ms[i], kt.ws[i])
						}
						wantID[i] += sh.idAdd
					}
					if got := res.Rows[0][0]; got.K != types.KindInt || got.I != updated {
						t.Fatalf("updated = %v, want %d", got, updated)
					}
					checkShares(t, kt.column(t, "v"), wantV, "v")
					checkShares(t, kt.column(t, "m"), wantM, "m")
					for i, got := range kt.column(t, "id") {
						if got.I != wantID[i] {
							t.Fatalf("row %d: id %v, want %d", i, got, wantID[i])
						}
					}
				})
			}
		}
	}
}

// engineGoroutineLedger records the goroutine count and, once the test and
// every cleanup registered after this call have run, insists it is back
// where it was. A test that calls it must not call t.Parallel, so the
// count is the test's own. Call it before anything that registers a
// cleanup.
func engineGoroutineLedger(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				stacks := make([]byte, 1<<16)
				t.Fatalf("%d goroutines outlived the test (started with %d):\n%s",
					runtime.NumGoroutine(), before, stacks[:runtime.Stack(stacks, true)])
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}

// TestKeyUpdateNonInvertibleHelper: a negative-exponent rotation over a
// column whose helpers include one without an inverse (in a middle chunk)
// fails as a whole. The error wraps bigmod.ErrNotInvertible and names
// sdb_keyupdate; the table keeps its published version, the WAL gains no
// record, the rotation generation stays, and no goroutine outlives the
// statement.
func TestKeyUpdateNonInvertibleHelper(t *testing.T) {
	engineGoroutineLedger(t)
	r := rand.New(rand.NewSource(43))
	p1, p2 := testPrime(r, 256), testPrime(r, 256)
	n := new(big.Int).Mul(p1, p2)
	cat := storage.NewCatalog()
	store, err := wal.Open(t.TempDir(), cat, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	eng := NewWithDurability(cat, n, Options{Parallelism: 2, ChunkSize: 4}, store)
	const rows, bad = 37, 18 // chunk 4 of 10
	kt := newKeyUpdateTable(t, eng, r, n, p1, rows, bad)

	tab, err := cat.Get("enc")
	if err != nil {
		t.Fatal(err)
	}
	// Every WAL append writes its frame to the log file before it returns,
	// so an unchanged file size means no record was appended.
	logSize := func() int64 {
		fi, err := os.Stat(store.LogPath())
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	ver, size := tab.Load(), logSize()
	rotGen, catGen := eng.Generations()

	q := new(big.Int).Neg(new(big.Int).Rand(r, n))
	sql := fmt.Sprintf(`UPDATE enc SET v = sdb_keyupdate(v, sdb_w, %s, %s, %s)`,
		hex(new(big.Int).Rand(r, n)), sqlparser.HexLit{V: q}, hex(n))
	_, err = eng.ExecuteSQL(sql)
	if !errors.Is(err, bigmod.ErrNotInvertible) || !strings.Contains(err.Error(), "sdb_keyupdate") {
		t.Fatalf("error %v: want one wrapping bigmod.ErrNotInvertible that names sdb_keyupdate", err)
	}
	if tab.Load() != ver {
		t.Fatal("the failed rotation published a table version")
	}
	if got := logSize(); got != size {
		t.Fatalf("the failed rotation grew the WAL log from %d to %d bytes", size, got)
	}
	if gotRot, gotCat := eng.Generations(); gotRot != rotGen || gotCat != catGen {
		t.Fatalf("generations moved: rotation %d → %d, catalog %d → %d", rotGen, gotRot, catGen, gotCat)
	}
	checkShares(t, kt.column(t, "v"), kt.vs, "v")
}
