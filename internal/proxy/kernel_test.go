package proxy

import (
	"context"
	"fmt"
	"math/big"
	"strings"
	"sync"
	"testing"

	"sdb/internal/bigmod"
	"sdb/internal/engine"
	"sdb/internal/secure"
	"sdb/internal/types"
)

// tamperExec is a hostile (or buggy) service provider: it answers every
// SELECT honestly and lets the test corrupt the first batch its cursor
// hands the proxy (the fixtures are smaller than one batch, so that is the
// whole result).
type tamperExec struct {
	Executor
	tamper func(*engine.Result)
}

func (e tamperExec) PrepareStream(sql string) (engine.PreparedStmt, error) {
	stmt, err := e.Executor.PrepareStream(sql)
	if err != nil {
		return nil, err
	}
	return tamperStmt{PreparedStmt: stmt, tamper: e.tamper}, nil
}

type tamperStmt struct {
	engine.PreparedStmt
	tamper func(*engine.Result)
}

func (s tamperStmt) Query(ctx context.Context) (engine.RowIterator, error) {
	it, err := s.PreparedStmt.Query(ctx)
	if err != nil {
		return nil, err
	}
	return &tamperRows{RowIterator: it, tamper: s.tamper}, nil
}

type tamperRows struct {
	engine.RowIterator
	tamper func(*engine.Result)
}

func (r *tamperRows) NextBatch() ([]types.Row, error) {
	rows, err := r.RowIterator.NextBatch()
	if err == nil && r.tamper != nil {
		r.tamper(&engine.Result{Rows: rows})
		r.tamper = nil
	}
	return rows, err
}

// firstCell returns the first cell of row 0 that satisfies pick.
func firstCell(res *engine.Result, pick func(types.Value) bool) *types.Value {
	for c := range res.Rows[0] {
		if pick(res.Rows[0][c]) {
			return &res.Rows[0][c]
		}
	}
	panic("no such cell")
}

func isShare(v types.Value) bool { return v.K == types.KindShare }

// TestHostileSPResultsError: a result the plan cannot decrypt — a share
// cell without payload (wire.Value{K: share, IsSet: false} decodes to
// B == nil), a share outside [0, n), a mangled row-id or AVG count cell, a
// short row — must end in an error on the streaming and the materialising
// path alike. Each of these panicked (nil dereference, index out of range)
// or silently reduced before the row kernel validated its cells.
//
// So must a well-formed share in [0, n) that is not the stored one: it
// decrypts to a residue of share · item key that fails the int64 check,
// and the error must not print it — one such value is an item key, two of
// them for one cell factor n once decryption runs modulo p₁.
func TestHostileSPResultsError(t *testing.T) {
	p, eng := bankSystem(t)
	n := p.secret.N()
	lastShare := func(res *engine.Result) *types.Value { // the hidden row-id cell trails the row
		row := res.Rows[0]
		return &row[len(row)-1]
	}
	var honest types.Row // row 0 as the SP had it, before forge replaced its share
	forge := func(ve *big.Int) func(*engine.Result) {
		return func(r *engine.Result) {
			honest = append(types.Row(nil), r.Rows[0]...)
			firstCell(r, isShare).B = ve
		}
	}
	forged := []*big.Int{big.NewInt(424242), new(big.Int).Sub(n, big.NewInt(999983))}
	cases := []struct {
		name, sql string
		tamper    func(*engine.Result)
		forged    *big.Int // the share forge planted, if it did
	}{
		{"forged share, streaming", `SELECT balance FROM accounts`, forge(forged[0]), forged[0]},
		{"a second forged share of the same cell", `SELECT balance FROM accounts`, forge(forged[1]), forged[1]},
		{"forged share, materialising", `SELECT balance FROM accounts ORDER BY balance`, forge(forged[0]), forged[0]},
		{"row-keyed share without payload", `SELECT balance FROM accounts`,
			func(r *engine.Result) { firstCell(r, isShare).B = nil }, nil},
		{"row-keyed share == n", `SELECT balance FROM accounts`,
			func(r *engine.Result) { firstCell(r, isShare).B = new(big.Int).Set(n) }, nil},
		{"negative share", `SELECT balance FROM accounts`,
			func(r *engine.Result) { firstCell(r, isShare).B = big.NewInt(-5) }, nil},
		{"row id without payload", `SELECT balance FROM accounts`,
			func(r *engine.Result) { lastShare(r).B = nil }, nil},
		{"row id of the wrong kind", `SELECT balance FROM accounts`,
			func(r *engine.Result) { *lastShare(r) = types.NewInt(7) }, nil},
		{"row id outside the SIES modulus", `SELECT balance FROM accounts`,
			func(r *engine.Result) { lastShare(r).B = new(big.Int).Lsh(big.NewInt(1), 200) }, nil},
		{"flat share without payload", `SELECT SUM(balance) FROM accounts`,
			func(r *engine.Result) { firstCell(r, isShare).B = nil }, nil},
		{"AVG sum without payload", `SELECT AVG(balance) FROM accounts`,
			func(r *engine.Result) { firstCell(r, isShare).B = nil }, nil},
		{"AVG count of the wrong kind", `SELECT AVG(balance) FROM accounts`,
			func(r *engine.Result) {
				*firstCell(r, func(v types.Value) bool { return v.K == types.KindInt }) = types.NewString("5")
			}, nil},
		{"short row, streaming", `SELECT id, balance FROM accounts`,
			func(r *engine.Result) { r.Rows[2] = r.Rows[2][:1] }, nil},
		{"short row, materialising", `SELECT id, balance FROM accounts ORDER BY balance`,
			func(r *engine.Result) { r.Rows[2] = r.Rows[2][:1] }, nil},
		{"share without payload, materialising", `SELECT id, balance FROM accounts ORDER BY balance LIMIT 2`,
			func(r *engine.Result) { firstCell(r, isShare).B = nil }, nil},
		{"empty row", `SELECT id, balance FROM accounts ORDER BY balance`,
			func(r *engine.Result) { r.Rows[0] = nil }, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p.exec = tamperExec{Executor: eng, tamper: tc.tamper}
			defer func() { p.exec = eng }()
			res, err := p.Exec(tc.sql)
			if err == nil {
				t.Fatalf("tampered result decrypted to %v", res.Rows)
			}
			leaks := keyMaterial(p, "accounts", "balance")
			if tc.forged != nil {
				leaks = append(leaks, forgedPlaintexts(t, p, honest, tc.forged)...)
			}
			for _, secret := range leaks {
				if strings.Contains(err.Error(), secret) {
					t.Fatalf("error carries key material: %v", err)
				}
			}
		})
	}
	// The honest SP still decrypts, on both paths.
	wantInts(t, colInts(mustP(t, p, `SELECT balance FROM accounts ORDER BY balance`), 0), -200, 300, 1200, 1200, 5000)
}

// forgedPlaintexts renders what the share ve decrypts to in the balance
// cell of the server row honest (balance first, hidden row id last):
// ve · item key modulo n and as the row kernel computes it, in decimal and
// hex. The honest share must decrypt under the same key, or the test is
// looking at the wrong cell.
func forgedPlaintexts(t *testing.T, p *Proxy, honest types.Row, ve *big.Int) []string {
	t.Helper()
	meta, _ := p.store.Get("accounts")
	ck, _ := meta.Key("balance")
	rid, err := p.decryptRowID(honest[len(honest)-1])
	if err != nil {
		t.Fatal(err)
	}
	dec := p.secret.NewDecryptor(ck)
	if v, err := dec.Decrypt(firstCell(&engine.Result{Rows: []types.Row{honest}}, isShare).B, rid); err != nil || !v.IsInt64() {
		t.Fatalf("the honest share does not decrypt under balance's key: %v, %v", v, err)
	}
	kernel, err := dec.Decrypt(ve, rid)
	if err != nil {
		t.Fatal(err)
	}
	if kernel.IsInt64() {
		t.Fatalf("forged share decrypts to the int64 %v: nothing to redact", kernel)
	}
	var out []string
	for _, v := range []*big.Int{kernel, p.secret.Decrypt(ve, rid, ck)} {
		v = new(big.Int).Abs(v)
		out = append(out, v.String(), v.Text(16))
	}
	return out
}

// keyMaterial renders what must never reach a log, an error or the SP of a
// column key: x and m·g^x (the first entry of its table, times m), in
// decimal and hex.
func keyMaterial(p *Proxy, table, col string) []string {
	meta, _ := p.store.Get(table)
	ck, _ := meta.Key(col)
	h := p.secret.ItemKey(secure.RowID{R: big.NewInt(1)}, ck)
	var out []string
	for _, v := range []*big.Int{ck.X, h} {
		out = append(out, v.String(), v.Text(16))
	}
	return out
}

// TestKeyTableStatsAndRedaction: the stats accessor counts the tables the
// proxy's statements touched, and neither it, the rewritten SQL nor the
// plan's formatting shows x or g^x.
func TestKeyTableStatsAndRedaction(t *testing.T) {
	p, _ := bankSystem(t)
	res := mustP(t, p, `SELECT balance, opened FROM accounts`)
	st := p.KeyTableStats()
	// balance, opened and the mask column were encrypted (three tables
	// modulo n); balance and opened were read (two modulo p₁, half the
	// size each); nothing evicted.
	perTable := bigmod.NewFixedBase(big.NewInt(2), p.secret.N(), secure.RowIDBits).Bytes()
	if st.Tables != 5 || st.Builds != 5 || st.Evictions != 0 || st.Bytes != 3*perTable+2*perTable/2 {
		t.Fatalf("KeyTableStats = %+v", st)
	}
	meta, _ := p.store.Get("accounts")
	surfaces := []string{
		fmt.Sprintf("%v %+v", st, st),
		res.Stats.RewrittenSQL,
		fmt.Sprintf("%v %+v", meta.Keys, meta.MaskKey),
	}
	for _, col := range []string{"balance", "opened"} {
		for _, secret := range keyMaterial(p, "accounts", col) {
			for _, s := range surfaces {
				if strings.Contains(s, secret) {
					t.Fatalf("key material of %s in %q", col, s)
				}
			}
		}
	}
}

// TestJoinProductRowIDsPerAlias: a product column whose factors come from
// two aliases draws on both sides' row ids; the rewritten query ships each
// side's row id once however many columns use it, and every row-keyed
// column points at those cells (the kernel decrypts a cell at most once
// per row).
func TestJoinProductRowIDsPerAlias(t *testing.T) {
	p := crossSystem(t)
	stmt, err := p.Prepare(`SELECT h.qty, h.qty * pr.px, pr.px, 3 * h.qty
		FROM holdings h JOIN prices pr ON h.sym = pr.sym ORDER BY h.hid`)
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	out := stmt.plan.out
	if len(out) != 6 || !out[4].hidden || !out[5].hidden {
		t.Fatalf("want 4 visible columns and 2 hidden row ids, got %d columns", len(out))
	}
	h, pr := out[0].rids, out[2].rids
	if len(h) != 1 || len(pr) != 1 || h[0] == pr[0] || h[0] < 4 || pr[0] < 4 {
		t.Fatalf("row-id cells: h=%v pr=%v", h, pr)
	}
	if got := out[1].rids; len(got) != 2 || got[0] != h[0] || got[1] != pr[0] {
		t.Fatalf("product column row ids = %v, want [%d %d]", got, h[0], pr[0])
	}
	if got := out[3].rids; len(got) != 1 || got[0] != h[0] {
		t.Fatalf("second h column row ids = %v, want [%d]", got, h[0])
	}
	res, err := stmt.ExecContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wantInts(t, colInts(res, 0), 10, 5, -2)
	wantInts(t, colInts(res, 1), 1000, 150, -200)
	wantInts(t, colInts(res, 2), 100, 30, 100)
	wantInts(t, colInts(res, 3), 30, 15, -6)
}

// TestDecryptRacesTableBuildsAndRotation: parallel decrypt chunks of
// several cursors race the first touch of a freshly rotated column's table
// while another table's column keeps rotating (each rotation mints an x
// the next read builds a table for). Run under -race by ci.sh.
func TestDecryptRacesTableBuildsAndRotation(t *testing.T) {
	p, _ := testSystem(t)
	p.SetOptions(Options{Parallelism: 4, ChunkSize: 8})
	mustP(t, p, `CREATE TABLE big (id INT, v INT SENSITIVE, w INT SENSITIVE)`)
	mustP(t, p, `CREATE TABLE side (id INT, v INT SENSITIVE)`)
	var vals []string
	for i := 0; i < 96; i++ {
		vals = append(vals, fmt.Sprintf("(%d, %d, %d)", i, i*3, -i))
	}
	mustP(t, p, `INSERT INTO big VALUES `+strings.Join(vals, ", "))
	mustP(t, p, `INSERT INTO side VALUES (1, 11), (2, 22), (3, 33)`)
	// New x's for big: no table exists for them until the readers below
	// all touch them at once.
	for _, col := range []string{"v", "w"} {
		if _, err := p.RotateColumn("big", col); err != nil {
			t.Fatal(err)
		}
	}
	built := p.KeyTableStats().Builds

	var wg sync.WaitGroup
	var sideMu sync.RWMutex // a statement and a rotation of the same table exclude each other
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				res, err := p.Exec(`SELECT id, v, w, v * w FROM big`)
				if err != nil {
					t.Error(err)
					return
				}
				for _, row := range res.Rows {
					if id := row[0].I; row[1].I != id*3 || row[2].I != -id || row[3].I != -3*id*id {
						t.Errorf("row %v decrypted wrong", row)
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			sideMu.Lock()
			_, err := p.RotateColumn("side", "v")
			sideMu.Unlock()
			if err != nil {
				t.Error(err)
				return
			}
			sideMu.RLock()
			res, err := p.Exec(`SELECT v FROM side ORDER BY id`)
			sideMu.RUnlock()
			if err != nil || len(res.Rows) != 3 || res.Rows[2][0].I != 33 {
				t.Errorf("side after rotation %d: %v, %v", i, res, err)
				return
			}
		}
	}()
	wg.Wait()
	// big's new keys — v, w and the product's ⟨m_v·m_w, x_v+x_w⟩ (factors
	// of one alias merge) — and side's six were each built exactly once.
	if got := p.KeyTableStats().Builds - built; got != 9 {
		t.Fatalf("%d tables built during the race, want 9", got)
	}
}
