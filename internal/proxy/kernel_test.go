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
	"sdb/internal/parallel"
	"sdb/internal/race"
	"sdb/internal/secure"
	"sdb/internal/sies"
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
// them for one cell factor n once decryption runs modulo p₁. No error may
// print the row's row id either, nor a forged row-id ciphertext.
func TestHostileSPResultsError(t *testing.T) {
	p, eng := bankSystem(t)
	n := p.secret.N()
	lastShare := func(res *engine.Result) *types.Value { // the hidden row-id cell trails the row
		row := res.Rows[0]
		return &row[len(row)-1]
	}
	forge := func(ve *big.Int) func(*engine.Result) {
		return func(r *engine.Result) { firstCell(r, isShare).B = ve }
	}
	forged := []*big.Int{big.NewInt(424242), new(big.Int).Sub(n, big.NewInt(999983))}
	const forgedCipher = 1<<62 | 0x1d2c3b4a5968 // a row-id ciphertext outside the SIES modulus
	cases := []struct {
		name, sql string
		tamper    func(*engine.Result)
		forged    *big.Int // the share forge planted, if it did
		leaks     []string // what else the error must not print
	}{
		{"forged share, streaming", `SELECT balance FROM accounts`, forge(forged[0]), forged[0], nil},
		{"a second forged share of the same cell", `SELECT balance FROM accounts`, forge(forged[1]), forged[1], nil},
		{"forged share, materialising", `SELECT balance FROM accounts ORDER BY balance`, forge(forged[0]), forged[0], nil},
		{"row-keyed share without payload", `SELECT balance FROM accounts`,
			func(r *engine.Result) { firstCell(r, isShare).B = nil }, nil, nil},
		{"row-keyed share == n", `SELECT balance FROM accounts`,
			func(r *engine.Result) { firstCell(r, isShare).B = new(big.Int).Set(n) }, nil, nil},
		{"negative share", `SELECT balance FROM accounts`,
			func(r *engine.Result) { firstCell(r, isShare).B = big.NewInt(-5) }, nil, nil},
		{"row id without payload", `SELECT balance FROM accounts`,
			func(r *engine.Result) { lastShare(r).B = nil }, nil, nil},
		{"row id of the wrong kind", `SELECT balance FROM accounts`,
			func(r *engine.Result) { *lastShare(r) = types.NewInt(7) }, nil, nil},
		{"row id outside the SIES modulus", `SELECT balance FROM accounts`,
			func(r *engine.Result) { lastShare(r).B = new(big.Int).Lsh(big.NewInt(1), 200) }, nil, nil},
		{"row id three limbs wide", `SELECT balance FROM accounts`,
			func(r *engine.Result) { lastShare(r).B = new(big.Int).Lsh(big.NewInt(0x5a5a5a5a), 140) }, nil, nil},
		{"row-id ciphertext at or above 2^62", `SELECT balance FROM accounts`,
			func(r *engine.Result) { lastShare(r).B = packRowID(forgedCipher, 7) }, nil,
			[]string{fmt.Sprint(uint64(forgedCipher)), fmt.Sprintf("%x", uint64(forgedCipher))}},
		{"flat share without payload", `SELECT SUM(balance) FROM accounts`,
			func(r *engine.Result) { firstCell(r, isShare).B = nil }, nil, nil},
		{"AVG sum without payload", `SELECT AVG(balance) FROM accounts`,
			func(r *engine.Result) { firstCell(r, isShare).B = nil }, nil, nil},
		{"AVG count of the wrong kind", `SELECT AVG(balance) FROM accounts`,
			func(r *engine.Result) {
				*firstCell(r, func(v types.Value) bool { return v.K == types.KindInt }) = types.NewString("5")
			}, nil, nil},
		{"short row, streaming", `SELECT id, balance FROM accounts`,
			func(r *engine.Result) { r.Rows[2] = r.Rows[2][:1] }, nil, nil},
		{"short row, materialising", `SELECT id, balance FROM accounts ORDER BY balance`,
			func(r *engine.Result) { r.Rows[2] = r.Rows[2][:1] }, nil, nil},
		{"share without payload, materialising", `SELECT id, balance FROM accounts ORDER BY balance LIMIT 2`,
			func(r *engine.Result) { firstCell(r, isShare).B = nil }, nil, nil},
		{"empty row", `SELECT id, balance FROM accounts ORDER BY balance`,
			func(r *engine.Result) { r.Rows[0] = nil }, nil, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var honest types.Row // row 0 as the SP had it, before the tampering
			p.exec = tamperExec{Executor: eng, tamper: func(r *engine.Result) {
				honest = append(types.Row(nil), r.Rows[0]...)
				tc.tamper(r)
			}}
			defer func() { p.exec = eng }()
			res, err := p.Exec(tc.sql)
			if err == nil {
				t.Fatalf("tampered result decrypted to %v", res.Rows)
			}
			leaks := append(keyMaterial(p, "accounts", "balance"), tc.leaks...)
			if rid, err := p.decryptRowID(honest[len(honest)-1]); err == nil {
				leaks = append(leaks, fmt.Sprint(rid), fmt.Sprintf("%x", rid))
			}
			if tc.forged != nil {
				leaks = append(leaks, forgedPlaintexts(t, p, honest, tc.forged)...)
			}
			for _, secret := range leaks {
				if strings.Contains(err.Error(), secret) {
					t.Fatalf("error carries a secret: %v", err)
				}
			}
		})
	}
	// The honest SP still decrypts, on both paths.
	wantInts(t, colInts(mustP(t, p, `SELECT balance FROM accounts ORDER BY balance`), 0), -200, 300, 1200, 1200, 5000)
}

// forgedPlaintexts renders what the share ve decrypts to in the balance
// cell of the server row honest (balance first, hidden row id last):
// ve · item key modulo n, in decimal and hex. The honest share must
// decrypt under the same key, or the test is looking at the wrong cell,
// and the forged one must not (a forged share that decrypts to an int64
// leaves nothing to redact).
func forgedPlaintexts(t *testing.T, p *Proxy, honest types.Row, ve *big.Int) []string {
	t.Helper()
	meta, _ := p.store.Get("accounts")
	ck, _ := meta.Key("balance")
	rid, err := p.decryptRowID(honest[len(honest)-1])
	if err != nil {
		t.Fatal(err)
	}
	dec := p.secret.NewDecryptor(ck)
	if v, err := dec.Decrypt(firstCell(&engine.Result{Rows: []types.Row{honest}}, isShare).B, rid); err != nil {
		t.Fatalf("the honest share does not decrypt under balance's key: %v, %v", v, err)
	}
	if v, err := dec.Decrypt(ve, rid); err == nil {
		if i, err := v.Int64(); err == nil {
			t.Fatalf("forged share decrypts to the int64 %d: nothing to redact", i)
		}
	}
	v := p.secret.Decrypt(ve, rid, ck)
	v.Abs(v)
	return []string{v.String(), v.Text(16)}
}

// keyMaterial renders what must never reach a log, an error or the SP of a
// column key: x and m·g^x (the first entry of its table, times m), in
// decimal and hex.
func keyMaterial(p *Proxy, table, col string) []string {
	meta, _ := p.store.Get(table)
	ck, _ := meta.Key(col)
	h := p.secret.ItemKey(1, ck)
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
	st := p.secret.KeyTableStats()
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
	p.pool = parallel.New(4, 8) // several decrypt chunks per batch
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
	built := p.secret.KeyTableStats().Builds

	var wg sync.WaitGroup
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
			if _, err := p.RotateColumn("side", "v"); err != nil {
				t.Error(err)
				return
			}
			res, err := p.Exec(`SELECT v FROM side ORDER BY id`)
			if err != nil || len(res.Rows) != 3 || res.Rows[2][0].I != 33 {
				t.Errorf("side after rotation %d: %v, %v", i, res, err)
				return
			}
		}
	}()
	wg.Wait()
	// big's new keys — v, w and the product's ⟨m_v·m_w, x_v+x_w⟩ (factors
	// of one alias merge) — and side's six were each built exactly once.
	if got := p.secret.KeyTableStats().Builds - built; got != 9 {
		t.Fatalf("%d tables built during the race, want 9", got)
	}
}

// TestRowIDGolden: the packed row-id shares the big.Int SIES cipher
// stored for a fixed key, ids and nonces, committed as literals. The word
// cipher packs the same bytes and unpacks them to the same ids, so row ids
// at an SP and a persisted proxy state written before it still decrypt.
func TestRowIDGolden(t *testing.T) {
	p, _ := testSystem(t)
	key := make([]byte, sies.KeySize)
	for i := range key {
		key[i] = byte(0xa0 + i)
	}
	var err error
	if p.cipher, err = sies.New(key, secure.RowIDBits); err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct {
		id, nonce uint64
		packed    string
	}{
		{0x1, 0x1, "3f4f04cf8e917b3a0000000000000001"},
		{0x2, 0x2, "226625b3baf28e410000000000000002"},
		{0x2a5c7e9f1b3d5f70, 0x3, "28c470925dddb4460000000000000003"},
		{0x3fffffffffffffff, 0x10000000000, "3ea40661f4928460000010000000000"},
		{0x75bcd15, 0xffffffffffffffff, "144c3886db773e4fffffffffffffffff"},
		{0x1badc0dedeadbeef, 0x0, "243bfca42ed2ca340000000000000000"},
	} {
		enc, err := p.cipher.Encrypt(g.id, g.nonce)
		if err != nil {
			t.Fatal(err)
		}
		if got := packRowID(enc, g.nonce).Text(16); got != g.packed {
			t.Errorf("id %#x, nonce %#x: packed %s, want %s", g.id, g.nonce, got, g.packed)
		}
		if got, err := p.decryptRowID(types.NewShare(hexInt(t, g.packed))); err != nil || got != g.id {
			t.Errorf("decryptRowID(%s) = %#x, %v; want %#x", g.packed, got, err, g.id)
		}
	}
}

func hexInt(t *testing.T, s string) *big.Int {
	t.Helper()
	v, ok := new(big.Int).SetString(s, 16)
	if !ok {
		t.Fatalf("bad hex %q", s)
	}
	return v
}

// TestRowDecryptAllocs is the row kernel's allocation gate: a row id
// unpacks and decrypts without allocating, and a batch of N rows of three
// row-keyed shares (on one row id) costs the same allocations at N = 8 as
// at N = 512 — a per-batch constant: the row slice, the value and row-id
// slabs and the chunk loop's closures, no per-row or per-cell object.
// The batch also decrypts on a parallel pool, chunks writing their rows'
// windows of the slabs concurrently (ci.sh runs it under -race, where
// sync.Pool drops entries at random and only that part is checked).
func TestRowDecryptAllocs(t *testing.T) {
	p, eng := testSystem(t)
	mustP(t, p, `CREATE TABLE wide (id INT, a INT SENSITIVE, b INT SENSITIVE, c INT SENSITIVE)`)
	var vals []string
	for i := 0; i < 512; i++ {
		vals = append(vals, fmt.Sprintf("(%d, %d, %d, %d)", i, i*7, -i, i<<40))
	}
	mustP(t, p, `INSERT INTO wide VALUES `+strings.Join(vals, ", "))

	const sql = `SELECT id, a, b, c FROM wide`
	var srv []types.Row
	p.exec = tamperExec{Executor: eng, tamper: func(r *engine.Result) { srv = append([]types.Row(nil), r.Rows...) }}
	p.pool = parallel.New(4, 16)
	res := mustP(t, p, sql)
	p.exec = eng
	if len(srv) != 512 || len(res.Rows) != 512 {
		t.Fatalf("fixture: %d server rows, %d decrypted", len(srv), len(res.Rows))
	}
	for _, row := range res.Rows {
		if id := row[0].I; row[1].I != id*7 || row[2].I != -id || row[3].I != id<<40 {
			t.Fatalf("row %v decrypted wrong", row)
		}
	}
	if race.Enabled {
		return
	}

	p.SetOptions(Options{Parallelism: 1})
	rid := srv[0][len(srv[0])-1]
	if _, err := p.decryptRowID(rid); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { p.decryptRowID(rid) }); n != 0 {
		t.Fatalf("decryptRowID allocates %v times", n)
	}
	stmt, err := p.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	k := p.newRowKernel(stmt.plan)
	allocs := func(n int) float64 {
		if _, err := k.decryptBatch(srv[:n]); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() { k.decryptBatch(srv[:n]) })
	}
	small, large := allocs(8), allocs(512)
	if small != large || large > 5 {
		t.Fatalf("a batch allocates %v times at 8 rows and %v at 512: want one constant, at most 5", small, large)
	}
}
