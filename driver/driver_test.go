package driver

import (
	"context"
	"database/sql"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"sdb/internal/engine"
	"sdb/internal/proxy"
	"sdb/internal/secure"
	"sdb/internal/server"
	"sdb/internal/storage"
)

// quickstartRoundTrip drives the README quickstart through database/sql:
// schema with a sensitive column, inserts, an encrypted filter, and an
// encrypted aggregate.
func quickstartRoundTrip(t *testing.T, db *sql.DB) {
	t.Helper()
	if _, err := db.Exec(`CREATE TABLE staff (id INT, name STRING, team STRING, salary INT SENSITIVE)`); err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := db.Exec(`INSERT INTO staff VALUES
		(1, 'alice', 'eng',   120000),
		(2, 'bob',   'eng',   110000),
		(3, 'carol', 'sales',  95000),
		(4, 'dave',  'sales',  99000),
		(5, 'erin',  'hr',     90000)`); err != nil {
		t.Fatalf("insert: %v", err)
	}

	rows, err := db.Query(`SELECT name, salary FROM staff WHERE salary > 100000 ORDER BY name`)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	defer rows.Close()
	var names []string
	for rows.Next() {
		var name string
		var salary int64
		if err := rows.Scan(&name, &salary); err != nil {
			t.Fatalf("scan: %v", err)
		}
		if salary <= 100000 {
			t.Errorf("filter leaked %s with salary %d", name, salary)
		}
		names = append(names, name)
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "alice" || names[1] != "bob" {
		t.Errorf("names = %v, want [alice bob]", names)
	}

	var total int64
	if err := db.QueryRow(`SELECT SUM(salary) FROM staff`).Scan(&total); err != nil {
		t.Fatalf("sum: %v", err)
	}
	if total != 514000 {
		t.Errorf("SUM(salary) = %d, want 514000", total)
	}

	// Prepared statement reuse: the rewrite (and its token derivations)
	// happens once, execution twice.
	stmt, err := db.Prepare(`SELECT COUNT(*) FROM staff WHERE salary > 95000`)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	defer stmt.Close()
	for i := 0; i < 2; i++ {
		var n int64
		if err := stmt.QueryRow().Scan(&n); err != nil {
			t.Fatalf("prepared exec %d: %v", i, err)
		}
		if n != 3 {
			t.Errorf("count = %d, want 3", n)
		}
	}
}

// TestQuickstartMemDSN runs the quickstart against the embedded mem:// DSN.
func TestQuickstartMemDSN(t *testing.T) {
	db, err := sql.Open("sdb", "mem://?bits=256")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	quickstartRoundTrip(t, db)
}

// TestQuickstartOverTCP runs the quickstart against a real server via
// OpenDB over a network proxy, covering the streamed wire path end to end.
func TestQuickstartOverTCP(t *testing.T) {
	secret, err := secure.Setup(256, 40, 40)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.NewWithOptions(secret.N(), engine.Options{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()

	client, err := server.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	p, err := proxy.New(secret, client)
	if err != nil {
		t.Fatal(err)
	}
	db := OpenDB(p)
	defer db.Close()
	quickstartRoundTrip(t, db)
}

// TestDriverRejectsArgs pins the placeholder contract.
func TestDriverRejectsArgs(t *testing.T) {
	db, err := sql.Open("sdb", "mem://?bits=256")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Query(`SELECT 1`, 42); err == nil {
		t.Error("expected error passing args")
	}
}

// TestDriverCtxCancel covers context cancellation through database/sql:
// a cancelled ctx fails the query cleanly.
func TestDriverCtxCancel(t *testing.T) {
	secret, err := secure.Setup(256, 40, 40)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(storage.NewCatalog(), secret.N())
	p, err := proxy.New(secret, eng)
	if err != nil {
		t.Fatal(err)
	}
	db := OpenDB(p)
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE t (a INT)`); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.QueryContext(ctx, `SELECT a FROM t`); err == nil {
		t.Error("expected error from cancelled ctx")
	}
}

// TestDriverConcurrentReadWrite hammers one pooled sql.DB with concurrent
// INSERTs and streamed SELECTs: the engine's statement lock must keep
// writers and open-cursor snapshots from racing (run under -race in CI).
func TestDriverConcurrentReadWrite(t *testing.T) {
	db, err := sql.Open("sdb", "mem://?bits=256")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE cc (id INT, v INT SENSITIVE)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO cc VALUES (0, 0)`); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for w := 0; w < 2; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if _, err := db.Exec(fmt.Sprintf(`INSERT INTO cc VALUES (%d, %d)`, w*100+i, i)); err != nil {
					errc <- err
					return
				}
			}
		}(w)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				rows, err := db.Query(`SELECT id, v FROM cc WHERE v > -1`)
				if err != nil {
					errc <- err
					return
				}
				for rows.Next() {
					var id, v int64
					if err := rows.Scan(&id, &v); err != nil {
						errc <- err
						rows.Close()
						return
					}
				}
				if err := rows.Err(); err != nil {
					errc <- err
				}
				rows.Close()
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	var n int64
	if err := db.QueryRow(`SELECT COUNT(*) FROM cc`).Scan(&n); err != nil {
		t.Fatal(err)
	}
	if n != 17 {
		t.Fatalf("COUNT(*) = %d, want 17", n)
	}
}

// TestDriverCancelledInsert pins that ExecContext honours ctx for INSERTs:
// a cancelled context aborts before the upload commits.
func TestDriverCancelledInsert(t *testing.T) {
	db, err := sql.Open("sdb", "mem://?bits=256")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE ci (a INT, b INT SENSITIVE)`); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.ExecContext(ctx, `INSERT INTO ci VALUES (1, 2)`); err == nil {
		t.Fatal("cancelled INSERT committed")
	}
	var n int64
	if err := db.QueryRow(`SELECT COUNT(*) FROM ci`).Scan(&n); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("table has %d rows after cancelled INSERT, want 0", n)
	}
}

// TestDriverMemBudgetSpill drives the mem_budget DSN knob end to end:
// a budget far below the sort input forces the embedded engine to spill,
// the full result must still come back in exact order, and closing the
// *sql.Rows mid-stream must leave the spill directory empty. 4800 rows are
// three engine batches on two workers (2048 rows each), so the close
// comes while the stream is open.
func TestDriverMemBudgetSpill(t *testing.T) {
	// The embedded engine spills under os.TempDir(); point that at a
	// directory this test can inspect.
	spillDir := t.TempDir()
	t.Setenv("TMPDIR", spillDir)
	const total = 4800
	db, err := sql.Open("sdb", "mem://?bits=256&parallel=2&mem_budget=64")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE big (id INT, v INT SENSITIVE)`); err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < total; lo += 600 {
		var sb strings.Builder
		sb.WriteString(`INSERT INTO big VALUES `)
		for i := lo; i < lo+600; i++ {
			if i > lo {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d)", i, (i*37)%1009)
		}
		if _, err := db.Exec(sb.String()); err != nil {
			t.Fatal(err)
		}
	}

	// Full drain: spilled ORDER BY over an encrypted column's plaintext
	// mirror — rows must arrive fully sorted.
	rows, err := db.Query(`SELECT id, v FROM big ORDER BY v, id`)
	if err != nil {
		t.Fatal(err)
	}
	prevV, prevID, n := int64(-1), int64(-1), 0
	for rows.Next() {
		var id, v int64
		if err := rows.Scan(&id, &v); err != nil {
			t.Fatal(err)
		}
		if v < prevV || (v == prevV && id <= prevID) {
			t.Fatalf("row %d out of order: (%d,%d) after (%d,%d)", n, v, id, prevV, prevID)
		}
		prevV, prevID = v, id
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if n != total {
		t.Fatalf("scanned %d rows, want %d", n, total)
	}

	// Mid-stream Rows.Close on a spilling query: no temp files may
	// survive it.
	rows, err = db.Query(`SELECT id, v FROM big ORDER BY v, id`)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatal("no first row")
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		entries, err := os.ReadDir(spillDir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("Rows.Close left %d spill entries behind", len(entries))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDurableMemDSN opens a durable embedded deployment twice: the first
// process runs the quickstart and closes; the second must recover every
// table, decrypt the shares with the restored DO state, and keep writing.
func TestDurableMemDSN(t *testing.T) {
	dir := t.TempDir()
	dsn := "mem://?bits=256&data_dir=" + dir

	db, err := sql.Open("sdb", dsn)
	if err != nil {
		t.Fatal(err)
	}
	quickstartRoundTrip(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := sql.Open("sdb", dsn)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	var total int64
	if err := db2.QueryRow("SELECT SUM(salary) FROM staff").Scan(&total); err != nil {
		t.Fatalf("query after restart: %v", err)
	}
	if total != 120000+110000+95000+99000+90000 {
		t.Fatalf("recovered SUM(salary) = %d", total)
	}
	if _, err := db2.Exec("INSERT INTO staff VALUES (6, 'frank', 'eng', 130000)"); err != nil {
		t.Fatalf("insert after restart: %v", err)
	}
	if err := db2.QueryRow("SELECT COUNT(*) FROM staff WHERE salary > 100000").Scan(&total); err != nil {
		t.Fatal(err)
	}
	if total != 3 {
		t.Fatalf("encrypted filter after restart = %d, want 3", total)
	}
}

// TestDurableMemDSNRejectsMissingState refuses to open a data dir whose
// shares exist but whose DO state file is gone: nothing could decrypt
// them.
func TestDurableMemDSNRejectsMissingState(t *testing.T) {
	dir := t.TempDir()
	dsn := "mem://?bits=256&data_dir=" + dir
	db, err := sql.Open("sdb", dsn)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("CREATE TABLE t (a INT SENSITIVE, b INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO t VALUES (1, 2)"); err != nil {
		t.Fatal(err)
	}
	db.Close()
	if err := os.Remove(filepath.Join(dir, "do-state.json")); err != nil {
		t.Fatal(err)
	}
	db2, err := sql.Open("sdb", dsn)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if err := db2.Ping(); err == nil {
		t.Fatal("open succeeded with recovered shares but no DO state")
	}
}

// TestDSNValidation: a DSN key the driver does not know, or a non-integer
// where it expects a number, is an error from sql.Open that names the key
// (mem_budget=2k used to mean "unlimited", mem-budget= nothing at all).
func TestDSNValidation(t *testing.T) {
	for _, tc := range []struct {
		dsn, wantErr string // wantErr "" = accepted
	}{
		{"mem://", ""},
		{"mem://?bits=256&parallel=2&mem_budget=-1&data_dir=&fsync=never&checkpoint_every=16", ""},
		{"tcp://127.0.0.1:1?secret=do.key&parallel=1", ""},
		{"mem://?mem_budget=2k", `"mem_budget"`},
		{"mem://?bits=0x200", `"bits"`},
		{"mem://?checkpoint_every=often&data_dir=/tmp/x", `"checkpoint_every"`},
		{"tcp://127.0.0.1:1?secret=do.key&parallel=two", `"parallel"`},
		{"mem://?mem-budget=64", `"mem-budget"`},
		{"mem://?mvcc=off", `"mvcc"`},
		{"mem://?planner=off", `"planner"`},
		{"mem://?secret=do.key", `"secret"`},
		{"tcp://127.0.0.1:1?secret=do.key&mem_budget=64", `"mem_budget"`},
	} {
		db, err := sql.Open("sdb", tc.dsn)
		if err == nil {
			db.Close()
		}
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: %v", tc.dsn, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: error %v, want one naming %s", tc.dsn, err, tc.wantErr)
		}
	}
}

// TestDSNRefusesSizeKeys: batch, frame and cache sizes are constants, so
// the keys that once set them (chunk, plan_cache) are unknown on both
// schemes, and OpenConnector's error names the key.
func TestDSNRefusesSizeKeys(t *testing.T) {
	for _, dsn := range []string{
		"mem://?chunk=8",
		"mem://?bits=256&plan_cache=0",
		"tcp://127.0.0.1:1?secret=do.key&chunk=4",
		"tcp://127.0.0.1:1?secret=do.key&plan_cache=-1",
	} {
		key := "chunk"
		if strings.Contains(dsn, "plan_cache") {
			key = "plan_cache"
		}
		_, err := (&Driver{}).OpenConnector(dsn)
		if err == nil || !strings.Contains(err.Error(), `"`+key+`"`) {
			t.Errorf("%s: error %v, want one naming %q", dsn, err, key)
		}
	}
}
