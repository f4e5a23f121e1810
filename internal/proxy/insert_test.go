package proxy

import (
	"fmt"
	"strings"
	"testing"

	"sdb/internal/engine"
	"sdb/internal/race"
	"sdb/internal/secure"
	"sdb/internal/storage"
)

// recordingExec is an in-process SP that keeps every statement sent to
// ExecuteSQL.
type recordingExec struct {
	*engine.Engine
	sent []string
}

func (r *recordingExec) ExecuteSQL(sql string) (*engine.Result, error) {
	r.sent = append(r.sent, sql)
	return r.Engine.ExecuteSQL(sql)
}

// TestInsertSendsWhatItReports pins the INSERT path's text and its short
// cut: the SP receives exactly Stats.RewrittenSQL, for a plaintext table
// and for a SENSITIVE one, and an upload to a table with no SENSITIVE
// column advances no SIES nonce (so draws no row id: newRowID is the one
// place that does both), builds no key table and ships the user's rows
// as written.
func TestInsertSendsWhatItReports(t *testing.T) {
	secret, err := secure.Setup(512, 62, 80)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingExec{Engine: engine.New(storage.NewCatalog(), secret.N())}
	p, err := New(secret, rec)
	if err != nil {
		t.Fatal(err)
	}
	mustP(t, p, "CREATE TABLE plain (id INT, name STRING, d DATE, price DECIMAL(2), ok BOOL)")
	mustP(t, p, "CREATE TABLE acct (id INT, owner STRING, balance INT SENSITIVE)")
	sentOf := func(res *Result) string {
		t.Helper()
		last := rec.sent[len(rec.sent)-1]
		if last != res.Stats.RewrittenSQL {
			t.Fatalf("the SP received\n%s\nbut Stats.RewrittenSQL is\n%s", last, res.Stats.RewrittenSQL)
		}
		return last
	}

	nonce, tables := p.nonce.Load(), secret.KeyTableStats().Builds
	res := mustP(t, p, `INSERT INTO plain VALUES (1, 'a''b', '1995-01-01', 1.5, TRUE),
		(-2, '世界', DATE '1996-02-29', -3, NULL)`)
	want := `INSERT INTO plain (id, name, d, price, ok) VALUES (1, 'a''b', '1995-01-01', 1.5, TRUE), ` +
		`(-2, '世界', DATE '1996-02-29', -3, NULL)`
	if got := sentOf(res); got != want {
		t.Errorf("plaintext upload sent\n%s\nwant\n%s", got, want)
	}
	if got := p.nonce.Load(); got != nonce {
		t.Errorf("a plaintext upload advanced the SIES nonce from %d to %d", nonce, got)
	}
	if got := secret.KeyTableStats().Builds; got != tables {
		t.Errorf("a plaintext upload built %d key tables", got-tables)
	}

	res = mustP(t, p, "INSERT INTO acct (owner, id, balance) VALUES ('x', 1, 100), ('y', 2, -5)")
	sent := sentOf(res)
	if !strings.HasPrefix(sent, "INSERT INTO acct (owner, id, balance, sdb_mask, row_id, sdb_w) VALUES ('x', 1, 0x") {
		t.Errorf("SENSITIVE upload sent %.120s…", sent)
	}
	if got := p.nonce.Load(); got != nonce+2 {
		t.Errorf("two SENSITIVE rows advanced the nonce by %d, want 2", got-nonce)
	}
	if res.Stats.Rewrite <= 0 || res.Stats.Server <= 0 {
		t.Errorf("upload stats %+v: want rewrite and server time", res.Stats)
	}
	res = mustP(t, p, "SELECT id, balance FROM acct ORDER BY id")
	wantInts(t, colInts(res, 1), 100, -5)
}

// TestInsertPathAllocs bounds the allocations per row of a 200-row
// plaintext INSERT through Exec into an in-process engine: the proxy's
// parse and render, the engine's parse, literal conversion and append.
func TestInsertPathAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not stable under -race")
	}
	p, _ := testSystem(t)
	mustP(t, p, "CREATE TABLE item (id INT, name STRING, price DECIMAL(2), shipped DATE, qty INT, note STRING)")
	const rows = 200
	tuples := make([]string, rows)
	for i := range tuples {
		tuples[i] = fmt.Sprintf("(%d, 'Supplier#%05d', %d.%02d, '1995-%02d-%02d', %d, 'it''s row %d')",
			i, i, i*7, i%100, 1+i%12, 1+i%28, i%50-25, i)
	}
	sql := "INSERT INTO item VALUES " + strings.Join(tuples, ", ")
	perRow := testing.AllocsPerRun(20, func() {
		if _, err := p.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}) / rows
	// 94.8 before the upload path rendered once and parsed literals
	// directly; 13.3 after, nearly all of it the boxing of literals into
	// Expr values, once at the proxy and once at the engine.
	const bound = 16
	t.Logf("%.2f allocations per row", perRow)
	if perRow > bound {
		t.Errorf("%.2f allocations per row of a plaintext upload, want at most %d", perRow, bound)
	}
}
