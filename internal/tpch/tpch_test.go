package tpch

import (
	"fmt"
	"strings"
	"testing"

	"sdb/internal/baseline"
	"sdb/internal/engine"
	"sdb/internal/proxy"
	"sdb/internal/secure"
	"sdb/internal/sqlparser"
	"sdb/internal/storage"
	"sdb/internal/types"
)

func TestAllQueriesParse(t *testing.T) {
	for _, q := range Queries() {
		if _, err := sqlparser.ParseSelect(q.SQL); err != nil {
			t.Errorf("Q%d does not parse: %v", q.Num, err)
		}
	}
	if len(Queries()) != 22 {
		t.Errorf("expected 22 queries, got %d", len(Queries()))
	}
}

// TestCoverageMatrix reproduces experiment E2: SDB natively supports all 22
// queries; the onion baseline supports only a handful (the paper reports 4
// for CryptDB). The exact count depends on the sensitive-column choice; the
// shape — a small fraction versus all — is the claim under test.
func TestCoverageMatrix(t *testing.T) {
	sdbCount, cryptdbCount := 0, 0
	for _, q := range Queries() {
		sel, err := sqlparser.ParseSelect(q.SQL)
		if err != nil {
			t.Fatalf("Q%d: %v", q.Num, err)
		}
		ops, err := baseline.AnalyzeQuery(sel, IsSensitive)
		if err != nil {
			t.Fatalf("Q%d analyze: %v", q.Num, err)
		}
		if baseline.SDBSupports(ops) {
			sdbCount++
		}
		if baseline.CryptDBSupports(ops) {
			cryptdbCount++
		} else {
			t.Logf("Q%-2d unsupported by onion baseline (ops: %s)", q.Num, ops)
		}
	}
	if sdbCount != 22 {
		t.Errorf("SDB coverage = %d/22, want 22/22", sdbCount)
	}
	if cryptdbCount > 8 {
		t.Errorf("onion-baseline coverage = %d/22; expected a small fraction (paper: 4)", cryptdbCount)
	}
	t.Logf("coverage: SDB %d/22, onion baseline %d/22", sdbCount, cryptdbCount)
}

// plaintextSQL strips SENSITIVE so the same DDL loads a plaintext engine.
func plaintextSQL(sql string) string {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return sql
	}
	ct, ok := stmt.(*sqlparser.CreateTable)
	if !ok {
		return sql
	}
	for i := range ct.Cols {
		ct.Cols[i].Type.Sensitive = false
	}
	return ct.String()
}

// loadBoth generates one dataset into an SDB deployment and a plaintext
// deployment for differential testing. The plaintext side also runs behind
// a proxy (over a schema with no SENSITIVE columns) so both sides share the
// proxy's scale-aware literal rewriting; only the encryption differs.
func loadBoth(t testing.TB, sf float64) (*proxy.Proxy, *proxy.Proxy) {
	t.Helper()
	secret, err := secure.Setup(512, 62, 80)
	if err != nil {
		t.Fatal(err)
	}
	spEngine := engine.New(storage.NewCatalog(), secret.N())
	p, err := proxy.New(secret, spEngine)
	if err != nil {
		t.Fatal(err)
	}
	plainEngine := engine.New(storage.NewCatalog(), nil)
	plain, err := proxy.New(secret, plainEngine)
	if err != nil {
		t.Fatal(err)
	}

	for _, ddl := range CreateStatements() {
		if _, err := p.Exec(ddl); err != nil {
			t.Fatalf("proxy DDL: %v", err)
		}
		if _, err := plain.Exec(plaintextSQL(ddl)); err != nil {
			t.Fatalf("plain DDL: %v", err)
		}
	}
	cfg := Config{ScaleFactor: sf, Seed: 42}
	if err := Generate(cfg, func(sql string) error {
		if _, err := p.Exec(sql); err != nil {
			return fmt.Errorf("proxy load: %w", err)
		}
		if _, err := plain.Exec(sql); err != nil {
			return fmt.Errorf("plain load: %w", err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return p, plain
}

// TestRunnableQueriesDifferential executes every runnable TPC-H query both
// through the full SDB stack (encrypt → rewrite → secure execute → decrypt)
// and on a plaintext engine, and requires identical results. AVG columns
// are compared with the proxy's two extra digits of precision.
func TestRunnableQueriesDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential TPC-H run is slow")
	}
	p, plain := loadBoth(t, 0.0004)

	for _, q := range RunnableQueries() {
		q := q
		t.Run(fmt.Sprintf("Q%d", q.Num), func(t *testing.T) {
			encRes, err := p.Exec(q.SQL)
			if err != nil {
				t.Fatalf("SDB: %v", err)
			}
			plainRes, err := plain.Exec(q.SQL)
			if err != nil {
				t.Fatalf("plaintext: %v", err)
			}
			comparePlans(t, q.Num, encRes, plainRes)
			// The same statement in comma-join syntax, through the secure
			// stack: one planner serves both, so one answer.
			comma, err := CommaForm(q.SQL)
			if err != nil {
				t.Fatal(err)
			}
			commaRes, err := p.Exec(comma)
			if err != nil {
				t.Fatalf("SDB, comma form: %v\n%s", err, comma)
			}
			comparePlans(t, q.Num, commaRes, plainRes)
		})
	}
}

// TestCommaFormHasNoJoins: the derived form of every query parses back and
// holds no JOIN at any level; 19 of the 22 are written with one.
func TestCommaFormHasNoJoins(t *testing.T) {
	rewritten := 0
	for _, q := range Queries() {
		comma, err := CommaForm(q.SQL)
		if err != nil {
			t.Fatalf("Q%d: %v", q.Num, err)
		}
		if _, err := sqlparser.ParseSelect(comma); err != nil {
			t.Errorf("Q%d: comma form does not parse: %v\n%s", q.Num, err, comma)
		}
		if strings.Contains(comma, " JOIN ") {
			t.Errorf("Q%d: comma form still joins explicitly: %s", q.Num, comma)
		}
		if strings.Contains(q.SQL, "JOIN") {
			rewritten++
		}
	}
	if rewritten != 19 {
		t.Errorf("%d queries use JOIN … ON, expected 19", rewritten)
	}
}

func comparePlans(t *testing.T, num int, enc, plain *proxy.Result) {
	t.Helper()
	if len(enc.Rows) != len(plain.Rows) {
		t.Fatalf("Q%d: SDB %d rows, plaintext %d rows", num, len(enc.Rows), len(plain.Rows))
	}
	for i := range enc.Rows {
		for c := range enc.Rows[i] {
			ev, pv := enc.Rows[i][c], plain.Rows[i][c]
			if ev.IsNull() != pv.IsNull() {
				t.Fatalf("Q%d row %d col %d: null mismatch (%v vs %v)", num, i, c, ev, pv)
			}
			if ev.IsNull() {
				continue
			}
			switch pv.K {
			case types.KindString:
				if ev.S != pv.S {
					t.Fatalf("Q%d row %d col %d: %q vs %q", num, i, c, ev.S, pv.S)
				}
			default:
				if ev.I != pv.I {
					t.Fatalf("Q%d row %d col %d: %d vs %d", num, i, c, ev.I, pv.I)
				}
			}
		}
	}
}
