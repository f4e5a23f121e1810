package engine_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"sdb/internal/engine"
	"sdb/internal/proxy"
	"sdb/internal/secure"
	"sdb/internal/storage"
	"sdb/internal/types"
)

// TestParallelSerialEquivalenceSecure is the serial-vs-parallel
// differential for the operators that get the worker pool: each statement
// runs through a proxy over one engine whose options are switched between
// a serial pool, an 8-worker pool with 17-row chunks (every batch spans
// many chunks), and the same pool under a resident-row budget small enough
// to spill the joins. Every rewritten plan must hold a pool-marked operator,
// the decrypted answers must agree across the modes row for row, and they
// must equal the plaintext engine's answer as a multiset.
func TestParallelSerialEquivalenceSecure(t *testing.T) {
	secret, err := secure.Setup(384, 62, 80)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.NewWithOptions(storage.NewCatalog(), secret.N(), engine.Options{Parallelism: 1})
	sdb, err := proxy.New(secret, eng)
	if err != nil {
		t.Fatal(err)
	}
	plain := engine.NewWithOptions(storage.NewCatalog(), nil, engine.Options{Parallelism: 1, MemBudgetRows: -1})
	exec := func(sql string) {
		t.Helper()
		if _, err := sdb.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if _, err := plain.ExecuteSQL(strings.ReplaceAll(sql, " SENSITIVE", "")); err != nil {
			t.Fatalf("plaintext %s: %v", sql, err)
		}
	}
	exec(`CREATE TABLE a (id INT, k INT, g INT, s INT SENSITIVE, s2 INT SENSITIVE)`)
	exec(`CREATE TABLE b (id INT, k INT, s INT SENSITIVE)`)
	for lo := 0; lo < 300; lo += 100 {
		var rows []string
		for i := lo; i < lo+100; i++ {
			rows = append(rows, fmt.Sprintf("(%d, %d, %d, %d, %d)", i, i%23, i%7, (i*37)%101-50, i%11-5))
		}
		exec(`INSERT INTO a VALUES ` + strings.Join(rows, ", "))
	}
	var rows []string
	for i := 0; i < 60; i++ {
		rows = append(rows, fmt.Sprintf("(%d, %d, %d)", i, i%23, (i*53)%101-50))
	}
	exec(`INSERT INTO b VALUES ` + strings.Join(rows, ", "))

	modes := []struct {
		name string
		opts engine.Options
	}{
		{"serial", engine.Options{Parallelism: 1, MemBudgetRows: -1}},
		{"parallel", engine.Options{Parallelism: 8, ChunkSize: 17, MemBudgetRows: -1}},
		{"parallel-spill", engine.Options{Parallelism: 8, ChunkSize: 17, MemBudgetRows: 64, SpillDir: t.TempDir()}},
	}
	cases := []struct {
		name, sql string
		spills    bool // the budgeted run must spill
	}{
		{"where on a sensitive column", `SELECT id FROM a WHERE s > 10`, false},
		{"share product", `SELECT id, s * s2 FROM a`, false},
		{"encrypted equi-join", `SELECT a.id, b.id FROM a JOIN b ON a.s = b.s`, true},
		{"sensitive join residual", `SELECT a.id, b.id FROM a JOIN b ON a.k = b.k AND a.s < b.s`, true},
		{"non-equi join", `SELECT a.id, b.id FROM a JOIN b ON a.s2 > b.s`, false},
		{"min/max per group", `SELECT g, MIN(s), MAX(s) FROM a GROUP BY g`, false},
		{"distinct", `SELECT DISTINCT s FROM a`, false},
	}
	for _, c := range cases {
		want, err := plain.ExecuteSQL(c.sql)
		if err != nil {
			t.Fatalf("%s plaintext: %v", c.name, err)
		}
		if len(want.Rows) == 0 {
			t.Fatalf("%s: degenerate fixture, no rows", c.name)
		}
		var first *proxy.Result
		for _, m := range modes {
			eng.SetOptions(m.opts)
			got, err := sdb.Exec(c.sql)
			if err != nil {
				t.Fatalf("%s, %s: %v", c.name, m.name, err)
			}
			rewritten := got.Stats.RewrittenSQL
			sig, err := engine.PlanSig(eng, rewritten)
			if err != nil {
				t.Fatalf("%s, %s: %v", c.name, m.name, err)
			}
			if !strings.Contains(sig, "‖") {
				t.Fatalf("%s: no operator got the worker pool: %s", c.name, sig)
			}
			if c.spills && m.opts.MemBudgetRows > 0 {
				if _, st := queryAndStats(t, eng, rewritten); st.Spills == 0 {
					t.Fatalf("%s, %s: the join did not spill: %+v", c.name, m.name, st)
				}
			}
			if first == nil {
				first = got
				if g, w := rowStrings(got.Rows), rowStrings(want.Rows); strings.Join(g, "\n") != strings.Join(w, "\n") {
					t.Fatalf("%s: secure answer differs from plaintext\n got %v\nwant %v", c.name, g, w)
				}
				continue
			}
			if len(got.Rows) != len(first.Rows) {
				t.Fatalf("%s, %s: %d rows, serial %d", c.name, m.name, len(got.Rows), len(first.Rows))
			}
			for r := range got.Rows {
				if g, w := fmt.Sprint(got.Rows[r]), fmt.Sprint(first.Rows[r]); g != w {
					t.Fatalf("%s, %s: row %d is %s, serial %s", c.name, m.name, r, g, w)
				}
			}
		}
	}
}

// rowStrings renders rows as sorted strings: a multiset to compare.
func rowStrings(rows []types.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}
