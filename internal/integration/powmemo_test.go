package integration

import (
	"strings"
	"testing"

	"sdb/internal/engine"
	"sdb/internal/proxy"
	"sdb/internal/secure"
	"sdb/internal/tpch"
)

// TestHelperPowerMemoCountsQ1 pins the helper-power memo's arithmetic on
// TPC-H Q1, as exact counts. Q1's aggregation applies tokens with a
// non-zero exponent to every lineitem row that passes its plaintext date
// filter, over four distinct exponents of one helper. Its arguments compile
// into one row program, which looks each (helper, exponent) pair up once
// per row: a cold serial execution exponentiates four times per row and finds
// nothing memoised, a second execution exponentiates nothing — serially and
// on two workers — and rotating one column's key changes exactly one of the
// four exponents.
func TestHelperPowerMemoCountsQ1(t *testing.T) {
	f := setup(t)
	q1 := tpch.RunnableQueries()[0]
	if q1.Num != 1 {
		t.Fatalf("first runnable query is Q%d, want Q1", q1.Num)
	}
	want, err := f.plain.Exec(q1.SQL)
	if err != nil {
		t.Fatal(err)
	}
	cnt, err := f.plain.Exec(`SELECT COUNT(*) FROM lineitem WHERE l_shipdate <= DATE '1998-09-02'`)
	if err != nil {
		t.Fatal(err)
	}
	r := cnt.Rows[0][0].I
	if r == 0 {
		t.Fatal("no lineitem row passes Q1's filter at this scale factor")
	}

	// Serial, so no two workers can miss the same power at once.
	f.sdb.SetOptions(proxy.Options{Parallelism: 1})
	f.sdbEng.SetOptions(engine.Options{Parallelism: 1})
	defer f.sdb.SetOptions(proxy.Options{})
	defer f.sdbEng.SetOptions(engine.Options{})

	run := func(label string, wantHits, wantMisses int64) {
		t.Helper()
		before := secure.HelperPowers()
		got, err := f.sdb.Exec(q1.SQL)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		requireEqualResults(t, label+" vs plaintext", q1.SQL, got, want)
		after := secure.HelperPowers()
		hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
		t.Logf("%s: r = %d rows, %d hits, %d misses, memo holds %d powers in %d bytes",
			label, r, hits, misses, after.Entries, after.Bytes)
		if hits != wantHits || misses != wantMisses {
			t.Fatalf("%s: %d hits / %d misses, want %d / %d (r = %d)",
				label, hits, misses, wantHits, wantMisses, r)
		}
	}
	secure.ResetHelperPowers()
	run("cold", 0, 4*r)
	run("repeat", 4*r, 0)
	// Warm on two workers in 64-row chunks: each worker counts its hits in
	// its own frame and publishes them once per chunk, so the counters are
	// exact when the statement returns.
	f.sdb.SetOptions(proxy.Options{Parallelism: 2})
	f.sdbEng.SetOptions(engine.Options{Parallelism: 2, ChunkSize: 64})
	run("repeat on 2 workers", 4*r, 0)
	f.sdb.SetOptions(proxy.Options{Parallelism: 1})
	f.sdbEng.SetOptions(engine.Options{Parallelism: 1})
	if _, err := f.sdb.RotateColumn("lineitem", "l_quantity"); err != nil {
		t.Fatal(err)
	}
	run("after rotating l_quantity", 3*r, r)
}

// tokenExponents returns the exponent literal of every token-applying UDF
// call in a rewritten statement. The rewriter always ends such a call
// with the literals P, Q, n.
func tokenExponents(sql string) []string {
	var qs []string
	for _, fn := range []string{"sdb_keyupdate(", "sdb_sign("} {
		for rest := sql; ; {
			i := strings.Index(rest, fn)
			if i < 0 {
				break
			}
			rest = rest[i+len(fn):]
			var args []string
			depth, start := 0, 0
		scan:
			for j, c := range rest {
				switch {
				case c == '(':
					depth++
				case c == ')' && depth == 0:
					args = append(args, rest[start:j])
					break scan
				case c == ')':
					depth--
				case c == ',' && depth == 0:
					args = append(args, rest[start:j])
					start = j + 1
				}
			}
			qs = append(qs, strings.Trim(args[len(args)-2], " ()"))
		}
	}
	return qs
}

// TestHelperPowerMemoTPCH runs every runnable TPC-H query serially from an
// empty memo and then again. It logs the table EXPERIMENTS.md records
// (token calls in the rewrite, how many carry Q = 0, distinct non-zero
// exponents, cold hits and misses) and asserts what must hold for every
// query: both runs match plaintext, a Q = 0 call never reaches the memo,
// and the repeat exponentiates nothing.
//
// The logged counts did not move when the planner began pushing WHERE and
// ON conjuncts below JOIN … ON (PR 19; all 17 rows identical to the parent's,
// Q1's exact pins above included): in every runnable query the tokens are
// applied by select-list and aggregate expressions above the joins, to the
// rows that survive them — and pushdown changes where a row is dropped, not
// which rows survive. The one secure predicate that could move, Q19's, names
// both of its join's inputs and stays that join's residual.
func TestHelperPowerMemoTPCH(t *testing.T) {
	f := setup(t)
	f.sdb.SetOptions(proxy.Options{Parallelism: 1})
	f.sdbEng.SetOptions(engine.Options{Parallelism: 1})
	defer f.sdb.SetOptions(proxy.Options{})
	defer f.sdbEng.SetOptions(engine.Options{})
	t.Logf("query | token calls | Q=0 | exponents | cold hits | cold misses | repeat hits | repeat misses")
	for _, q := range tpch.RunnableQueries() {
		want, err := f.plain.Exec(q.SQL)
		if err != nil {
			t.Fatalf("plaintext Q%d: %v", q.Num, err)
		}
		secure.ResetHelperPowers()
		var rewritten string
		var runs [2]secure.HelperPowerStats
		for i := range runs {
			before := secure.HelperPowers()
			got, err := f.sdb.Exec(q.SQL)
			if err != nil {
				t.Fatalf("secure Q%d: %v", q.Num, err)
			}
			requireEqualResults(t, "secure vs plaintext", q.SQL, got, want)
			after := secure.HelperPowers()
			runs[i] = secure.HelperPowerStats{Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses}
			rewritten = got.Stats.RewrittenSQL
		}
		qs := tokenExponents(rewritten)
		zero := 0
		distinct := map[string]bool{}
		for _, e := range qs {
			if e == "0x0" {
				zero++
			} else {
				distinct[e] = true
			}
		}
		t.Logf("Q%d | %d | %d | %d | %d | %d | %d | %d", q.Num, len(qs), zero, len(distinct),
			runs[0].Hits, runs[0].Misses, runs[1].Hits, runs[1].Misses)
		if runs[1].Misses != 0 {
			t.Errorf("Q%d: repeat execution exponentiated %d times", q.Num, runs[1].Misses)
		}
		if runs[1].Hits != runs[0].Hits+runs[0].Misses {
			t.Errorf("Q%d: repeat made %d token applications, first run %d",
				q.Num, runs[1].Hits, runs[0].Hits+runs[0].Misses)
		}
		if len(qs) == zero && runs[0].Hits+runs[0].Misses != 0 {
			t.Errorf("Q%d: only Q = 0 tokens, yet the memo was consulted", q.Num)
		}
	}
}
