package proxy

// Plan/token cache suite: repeated statements must hit the cache, and
// every cached entry must invalidate on key rotation (stale tokens would
// decrypt re-keyed shares into garbage) and on DDL, but not on INSERT. The rotation tests deliberately run through a warm cache — the
// decrypted answers prove the invalidation, not just the counters.

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"sdb/internal/engine"
	"sdb/internal/secure"
	"sdb/internal/storage"
)

// cachedBankSystem is bankSystem with a plan cache small enough to evict.
func cachedBankSystem(t testing.TB) (*Proxy, *engine.Engine) {
	t.Helper()
	secret, err := secure.Setup(512, 62, 80)
	if err != nil {
		t.Fatalf("Setup: %v", err)
	}
	eng := engine.New(storage.NewCatalog(), secret.N())
	p, err := New(secret, eng)
	if err != nil {
		t.Fatalf("New proxy: %v", err)
	}
	p.cache = newPlanCache(8)
	mustP(t, p, `CREATE TABLE accounts (
		id INT,
		owner STRING,
		branch STRING,
		balance INT SENSITIVE,
		opened DATE SENSITIVE
	)`)
	mustP(t, p, `INSERT INTO accounts VALUES
		(1, 'alice', 'north', 1200, '2019-04-01'),
		(2, 'bob',   'north',  300, '2020-05-02'),
		(3, 'carol', 'south', 5000, '2018-06-03'),
		(4, 'dave',  'south', -200, '2021-07-04'),
		(5, 'erin',  'east',  1200, '2017-08-05')`)
	return p, eng
}

func cacheCounters(t *testing.T, p *Proxy) (hits, misses uint64) {
	t.Helper()
	hits, misses = p.PlanCacheStats()
	return hits, misses
}

func TestPlanCacheHitsOnRepeat(t *testing.T) {
	p, _ := cachedBankSystem(t)
	const sql = `SELECT SUM(balance) FROM accounts WHERE balance > 0`

	res := mustP(t, p, sql)
	if res.Rows[0][0].I != 1200+300+5000+1200 {
		t.Fatalf("cold answer: %v", res.Rows)
	}
	_, misses0 := cacheCounters(t, p)
	if misses0 == 0 {
		t.Fatal("cold execution did not miss the cache")
	}

	// Same canonical statement, different surface text: both re-executions
	// must be served from the cache.
	res = mustP(t, p, sql)
	res2 := mustP(t, p, `select sum(balance) from accounts where balance > 0`)
	hits, misses := cacheCounters(t, p)
	if hits < 2 {
		t.Fatalf("repeat executions: %d hits, want >= 2", hits)
	}
	if misses != misses0 {
		t.Fatalf("repeat executions missed: %d -> %d", misses0, misses)
	}
	if res.Rows[0][0].I != res2.Rows[0][0].I || res.Rows[0][0].I != 1200+300+5000+1200 {
		t.Fatalf("cached answers diverge: %v vs %v", res.Rows, res2.Rows)
	}
}

// TestPlanCacheRotationInvalidation is the post-rotation differential
// through a warm cache: answers captured before a key rotation must keep
// coming back unchanged afterwards, even though the pre-rotation rewrite
// of every statement is sitting in the cache with now-stale tokens.
func TestPlanCacheRotationInvalidation(t *testing.T) {
	p, _ := cachedBankSystem(t)
	queries := []string{
		`SELECT id, balance FROM accounts ORDER BY id`,
		`SELECT SUM(balance) FROM accounts WHERE balance > 0`,
		`SELECT id FROM accounts WHERE balance > 1000 ORDER BY id`,
	}

	// Warm the cache and snapshot the plaintext answers.
	var want []*Result
	for _, q := range queries {
		mustP(t, p, q)
		want = append(want, mustP(t, p, q))
	}
	hitsBefore, _ := cacheCounters(t, p)
	if hitsBefore == 0 {
		t.Fatal("cache not warm before rotation")
	}

	if _, err := p.RotateColumn("accounts", "balance"); err != nil {
		t.Fatalf("RotateColumn: %v", err)
	}

	// Every statement re-runs through the (stale) cache: a hit here would
	// ship pre-rotation tokens and decrypt re-keyed shares into garbage,
	// so correctness of the answers proves the invalidation.
	_, missesAfterRot := cacheCounters(t, p)
	for i, q := range queries {
		got := mustP(t, p, q)
		requireSameResults(t, q, got, want[i])
	}
	_, misses := cacheCounters(t, p)
	if misses != missesAfterRot+uint64(len(queries)) {
		t.Fatalf("post-rotation executions: misses %d -> %d, want every statement re-derived",
			missesAfterRot, misses)
	}

	// Re-derived entries are cached again under the new generation.
	hitsWarm, _ := cacheCounters(t, p)
	mustP(t, p, queries[0])
	hitsAfter, _ := cacheCounters(t, p)
	if hitsAfter != hitsWarm+1 {
		t.Fatalf("cache did not re-warm after rotation (hits %d -> %d)", hitsWarm, hitsAfter)
	}

	// Mask rotation must invalidate too (comparisons ride the mask column).
	if _, err := p.RotateMask("accounts"); err != nil {
		t.Fatalf("RotateMask: %v", err)
	}
	got := mustP(t, p, queries[2])
	requireSameResults(t, queries[2], got, want[2])
}

// TestPlanCacheCatalogInvalidation: an INSERT changes nothing a rewrite
// reads, so a warm entry keeps hitting and still sees the new row (the SP
// pins a fresh snapshot per execution); DDL advances the key-store
// version, so cached plans are re-derived.
func TestPlanCacheCatalogInvalidation(t *testing.T) {
	p, _ := cachedBankSystem(t)
	const sql = `SELECT COUNT(*) FROM accounts WHERE balance > 0`

	if got := mustP(t, p, sql).Rows[0][0].I; got != 4 {
		t.Fatalf("baseline count: %d", got)
	}
	mustP(t, p, sql)
	hits0, misses0 := cacheCounters(t, p)
	if hits0 == 0 {
		t.Fatal("cache not warm")
	}

	// INSERT: the warm entry must hit and see the new row.
	mustP(t, p, `INSERT INTO accounts VALUES (6, 'frank', 'west', 42, '2022-01-01')`)
	if got := mustP(t, p, sql).Rows[0][0].I; got != 5 {
		t.Fatalf("post-INSERT count through warm cache: %d, want 5", got)
	}
	hits1, misses1 := cacheCounters(t, p)
	if hits1 != hits0+1 || misses1 != misses0 {
		t.Fatalf("INSERT invalidated the cache (hits %d -> %d, misses %d -> %d)", hits0, hits1, misses0, misses1)
	}

	// DDL: creating an unrelated table still advances the key-store
	// version (the invalidation is deliberately coarse — correctness over
	// reuse).
	mustP(t, p, sql)
	_, missesWarm := cacheCounters(t, p)
	mustP(t, p, `CREATE TABLE audit (id INT)`)
	if got := mustP(t, p, sql).Rows[0][0].I; got != 5 {
		t.Fatalf("post-DDL count: %d", got)
	}
	_, misses2 := cacheCounters(t, p)
	if misses2 != missesWarm+1 {
		t.Fatalf("DDL did not invalidate the cache (misses %d -> %d)", missesWarm, misses2)
	}
}

// TestPreparedSelectAcrossRecreate: a prepared SELECT captured its tokens
// for the table as it was. After DROP and CREATE under the same name the
// shares are under new keys, so the statement must re-derive — its stale
// tokens would drive the SP's comparisons over the new shares and return
// wrong rows with no error.
func TestPreparedSelectAcrossRecreate(t *testing.T) {
	p, _ := cachedBankSystem(t)
	const sql = `SELECT id FROM accounts WHERE balance > 1000 ORDER BY id`
	stmt, err := p.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()

	mustP(t, p, `DROP TABLE accounts`)
	mustP(t, p, `CREATE TABLE accounts (
		id INT,
		owner STRING,
		branch STRING,
		balance INT SENSITIVE,
		opened DATE SENSITIVE
	)`)
	var sb strings.Builder
	sb.WriteString("INSERT INTO accounts VALUES ")
	var want []int64
	for id := 1; id <= 24; id++ {
		balance := 100 * id * (id%3 - 1) // -100·id, 0 or +100·id
		if balance > 1000 {
			want = append(want, int64(id))
		}
		if id > 1 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, 'o', 'b', %d, '2020-01-01')", id, balance)
	}
	mustP(t, p, sb.String())

	fresh := mustP(t, p, sql)
	if len(fresh.Rows) != len(want) {
		t.Fatalf("fresh query: %v, want ids %v", fresh.Rows, want)
	}
	for i, id := range want {
		if fresh.Rows[i][0].I != id {
			t.Fatalf("fresh query: %v, want ids %v", fresh.Rows, want)
		}
	}
	got, err := stmt.ExecContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	requireSameResults(t, "prepared before DROP + CREATE", got, fresh)
}

// TestPlanCacheLRUBound: the cache never exceeds its configured capacity.
func TestPlanCacheLRUBound(t *testing.T) {
	p, _ := cachedBankSystem(t)
	for i := 0; i < 20; i++ {
		mustP(t, p, `SELECT id FROM accounts WHERE id = `+string(rune('0'+i%10)))
	}
	if n := p.cache.len(); n > 8 {
		t.Fatalf("cache holds %d entries, capacity 8", n)
	}
}

// TestPlanCacheColdAfterSetOptions: every proxy's cache holds
// planCacheSize (256) statements, and SetOptions starts a cold one — the
// benchmark flips parallelism with it and expects the next run to
// re-derive every plan.
func TestPlanCacheColdAfterSetOptions(t *testing.T) {
	p, _ := bankSystem(t)
	const sql = `SELECT SUM(balance) FROM accounts`
	mustP(t, p, sql)
	mustP(t, p, sql)
	if hits, _ := p.PlanCacheStats(); hits != 1 || p.cache.max != 256 {
		t.Fatalf("warm cache: %d hits, capacity %d; want 1 and 256", hits, p.cache.max)
	}
	p.SetOptions(Options{Parallelism: 2})
	if hits, misses := p.PlanCacheStats(); hits != 0 || misses != 0 || p.cache.len() != 0 || p.cache.max != 256 {
		t.Fatalf("after SetOptions: %d hits, %d misses, %d entries, capacity %d; want a cold 256-entry cache",
			hits, misses, p.cache.len(), p.cache.max)
	}
	mustP(t, p, sql)
	if _, misses := p.PlanCacheStats(); misses != 1 {
		t.Fatalf("first statement after SetOptions: %d misses, want 1", misses)
	}
}

// requireSameResults compares two decrypted results cell by cell, order
// included.
func requireSameResults(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: %d rows, want %d", label, len(got.Rows), len(want.Rows))
	}
	for r := range want.Rows {
		for c := range want.Rows[r] {
			if !got.Rows[r][c].Equal(want.Rows[r][c]) {
				t.Fatalf("%s: row %d col %d: %v != %v", label, r, c, got.Rows[r][c], want.Rows[r][c])
			}
		}
	}
}
