package engine

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"sdb/internal/spill"
	"sdb/internal/storage"
)

// Tests for the parallel spilled-partition scheduler: concurrent Grace
// partition pairs, concurrent aggregation partition merges and the
// parallel run-merge tree must be indistinguishable — row for row, in
// order — from both the serial spill schedule and resident execution,
// and the shared budget's reservation accounting must hold under
// concurrency.

// parSpillOptions pins pool geometry: spilled-work tasks are scheduled
// onto the pool's workers, so workers 1 is the serial spill schedule.
func parSpillOptions(budget, workers int, dir string) Options {
	return Options{Parallelism: workers, ChunkSize: 4, MemBudgetRows: budget, SpillDir: dir}
}

// queryBudgetMax streams one SELECT to completion on e set to opts, and
// returns its rows, stats and the query's reservation high-water mark. The
// query gets a fresh budget pool with a limit no query reaches: every
// budget reservation also reserves from the pool, so the pool's mark is
// the budget's.
func queryBudgetMax(t *testing.T, e *Engine, opts Options, sql string) (*Result, ExecStats, int) {
	t.Helper()
	opts.BudgetPool = spill.NewPool(math.MaxInt)
	e.SetOptions(opts)
	res, st := queryWithStats(t, e, sql)
	return res, st, opts.BudgetPool.MaxUsed()
}

// loadParJoinTables fills fact/dim tables sized so the join build side,
// the group tables and the sort all overflow the budgets used below,
// with keys spread over every hash partition.
func loadParJoinTables(t *testing.T, engines []*Engine) {
	t.Helper()
	for _, e := range engines {
		mustExec(t, e, `CREATE TABLE fact (k INT, v INT)`)
		mustExec(t, e, `CREATE TABLE dim (k INT, d INT)`)
	}
	loadRows(t, engines, "fact", 2400, func(i int) string {
		if i%37 == 0 {
			return fmt.Sprintf("(NULL, %d)", i)
		}
		return fmt.Sprintf("(%d, %d)", i%300, i)
	})
	loadRows(t, engines, "dim", 600, func(i int) string {
		return fmt.Sprintf("(%d, %d)", i%300, i*7)
	})
}

// TestSpillParallelMatchesSerialAndMemory is the parallel-schedule
// differential: the same spilled queries run under the serial spill
// schedule (Parallelism 1), the parallel schedule (4 workers) and
// an unlimited budget, and all three must agree cell for cell in order.
// The parallel run must actually have overlapped spilled work, and both
// budgeted runs must have read run-file bytes back.
func TestSpillParallelMatchesSerialAndMemory(t *testing.T) {
	const budget = 128
	mem := NewWithOptions(storage.NewCatalog(), nil, parSpillOptions(-1, 4, t.TempDir()))
	serial := NewWithOptions(storage.NewCatalog(), nil, parSpillOptions(budget, 1, t.TempDir()))
	par := NewWithOptions(storage.NewCatalog(), nil, parSpillOptions(budget, 4, t.TempDir()))
	engines := []*Engine{mem, serial, par}
	loadParJoinTables(t, engines)

	sawParallel := false
	for _, sql := range []string{
		`SELECT fact.k, v, d FROM fact JOIN dim ON fact.k = dim.k`,
		`SELECT fact.k, COUNT(*), SUM(v), MIN(d) FROM fact JOIN dim ON fact.k = dim.k GROUP BY fact.k`,
		`SELECT k, v FROM fact ORDER BY v DESC, k`,
		`SELECT dim.k, SUM(d) FROM fact JOIN dim ON fact.k = dim.k GROUP BY dim.k ORDER BY SUM(d), dim.k`,
	} {
		want, wantSt := queryWithStats(t, mem, sql)
		gotSerial, serialSt := queryWithStats(t, serial, sql)
		gotPar, parSt := queryWithStats(t, par, sql)
		if wantSt.Spills != 0 {
			t.Fatalf("%s: unlimited engine spilled", sql)
		}
		if serialSt.Spills == 0 || parSt.Spills == 0 {
			t.Fatalf("%s: budgeted engines did not spill (serial %+v, par %+v)", sql, serialSt, parSt)
		}
		if serialSt.SpillParallelism > 1 {
			t.Fatalf("%s: serial schedule overlapped %d spilled tasks", sql, serialSt.SpillParallelism)
		}
		if parSt.SpillParallelism >= 2 {
			sawParallel = true
		}
		if serialSt.PrefetchedBytes == 0 || parSt.PrefetchedBytes == 0 {
			t.Fatalf("%s: no run-file bytes read back (serial %d, par %d)",
				sql, serialSt.PrefetchedBytes, parSt.PrefetchedBytes)
		}
		if serialSt.PeakResidentRows > budget || parSt.PeakResidentRows > budget {
			t.Fatalf("%s: spill peaks (serial %d, parallel %d) exceed budget %d",
				sql, serialSt.PeakResidentRows, parSt.PeakResidentRows, budget)
		}
		requireSameRows(t, sql+" [serial-spill]", gotSerial, want)
		requireSameRows(t, sql+" [parallel-spill]", gotPar, want)
	}
	// On one core goroutines may run every spilled task back to back, so
	// observed overlap is only required of a multi-core runner.
	if !sawParallel && runtime.GOMAXPROCS(0) > 1 {
		t.Fatal("no query overlapped spilled work despite 4 spill workers")
	}
}

// TestConcurrentSpillBudgetAccounting asserts the reservation invariant
// under concurrency: with divisible partitions, concurrent spill workers
// only admit state through TryReserve's atomic check, so the budget's
// high-water mark can never exceed MemBudgetRows — there is no
// "every worker checked before any reserved" window.
func TestConcurrentSpillBudgetAccounting(t *testing.T) {
	const budget = 128
	opts := parSpillOptions(budget, 4, t.TempDir())
	e := NewWithOptions(storage.NewCatalog(), nil, opts)
	loadParJoinTables(t, []*Engine{e})

	for _, sql := range []string{
		`SELECT fact.k, v, d FROM fact JOIN dim ON fact.k = dim.k`,
		`SELECT fact.k, COUNT(*), SUM(v) FROM fact GROUP BY fact.k`,
		`SELECT k, v FROM fact ORDER BY v, k`,
	} {
		_, st, maxUsed := queryBudgetMax(t, e, opts, sql)
		if st.Spills == 0 {
			t.Fatalf("%s: did not spill", sql)
		}
		if maxUsed > budget {
			t.Fatalf("%s: concurrent workers reserved %d rows, budget %d", sql, maxUsed, budget)
		}
	}
}

// TestConcurrentSpillBudgetSkewOvershoot pins the documented irreducible
// overshoot: duplicate-key partitions hashing cannot split are processed
// by chunked leaves that force-reserve their minimum working set, so
// with K concurrent workers the reservation high-water mark may exceed
// the budget by at most K × minSpillChunkRows — and no more.
func TestConcurrentSpillBudgetSkewOvershoot(t *testing.T) {
	const budget, workers = 48, 4
	opts := parSpillOptions(budget, workers, t.TempDir())
	e := NewWithOptions(storage.NewCatalog(), nil, opts)
	mustExec(t, e, `CREATE TABLE probe (k INT, v INT)`)
	mustExec(t, e, `CREATE TABLE build (k INT, d INT)`)
	// Eight heavy keys, one per likely hash partition: every partition is
	// a duplicate-key chunked leaf, and several run concurrently.
	loadRows(t, []*Engine{e}, "probe", 80, func(i int) string {
		return fmt.Sprintf("(%d, %d)", i%8, i)
	})
	loadRows(t, []*Engine{e}, "build", 1600, func(i int) string {
		return fmt.Sprintf("(%d, %d)", i%8, i)
	})
	// The filter names both inputs, so it stays the join's residual and the
	// skewed inputs reach the join whole (pushed below it, `v < 16` would
	// leave a 16-row build side that fits the budget).
	sql := `SELECT v, d FROM probe JOIN build ON probe.k = build.k WHERE v + 0 * d < 16`
	res, st, maxUsed := queryBudgetMax(t, e, opts, sql)
	if st.Spills == 0 {
		t.Fatalf("skewed join did not spill: %+v", st)
	}
	if len(res.Rows) != 16*200 {
		t.Fatalf("joined %d rows, want %d", len(res.Rows), 16*200)
	}
	if limit := budget + workers*minSpillChunkRows; maxUsed > limit {
		t.Fatalf("reservations reached %d, beyond budget %d + %d workers × %d min chunk = %d",
			maxUsed, budget, workers, minSpillChunkRows, limit)
	}
}
