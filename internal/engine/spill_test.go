package engine

import (
	"context"
	"fmt"
	"io"
	"io/fs"
	"math/big"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sdb/internal/bigmod"
	"sdb/internal/spill"
	"sdb/internal/storage"
	"sdb/internal/types"
)

// spillOptions pins the pool geometry every spill test uses (batch = 8
// rows, small against the budgets) so budgets and peaks are
// machine-independent and the in-flight-batch slack stays well inside
// the budget headroom.
func spillOptions(budget int, dir string) Options {
	return Options{Parallelism: 2, ChunkSize: 4, MemBudgetRows: budget, SpillDir: dir}
}

// newSpillEngine builds an engine with the pinned geometry and the given
// budget (-1 = unlimited even in the forced-budget CI re-run).
func newSpillEngine(t *testing.T, budget int) *Engine {
	t.Helper()
	return NewWithOptions(storage.NewCatalog(), nil, spillOptions(budget, t.TempDir()))
}

// loadRows bulk-inserts n generated rows into table tbl of every engine.
func loadRows(t *testing.T, engines []*Engine, tbl string, n int, gen func(i int) string) {
	t.Helper()
	const chunk = 1000
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		var sb strings.Builder
		fmt.Fprintf(&sb, "INSERT INTO %s VALUES ", tbl)
		for i := lo; i < hi; i++ {
			if i > lo {
				sb.WriteString(", ")
			}
			sb.WriteString(gen(i))
		}
		for _, e := range engines {
			mustExec(t, e, sb.String())
		}
	}
}

// queryWithStats streams one SELECT to completion and returns rows plus
// the iterator's execution stats.
func queryWithStats(t *testing.T, e *Engine, sql string) (*Result, ExecStats) {
	t.Helper()
	it, err := e.QuerySQL(context.Background(), sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	res := &Result{Columns: it.Columns()}
	for {
		batch, err := it.NextBatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		res.Rows = append(res.Rows, batch...)
	}
	stats := it.(interface{ Stats() ExecStats }).Stats()
	it.Close()
	return res, stats
}

// requireSameRows compares two results cell by cell, order included.
func requireSameRows(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: %d rows, want %d", label, len(got.Rows), len(want.Rows))
	}
	for r := range want.Rows {
		if len(got.Rows[r]) != len(want.Rows[r]) {
			t.Fatalf("%s: row %d width %d, want %d", label, r, len(got.Rows[r]), len(want.Rows[r]))
		}
		for c := range want.Rows[r] {
			if !got.Rows[r][c].Equal(want.Rows[r][c]) {
				t.Fatalf("%s: row %d col %d: %v (%s) != %v (%s)",
					label, r, c, got.Rows[r][c], got.Rows[r][c].K, want.Rows[r][c], want.Rows[r][c].K)
			}
		}
	}
}

// checkSpilled asserts a query actually exercised the spill path and
// stayed within its budget.
func checkSpilled(t *testing.T, label string, st ExecStats, budget int) {
	t.Helper()
	checkSpilledPeak(t, label, st, budget, budget)
}

// checkSpilledPeak is checkSpilled for a query whose resident-row bound is
// not the bare budget (an irreducible partition; see the caller).
func checkSpilledPeak(t *testing.T, label string, st ExecStats, budget, peak int) {
	t.Helper()
	if st.BudgetRows != budget {
		t.Fatalf("%s: BudgetRows = %d, want %d", label, st.BudgetRows, budget)
	}
	if st.Spills == 0 || st.SpilledRows == 0 || st.SpillFiles == 0 || st.SpilledBytes == 0 {
		t.Fatalf("%s: expected spilling, got stats %+v", label, st)
	}
	if st.PeakResidentRows > peak {
		t.Fatalf("%s: peak resident rows %d exceeds %d (budget %d)", label, st.PeakResidentRows, peak, budget)
	}
}

// TestSortSpillMatchesInMemory is the acceptance case for the external
// merge sort: a sort input far beyond the budget completes with
// PeakResidentRows ≤ budget and rows identical — order, ties and all —
// to the unlimited in-memory stable sort.
func TestSortSpillMatchesInMemory(t *testing.T) {
	const budget = 96
	mem := newSpillEngine(t, -1)
	spl := newSpillEngine(t, budget)
	for _, e := range []*Engine{mem, spl} {
		mustExec(t, e, `CREATE TABLE s (id INT, grp INT, v INT, name STRING)`)
	}
	gen := func(i int) string {
		if i%13 == 0 {
			return fmt.Sprintf("(%d, NULL, %d, 'n%d')", i, i%17, i%5)
		}
		// grp has heavy duplicates so the stability tie-break matters.
		return fmt.Sprintf("(%d, %d, %d, 'n%d')", i, i%7, (i*31)%101, i%5)
	}
	loadRows(t, []*Engine{mem, spl}, "s", 2500, gen)

	for _, sql := range []string{
		`SELECT id, grp, v FROM s ORDER BY grp, name`,      // dup keys → ties
		`SELECT id, name FROM s ORDER BY name DESC, grp`,   // DESC + hidden key
		`SELECT grp, v FROM s WHERE v > 10 ORDER BY v, id`, // filtered input
		`SELECT id FROM s ORDER BY grp`,                    // maximal tie runs
	} {
		want, wantSt := queryWithStats(t, mem, sql)
		got, gotSt := queryWithStats(t, spl, sql)
		if wantSt.Spills != 0 {
			t.Fatalf("reference engine spilled: %+v", wantSt)
		}
		checkSpilled(t, sql, gotSt, budget)
		requireSameRows(t, sql, got, want)
	}
}

// TestSortSpillMaxLimitIsNoLimit: a LIMIT of the largest int64 keeps every
// row, so it answers exactly as the same ORDER BY without a LIMIT, in memory
// and spilled. The sort's 2K cut threshold saturates instead of wrapping
// negative, which would cut (and re-sort) on every batch.
func TestSortSpillMaxLimitIsNoLimit(t *testing.T) {
	const budget = 96
	mem := newSpillEngine(t, -1)
	spl := newSpillEngine(t, budget)
	for _, e := range []*Engine{mem, spl} {
		mustExec(t, e, `CREATE TABLE s (id INT, v INT)`)
	}
	loadRows(t, []*Engine{mem, spl}, "s", 1000, func(i int) string {
		return fmt.Sprintf("(%d, %d)", i, (i*31)%101)
	})
	const sql = `SELECT id, v FROM s ORDER BY v`
	want := mustExec(t, mem, sql)
	for _, e := range []*Engine{mem, spl} {
		got := mustExec(t, e, sql+` LIMIT 9223372036854775807`)
		requireSameRows(t, sql+" LIMIT max", got, want)
	}
}

// TestJoinSpillMatchesInMemory forces the Grace path: a build side well
// beyond the budget, duplicate and NULL keys, and a residual predicate.
// Output must match the in-memory hash join row for row.
func TestJoinSpillMatchesInMemory(t *testing.T) {
	const budget = 128
	mem := newSpillEngine(t, -1)
	spl := newSpillEngine(t, budget)
	for _, e := range []*Engine{mem, spl} {
		mustExec(t, e, `CREATE TABLE fact (k INT, v INT)`)
		mustExec(t, e, `CREATE TABLE dim (k INT, d INT)`)
	}
	loadRows(t, []*Engine{mem, spl}, "fact", 3000, func(i int) string {
		if i%29 == 0 {
			return fmt.Sprintf("(NULL, %d)", i)
		}
		return fmt.Sprintf("(%d, %d)", i%450, i)
	})
	loadRows(t, []*Engine{mem, spl}, "dim", 600, func(i int) string {
		if i%31 == 0 {
			return fmt.Sprintf("(NULL, %d)", i)
		}
		// Duplicate build keys: two dim rows per k for half the domain.
		return fmt.Sprintf("(%d, %d)", i%450, i*7)
	})

	for _, sql := range []string{
		`SELECT fact.k, v, d FROM fact JOIN dim ON fact.k = dim.k`,
		`SELECT v, d FROM fact JOIN dim ON fact.k = dim.k AND v + d > 500`,
	} {
		want, wantSt := queryWithStats(t, mem, sql)
		got, gotSt := queryWithStats(t, spl, sql)
		if wantSt.Spills != 0 {
			t.Fatalf("reference engine spilled: %+v", wantSt)
		}
		checkSpilled(t, sql, gotSt, budget)
		if len(want.Rows) == 0 {
			t.Fatalf("%s: empty reference result, test is vacuous", sql)
		}
		requireSameRows(t, sql, got, want)
	}
}

// TestJoinSpillDuplicateKeySkew drives the chunked-leaf fallback: every
// build row shares one key, so re-partitioning can never split the
// partition and the join must process it in budget-sized chunks.
func TestJoinSpillDuplicateKeySkew(t *testing.T) {
	const budget = 64
	mem := newSpillEngine(t, -1)
	spl := newSpillEngine(t, budget)
	for _, e := range []*Engine{mem, spl} {
		mustExec(t, e, `CREATE TABLE probe (k INT, v INT)`)
		mustExec(t, e, `CREATE TABLE build (k INT, d INT)`)
	}
	loadRows(t, []*Engine{mem, spl}, "probe", 40, func(i int) string {
		return fmt.Sprintf("(1, %d)", i)
	})
	loadRows(t, []*Engine{mem, spl}, "build", 500, func(i int) string {
		return fmt.Sprintf("(1, %d)", i)
	})
	// The filter names both inputs so the planner cannot push it below the
	// join (a pushed `v < 2` leaves a two-row build side that never spills):
	// it stays the join's residual and both inputs reach the join whole.
	sql := `SELECT v, d FROM probe JOIN build ON probe.k = build.k WHERE v + 0 * d < 2`
	want, _ := queryWithStats(t, mem, sql)
	got, gotSt := queryWithStats(t, spl, sql)
	checkSpilled(t, sql, gotSt, budget)
	if len(want.Rows) != 2*500 {
		t.Fatalf("expected 1000 joined rows, got %d", len(want.Rows))
	}
	requireSameRows(t, sql, got, want)
}

// TestKeylessJoinSpillsUnderBudget: a join with no equality key — a theta
// condition in WHERE or ON, or none at all — is the hash join on the empty
// key, so its build side reserves from the budget like any other and, when
// refused, spills as one Grace partition pair joined as a block nested
// loop. Re-hashing the empty key cannot split that pair, so it is never
// re-partitioned: with the planner on (the condition is the join's
// residual, and the aggregation folds inside the leaves, so no joined row
// is written) the COUNT(*) writes each input row once.
func TestKeylessJoinSpillsUnderBudget(t *testing.T) {
	const budget = 100
	const na, nb = 300, 2000
	mem := newSpillEngine(t, -1)
	spl := newSpillEngine(t, budget)
	onOpts := spillOptions(budget, t.TempDir())
	onOpts.Planner = "on"
	on := NewWithOptions(storage.NewCatalog(), nil, onOpts)
	engines := []*Engine{mem, spl, on}
	for _, e := range engines {
		mustExec(t, e, `CREATE TABLE a (id INT, v INT)`)
		mustExec(t, e, `CREATE TABLE b (id INT, w INT)`)
	}
	loadRows(t, engines, "a", na, func(i int) string {
		return fmt.Sprintf("(%d, %d)", i, i*37%na)
	})
	loadRows(t, engines, "b", nb, func(i int) string {
		return fmt.Sprintf("(%d, %d)", i, i*53%nb)
	})
	for _, sql := range []string{
		`SELECT COUNT(*) FROM a, b WHERE a.v > b.w`,
		`SELECT a.id, b.id FROM a JOIN b ON a.v + 1700 < b.w`,
		`SELECT COUNT(*) FROM a, b`,
	} {
		t.Run(sql, func(t *testing.T) {
			want, wantSt := queryWithStats(t, mem, sql)
			got, gotSt := queryWithStats(t, spl, sql)
			if wantSt.Spills != 0 {
				t.Fatalf("reference engine spilled: %+v", wantSt)
			}
			if len(want.Rows) == 0 {
				t.Fatalf("%s: empty reference result, test is vacuous", sql)
			}
			checkSpilled(t, sql, gotSt, budget)
			requireSameRows(t, sql, got, want)
		})
	}
	sql := `SELECT COUNT(*) FROM a, b WHERE a.v > b.w`
	if _, st := queryWithStats(t, on, sql); st.SpilledRows >= 2*(na+nb) {
		t.Fatalf("%s: %d spilled rows, want < %d (a keyless partition is never re-partitioned): %+v",
			sql, st.SpilledRows, 2*(na+nb), st)
	}
}

// TestAggSpillMatchesInMemory forces grouped-state spilling across every
// aggregate kind (COUNT, COUNT(x), COUNT(DISTINCT), SUM, SUM(DISTINCT),
// AVG, MIN, MAX) with NULLs in both keys and arguments.
//
// Every query stays within the budget but the DISTINCT one, which is held
// to the bound that actually applies. Its NULL group carries 11 distinct s
// and 50 distinct v: 62 resident rows in one group, more than the 48 rows
// this budget lets operators reserve (the rest is pipeline headroom), and a
// single group cannot be split. partitionRuns documents the case: the
// irreducible partition is force-reserved and the overage reported. The
// other spill worker may at that moment hold a partition it was admitted
// with, up to the full reservable 48, so the honest bound is their sum —
// which worker gets there first is scheduling, and is why asserting the
// bare budget here failed a few runs in a hundred under CPU load.
func TestAggSpillMatchesInMemory(t *testing.T) {
	const (
		budget     = 96
		reservable = budget / 2 // spill.NewBudget caps headroom at half
		nullGroup  = 1 + 11 + 50
	)
	mem := newSpillEngine(t, -1)
	spl := newSpillEngine(t, budget)
	for _, e := range []*Engine{mem, spl} {
		mustExec(t, e, `CREATE TABLE ev (grp INT, v INT, s STRING)`)
	}
	loadRows(t, []*Engine{mem, spl}, "ev", 4000, func(i int) string {
		switch i % 19 {
		case 0:
			return fmt.Sprintf("(NULL, %d, 's%d')", i%50, i%11)
		case 1:
			return fmt.Sprintf("(%d, NULL, 's%d')", i%700, i%11)
		default:
			return fmt.Sprintf("(%d, %d, 's%d')", i%700, i%97-40, i%11)
		}
	})

	for _, q := range []struct {
		sql  string
		peak int
	}{
		{`SELECT grp, COUNT(*), COUNT(v), SUM(v), AVG(v), MIN(v), MAX(s) FROM ev GROUP BY grp`, budget},
		{`SELECT grp, COUNT(DISTINCT s), SUM(DISTINCT v) FROM ev GROUP BY grp`, reservable + nullGroup},
		{`SELECT grp, COUNT(*) FROM ev GROUP BY grp HAVING COUNT(*) > 5`, budget},
		{`SELECT grp, SUM(v) FROM ev GROUP BY grp ORDER BY grp DESC`, budget},
	} {
		want, wantSt := queryWithStats(t, mem, q.sql)
		got, gotSt := queryWithStats(t, spl, q.sql)
		if wantSt.Spills != 0 {
			t.Fatalf("reference engine spilled: %+v", wantSt)
		}
		checkSpilledPeak(t, q.sql, gotSt, budget, q.peak)
		if len(want.Rows) < 300 {
			t.Fatalf("%s: only %d groups, spill not forced", q.sql, len(want.Rows))
		}
		requireSameRows(t, q.sql, got, want)
	}
}

// TestAggregationStateCountedOnce: an aggregation folds into one state
// table, so each group weighs one row against the budget however many
// workers the engine has. The G groups interleave so that every group
// lands in both halves of some batch — where one table per worker held
// about 2G groups and spilled under a budget between G and 2G. The plain
// GROUP BY runs serially; the secure one (a share SUM whose argument is a
// row program) runs on both workers, whose scratch tables the one table
// absorbs after every batch.
func TestAggregationStateCountedOnce(t *testing.T) {
	const (
		groups = 201 // odd: a group's position in the 8-row batch shifts each cycle
		budget = 300 // threshold 300 - 6×8 = 252: above G, below 2G
	)
	check := func(t *testing.T, sql string, want, got *Result, st ExecStats) {
		t.Helper()
		if st.Spills != 0 || st.SpilledRows != 0 {
			t.Fatalf("%d groups under a %d-row budget: %d spills of %d rows, want none", groups, budget, st.Spills, st.SpilledRows)
		}
		if len(want.Rows) != groups {
			t.Fatalf("%d groups, want %d", len(want.Rows), groups)
		}
		requireSameRows(t, sql, got, want)
	}
	t.Run("plain", func(t *testing.T) {
		mem := newSpillEngine(t, -1)
		spl := newSpillEngine(t, budget)
		for _, e := range []*Engine{mem, spl} {
			mustExec(t, e, `CREATE TABLE ev (grp INT, v INT)`)
		}
		loadRows(t, []*Engine{mem, spl}, "ev", 10*groups, func(i int) string {
			return fmt.Sprintf("(%d, %d)", i%groups, i%13)
		})
		sql := `SELECT grp, COUNT(*), SUM(v) FROM ev GROUP BY grp`
		want, _ := queryWithStats(t, mem, sql)
		got, st := queryWithStats(t, spl, sql)
		check(t, sql, want, got, st)
	})
	t.Run("secure", func(t *testing.T) {
		vals := make([]int64, 10*groups)
		for i := range vals {
			vals[i] = int64(i%13 - 6)
		}
		f := newSecureFixture(t, vals)
		flat, _ := f.s.FlatKey()
		sql := fmt.Sprintf(`SELECT id %% %d, SUM(%s), COUNT(*) FROM enc GROUP BY id %% %d`,
			groups, f.flattenSQL("v", f.ck, flat), groups)
		f.eng.SetOptions(spillOptions(-1, t.TempDir()))
		want, _ := queryWithStats(t, f.eng, sql)
		f.eng.SetOptions(spillOptions(budget, t.TempDir()))
		sig, err := planSig(f.eng, sql)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(sig, "agg‖") {
			t.Fatalf("share SUM not on the worker pool: %s", sig)
		}
		got, st := queryWithStats(t, f.eng, sql)
		check(t, sql, want, got, st)
	})
}

// TestSecureAggSpill pins the serializable tournament states: sdb_min and
// sdb_max over encrypted shares, grouped so the state tables spill, must
// select exactly the winners the in-memory tournament selects (the tags
// are deterministic, so the shares compare bit-identical).
func TestSecureAggSpill(t *testing.T) {
	vals := make([]int64, 60)
	for i := range vals {
		vals[i] = int64((i*37)%113 - 50)
	}
	f := newSecureFixture(t, vals)
	flat, _ := f.s.FlatKey()
	mflat, _ := f.s.FlatKey()
	reveal := hex(bigmod.Mul(flat.M, mflat.M, f.s.N()))
	tagV := f.flattenSQL("v", f.ck, flat)
	tagM := f.flattenSQL("m", f.mask, mflat)
	sql := fmt.Sprintf(
		`SELECT id %% 7, sdb_min(%s, %s, %s, %s), sdb_max(%s, %s, %s, %s), COUNT(*) FROM enc GROUP BY id %% 7`,
		tagV, tagM, reveal, hex(f.s.N()),
		tagV, tagM, reveal, hex(f.s.N()))

	want, wantSt := queryWithStats(t, f.eng, sql)
	if wantSt.Spills != 0 {
		t.Fatalf("unbudgeted secure engine spilled: %+v", wantSt)
	}
	// Flip the same engine into forced-spill mode: 7 groups > the
	// reservable half of an 8-row budget.
	f.eng.SetOptions(spillOptions(8, t.TempDir()))
	got, gotSt := queryWithStats(t, f.eng, sql)
	if gotSt.Spills == 0 {
		t.Fatalf("secure aggregation did not spill: %+v", gotSt)
	}
	requireSameRows(t, sql, got, want)
}

// TestSecExtremeSpillRowRoundTrip pins the spilled sdb_min/sdb_max state
// through the run-file codec: the winner's [tag, mask] shares, or [NULL,
// NULL] before any candidate, come back as the same winner.
func TestSecExtremeSpillRowRoundTrip(t *testing.T) {
	tag, _ := new(big.Int).SetString("deadbeefcafe0123456789abcdef", 16)
	for i, st := range []*secExtremeState{
		{},                              // no candidate seen
		{tag: tag, mtag: big.NewInt(0)}, // a legitimate residue can be zero
		{tag: big.NewInt(1), mtag: tag},
		{tag: tag, mtag: new(big.Int).Lsh(tag, 300)},
	} {
		row, err := st.spillRow()
		if err != nil {
			t.Fatalf("case %d: spill: %v", i, err)
		}
		raw, err := types.AppendRow(nil, row)
		if err != nil {
			t.Fatalf("case %d: encode: %v", i, err)
		}
		d := types.Decoder{B: raw}
		back := d.Row()
		if d.Err != nil || len(d.B) != 0 {
			t.Fatalf("case %d: decode: %v (%d bytes left)", i, d.Err, len(d.B))
		}
		got := &secExtremeState{tag: big.NewInt(5), mtag: big.NewInt(7)}
		if err := got.loadSpillRow(back); err != nil {
			t.Fatalf("case %d: load: %v", i, err)
		}
		if st.tag == nil {
			if got.tag != nil || got.mtag != nil {
				t.Fatalf("case %d: empty state loaded as tag %v mask %v", i, got.tag, got.mtag)
			}
			continue
		}
		if got.tag == nil || got.tag.Cmp(st.tag) != 0 || got.mtag.Cmp(st.mtag) != 0 {
			t.Fatalf("case %d: round trip diverged: (%v,%v) != (%v,%v)", i, got.tag, got.mtag, st.tag, st.mtag)
		}
	}
}

// TestSecExtremeSpillRowRejectsGarbage: a run file holding anything but
// [share, share] or [NULL, NULL] for an sdb_min/sdb_max state is refused
// rather than read as some winner.
func TestSecExtremeSpillRowRejectsGarbage(t *testing.T) {
	st := &secExtremeState{tag: big.NewInt(5), mtag: big.NewInt(7)}
	share := types.NewShare(big.NewInt(3))
	for _, bad := range []types.Row{
		nil,
		{types.NewString("\x00\x00\x00\x01\x03\x00\x00\x00\x01\x04")},
		{share},
		{share, types.Null},
		{types.Null, share},
		{share, types.NewInt(4)},
		{types.NewString("x"), share},
		{share, share, share},
	} {
		if err := st.loadSpillRow(bad); err == nil {
			t.Errorf("spill row %v loaded as tag %v mask %v", bad, st.tag, st.mtag)
		}
	}
}

// TestDistinctAndTopKSpillUnderBudget: DISTINCT and ORDER BY … LIMIT hold
// their state within the budget like every other blocking operator.
// DISTINCT is an aggregation without aggregates, so its 4 000 distinct rows
// spill and re-split through the group table; the sort sink reserves every
// row it keeps, so a K beyond the budget's reservation threshold — 3 000,
// or 100 against a 100-row budget — spills its runs. Each must match the
// unbudgeted answer row for row — order included: first encounter for
// DISTINCT, the stable sort for the LIMIT.
func TestDistinctAndTopKSpillUnderBudget(t *testing.T) {
	const budget = 100
	mem := newSpillEngine(t, -1)
	spl := newSpillEngine(t, budget)
	for _, e := range []*Engine{mem, spl} {
		mustExec(t, e, `CREATE TABLE big (id INT, v INT)`)
	}
	// 5 000 rows, 4 000 distinct v in scrambled order; the last 1 000 rows
	// repeat earlier values.
	loadRows(t, []*Engine{mem, spl}, "big", 5000, func(i int) string {
		return fmt.Sprintf("(%d, %d)", i, (i%4000)*2957%4001)
	})
	for _, sql := range []string{
		`SELECT DISTINCT v FROM big`,
		`SELECT DISTINCT v FROM big ORDER BY v DESC`,
		`SELECT id FROM big ORDER BY v LIMIT 3000`,
		`SELECT id FROM big ORDER BY v LIMIT 100`,
	} {
		t.Run(sql, func(t *testing.T) {
			want, wantSt := queryWithStats(t, mem, sql)
			got, gotSt := queryWithStats(t, spl, sql)
			if wantSt.Spills != 0 {
				t.Fatalf("reference engine spilled: %+v", wantSt)
			}
			if n := len(want.Rows); n != 100 && n != 3000 && n != 4000 {
				t.Fatalf("%s: %d rows, want 4000 distinct or 3000 or 100 limited", sql, n)
			}
			checkSpilled(t, sql, gotSt, budget)
			requireSameRows(t, sql, got, want)
		})
	}
}

// TestCloseMidSpillCleansTempFiles closes a cursor between batches of a
// spilled query and requires the spill directory to be empty immediately
// (Rows.Close in the driver funnels into exactly this teardown).
func TestCloseMidSpillCleansTempFiles(t *testing.T) {
	dir := t.TempDir()
	e := NewWithOptions(storage.NewCatalog(), nil, spillOptions(64, dir))
	mustExec(t, e, `CREATE TABLE big (id INT, v INT)`)
	loadRows(t, []*Engine{e}, "big", 3000, func(i int) string {
		return fmt.Sprintf("(%d, %d)", i, (i*13)%991)
	})
	it, err := e.QuerySQL(context.Background(), `SELECT id, v FROM big ORDER BY v, id`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := it.NextBatch(); err != nil {
		t.Fatal(err)
	}
	st := it.(interface{ Stats() ExecStats }).Stats()
	if st.SpillFiles == 0 {
		t.Fatal("query did not spill; mid-stream cleanup test is vacuous")
	}
	if entries, _ := os.ReadDir(dir); len(entries) == 0 {
		t.Fatal("expected live spill files mid-stream")
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("Close left %d spill entries behind", len(entries))
	}
}

// TestCancelMidSpillCleansTempFiles cancels the query context mid-stream
// and never calls Close: the context hook alone must remove every spill
// file.
func TestCancelMidSpillCleansTempFiles(t *testing.T) {
	dir := t.TempDir()
	e := NewWithOptions(storage.NewCatalog(), nil, spillOptions(64, dir))
	mustExec(t, e, `CREATE TABLE big (id INT, v INT)`)
	loadRows(t, []*Engine{e}, "big", 3000, func(i int) string {
		return fmt.Sprintf("(%d, %d)", i, (i*13)%991)
	})
	ctx, cancel := context.WithCancel(context.Background())
	it, err := e.QuerySQL(ctx, `SELECT id, v FROM big ORDER BY v, id`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := it.NextBatch(); err != nil {
		t.Fatal(err)
	}
	if st := it.(interface{ Stats() ExecStats }).Stats(); st.SpillFiles == 0 {
		t.Fatal("query did not spill; cancel cleanup test is vacuous")
	}
	cancel() // and walk away — no Close
	deadline := time.Now().Add(5 * time.Second)
	for {
		entries, _ := os.ReadDir(dir)
		if len(entries) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("context cancel left %d spill entries behind", len(entries))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := it.NextBatch(); err == nil {
		t.Fatal("cancelled spilled cursor served another batch")
	}
}

// TestCancelDuringSpillingBuild cancels while a blocking operator is
// still draining (and spilling) its input; the open call must surface
// the cancellation and the files must disappear without Close.
func TestCancelDuringSpillingBuild(t *testing.T) {
	dir := t.TempDir()
	e := NewWithOptions(storage.NewCatalog(), nil, spillOptions(64, dir))
	mustExec(t, e, `CREATE TABLE big (id INT, v INT)`)
	loadRows(t, []*Engine{e}, "big", 5000, func(i int) string {
		return fmt.Sprintf("(%d, %d)", i, (i*13)%991)
	})
	ctx, cancel := context.WithCancel(context.Background())
	it, err := e.QuerySQL(ctx, `SELECT id, v FROM big ORDER BY v, id`)
	if err != nil {
		t.Fatal(err)
	}
	cancel() // before the first batch: open() dies inside the sort drain
	if _, err := it.NextBatch(); err == nil {
		t.Fatal("cancelled query produced a batch")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		entries, _ := os.ReadDir(dir)
		if len(entries) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("cancel-during-build left %d spill entries behind", len(entries))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestAggSpillDistinctHeavyGroups pins the budget seeing DISTINCT dedup
// sets, not just group counts: few groups, each with a large distinct
// set, must spill and — because the groups are divisible — finalize
// within the budget.
func TestAggSpillDistinctHeavyGroups(t *testing.T) {
	const budget = 96
	mem := newSpillEngine(t, -1)
	spl := newSpillEngine(t, budget)
	for _, e := range []*Engine{mem, spl} {
		mustExec(t, e, `CREATE TABLE dh (grp INT, v INT)`)
	}
	// 80 groups × 20 distinct values each: group count alone (80) nearly
	// fits the budget, but the dedup state (1600 entries per DISTINCT
	// aggregate) does not — while each single group's state (≈41 rows
	// for both aggregates) still fits, so recursive splitting must land
	// the finalize inside the budget.
	loadRows(t, []*Engine{mem, spl}, "dh", 1600, func(i int) string {
		return fmt.Sprintf("(%d, %d)", i%80, i)
	})
	sql := `SELECT grp, COUNT(DISTINCT v), SUM(DISTINCT v) FROM dh GROUP BY grp`
	want, _ := queryWithStats(t, mem, sql)
	got, gotSt := queryWithStats(t, spl, sql)
	checkSpilled(t, sql, gotSt, budget)
	requireSameRows(t, sql, got, want)
}

// TestAggSpillSingleGroupDistinct is the documented carve-out: one group
// whose DISTINCT set alone exceeds the budget is irreducible (splitting
// by group key cannot divide it), so the query completes correctly,
// spills during the drain, and reports the finalize-time overage
// honestly in PeakResidentRows instead of hiding it.
func TestAggSpillSingleGroupDistinct(t *testing.T) {
	const budget = 64
	mem := newSpillEngine(t, -1)
	spl := newSpillEngine(t, budget)
	for _, e := range []*Engine{mem, spl} {
		mustExec(t, e, `CREATE TABLE sg (v INT)`)
	}
	const distinct = 800
	loadRows(t, []*Engine{mem, spl}, "sg", 1600, func(i int) string {
		return fmt.Sprintf("(%d)", i%distinct)
	})
	sql := `SELECT COUNT(DISTINCT v), SUM(DISTINCT v), COUNT(*) FROM sg`
	want, _ := queryWithStats(t, mem, sql)
	got, gotSt := queryWithStats(t, spl, sql)
	if gotSt.Spills == 0 {
		t.Fatalf("distinct-heavy single group did not spill: %+v", gotSt)
	}
	if gotSt.PeakResidentRows < distinct {
		t.Fatalf("PeakResidentRows %d hides the irreducible %d-entry distinct set", gotSt.PeakResidentRows, distinct)
	}
	requireSameRows(t, sql, got, want)
}

// TestAggSpillOneKeySplitsOnce: a one-key GROUP BY whose DISTINCT set
// spills a record per generation leaves more records in its one partition
// than the budget grants. A split under a deeper salt sends every record
// to one sub-partition — they share a key — so that sub-partition merges
// as irreducible: one split's worth of files and spilled rows, not one per
// level down to maxAggSplitDepth.
func TestAggSpillOneKeySplitsOnce(t *testing.T) {
	const budget = 16
	mem := newSpillEngine(t, -1)
	spl := newSpillEngine(t, budget)
	for _, e := range []*Engine{mem, spl} {
		mustExec(t, e, `CREATE TABLE ok (g INT, v INT)`)
	}
	loadRows(t, []*Engine{mem, spl}, "ok", 1600, func(i int) string {
		return fmt.Sprintf("(7, %d)", i)
	})
	sql := `SELECT g, COUNT(DISTINCT v), COUNT(*) FROM ok GROUP BY g`
	want, _ := queryWithStats(t, mem, sql)
	got, st := queryWithStats(t, spl, sql)
	requireSameRows(t, sql, got, want)
	// Every spill writes the one group's record: st.Spills records in the
	// partition, which the budget refuses in one reservation.
	records := st.Spills
	if records <= max(budget, minSpillChunkRows) {
		t.Fatalf("%d records do not outgrow the budget: %+v", records, st)
	}
	// Generations, one split of them, the one-row output run.
	if want := 2*records + 1; st.SpilledRows != want {
		t.Errorf("spilled rows = %d, want %d (%d records, split once): %+v", st.SpilledRows, want, records, st)
	}
	// The partition files, one split's sub-partitions, the output run.
	if want := 2*spillPartitions + 1; st.SpillFiles != want {
		t.Errorf("spill files = %d, want %d: %+v", st.SpillFiles, want, st)
	}
}

// TestIntegerSumOverflowErrors: SUM and AVG over INT and DECIMAL add in
// 128 bits and fail when the value does not fit an int64 — the same
// overflow-checked arithmetic the DO's decrypted AVG runs — instead of
// wrapping silently. Two rows of 2^62 must error resident, spilled (the
// two rows' partial states meet in a merge of spilled runs) and with the
// planner off; a mean whose sum does not fit an int64 and a sum whose
// running total passes 2^63 before coming back are exact in every one.
func TestIntegerSumOverflowErrors(t *testing.T) {
	engines := map[string]*Engine{
		"resident":    NewWithOptions(storage.NewCatalog(), nil, Options{Parallelism: 2, ChunkSize: 4, MemBudgetRows: -1}),
		"spilled":     newSpillEngine(t, 48),
		"planner-off": NewWithOptions(storage.NewCatalog(), nil, Options{Parallelism: 2, ChunkSize: 4, MemBudgetRows: -1, Planner: "off"}),
	}
	var all []*Engine
	for _, e := range engines {
		mustExec(t, e, `CREATE TABLE big (g INT, x INT, d DECIMAL(10,2))`)
		all = append(all, e)
	}
	// Group 0 holds the two 2^62 rows at opposite ends of 400 rows over
	// 200 groups, so under the budget each lands in a different spill run.
	loadRows(t, all, "big", 400, func(i int) string {
		switch i {
		case 0, 399:
			return "(0, 4611686018427387904, 46116860184273879.04)"
		}
		return fmt.Sprintf("(%d, %d, %d.00)", 1+i%199, i, i)
	})
	for name, e := range engines {
		for _, sql := range []string{
			`SELECT SUM(x) FROM big`,
			`SELECT AVG(x) FROM big WHERE g = 0`,
			`SELECT SUM(d) FROM big`,
			`SELECT AVG(d) FROM big WHERE g = 0`,
			`SELECT g, SUM(x) FROM big GROUP BY g`,
			`SELECT g, AVG(x) FROM big GROUP BY g`,
			`SELECT g, AVG(d) FROM big GROUP BY g ORDER BY g`,
		} {
			it, err := e.QuerySQL(context.Background(), sql)
			if err == nil {
				_, err = drainIter(it)
				if st := it.(interface{ Stats() ExecStats }).Stats(); name == "spilled" && strings.Contains(sql, "GROUP BY") && st.Spills == 0 {
					t.Errorf("%s: %s did not spill", name, sql)
				}
				it.Close()
			}
			if err == nil || !strings.Contains(err.Error(), "overflow") {
				t.Errorf("%s: %s: error %v, want an overflow", name, sql, err)
			}
		}
		// The mean of all 400 rows fits although their sum, 2^63 + 79 401
		// (DECIMAL: 2^63 + 7 940 100 hundredths), does not.
		res := mustExec(t, e, `SELECT AVG(x), AVG(d) FROM big`)
		if got := res.Rows[0]; got[0].I != 1<<61+19850 || got[1].I != 1<<61+1985025 {
			t.Errorf("%s: AVG over a sum past 2^63 = %v", name, got)
		}
		// 2^62 + 2^62 passes 2^63; the third row brings the total back to 300.
		mustExec(t, e, `CREATE TABLE back (x INT)`)
		mustExec(t, e, `INSERT INTO back VALUES (4611686018427387904), (4611686018427387904), (-9223372036854775508)`)
		res = mustExec(t, e, `SELECT SUM(x), AVG(x) FROM back`)
		if got := res.Rows[0]; got[0].I != 300 || got[1].I != 10000 {
			t.Errorf("%s: SUM, AVG over a total that passes 2^63 = %v", name, got)
		}
	}
}

// drainIter reads an iterator to its end.
func drainIter(it RowIterator) (int, error) {
	n := 0
	for {
		batch, err := it.NextBatch()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		n += len(batch)
	}
}

// spillFileCount counts the files under a spill directory (each query
// spills into its own session directory there).
func spillFileCount(dir string) int {
	n := 0
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			n++
		}
		return nil
	})
	return n
}

// cancelMidLeaf is a query context that cancels itself at its third Err
// check after the spill directory first holds more than files files —
// once the join's partition files have been joined by the aggregation's
// partition files, i.e. after the first Grace leaf wrote its group table:
// at the next leaf's first probe-row check past its build load.
type cancelMidLeaf struct {
	context.Context
	cancel context.CancelFunc
	dir    string
	files  int
	checks atomic.Int32
}

func (c *cancelMidLeaf) Err() error {
	if spillFileCount(c.dir) > c.files && c.checks.Add(1) == 3 {
		c.cancel()
	}
	return c.Context.Err()
}

// TestSpillAggOverGraceJoinFailures: a GROUP BY folding inside a Grace
// join's leaves fails cleanly when a leaf fails — its context cancelled
// in the middle of a leaf's probe, after an earlier leaf's groups reached
// disk, or a share argument of the wrong kind in one row of a leaf's
// probe. The query ends in that error, and once it is closed its spill
// directory is empty, the pool holds no reservation and no goroutine or
// descriptor is left, at one and two workers.
func TestSpillAggOverGraceJoinFailures(t *testing.T) {
	n := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 127), big.NewInt(1))
	const build, probe = 400, 10000
	for _, workers := range []int{1, 2} {
		for _, tc := range []struct {
			name, sql, want string
			cancel          bool
		}{
			{name: "cancelled mid-leaf", cancel: true, want: context.Canceled.Error(),
				sql: `SELECT a.k, COUNT(*), SUM(b.w) FROM a JOIN b ON a.k = b.k GROUP BY a.k`},
			{name: "wrong-kind share argument", want: "must be a share",
				sql: fmt.Sprintf(`SELECT a.k, SUM(sdb_mul(CASE WHEN a.id = 6001 THEN a.id ELSE a.v END, a.v, %s)) `+
					`FROM a JOIN b ON a.k = b.k GROUP BY a.k`, hex(n))},
		} {
			t.Run(fmt.Sprintf("%s, %d workers", tc.name, workers), func(t *testing.T) {
				pool, dir := spill.NewPool(1<<20), t.TempDir()
				e := NewWithOptions(storage.NewCatalog(), n, Options{Parallelism: workers,
					MemBudgetRows: 400, BudgetPool: pool, SpillDir: dir, Planner: "on"})
				mustExec(t, e, `CREATE TABLE a (id INT, k INT, v INT SENSITIVE)`)
				mustExec(t, e, `CREATE TABLE b (k INT, w INT)`)
				loadRows(t, []*Engine{e}, "a", probe, func(i int) string {
					return fmt.Sprintf("(%d, %d, 0x%x)", i, i%100, i*7919+1)
				})
				loadRows(t, []*Engine{e}, "b", build, func(i int) string { return fmt.Sprintf("(%d, %d)", i%100, i) })
				if sig, _ := planSig(e, tc.sql); !strings.HasPrefix(sig, "π(agg") || !strings.HasSuffix(sig, "(hash1(a, b)))") {
					t.Fatalf("plan %s: want the aggregation directly on the join", sig)
				}

				ledger := newQueryLedger()
				var ctx context.Context = context.Background()
				if tc.cancel {
					c := &cancelMidLeaf{dir: dir, files: 2 * spillPartitions}
					c.Context, c.cancel = context.WithCancel(ctx)
					defer c.cancel()
					ctx = c
				}
				it, err := e.QuerySQL(ctx, tc.sql)
				if err != nil {
					t.Fatal(err)
				}
				var rows int
				for err == nil {
					var batch []types.Row
					batch, err = it.NextBatch()
					rows += len(batch)
				}
				st := it.(interface{ Stats() ExecStats }).Stats()
				it.Close()
				if err == io.EOF || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("query ended in %v after %d rows, want an error containing %q", err, rows, tc.want)
				}
				if st.Spills < 2 {
					t.Fatalf("%d spills: no leaf wrote its groups before the failure — the test is vacuous", st.Spills)
				}
				ledger.check(t, pool, dir)
			})
		}
	}
}
