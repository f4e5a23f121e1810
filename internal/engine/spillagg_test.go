package engine_test

import (
	"context"
	"fmt"
	"testing"

	"sdb/internal/engine"
	"sdb/internal/proxy"
	"sdb/internal/secure"
	"sdb/internal/spill"
	"sdb/internal/storage"
)

// aggJoinCase is one GROUP BY directly over an equi-join:
// SELECT items FROM from tail. order is an ORDER BY over the group keys
// that makes the answer's order total.
type aggJoinCase struct {
	name                     string
	items, from, tail, order string
	// pool, when set, attaches a cross-query pool of that many rows and
	// lifts the query's own budget out of the way: the pool refuses the
	// build side, and then the leaves' group tables mid-leaf.
	pool int
	// flip marks a join the planner turns around, which changes its
	// output order and so the groups' first-encounter order.
	flip bool
}

// newAggJoinProxy loads the fixture through a proxy, so SENSITIVE columns
// hold shares: ord has twelve rows per join key, so the join fans out
// and its joined rows outnumber everything a Grace join partitions; li is
// clustered by its join key, as lineitem is by its order key, has NULL
// and unmatched keys, and is more than twice ord's size, so the planner
// builds on ord whichever side it is written on; hot has one key, so its
// partition can be neither held nor split and goes chunked, and only its
// last rows (the last chunk) match every probe row, with the groups in
// another build order than the earlier rows have them.
func newAggJoinProxy(t *testing.T) (*proxy.Proxy, *engine.Engine) {
	t.Helper()
	secret, err := secure.Setup(384, 62, 80)
	if err != nil {
		t.Fatal(err)
	}
	e := engine.NewWithOptions(storage.NewCatalog(), secret.N(), engine.Options{MemBudgetRows: -1})
	p, err := proxy.New(secret, e)
	if err != nil {
		t.Fatal(err)
	}
	exec := func(sql string) {
		t.Helper()
		if _, err := p.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	exec(`CREATE TABLE ord (ok INT, cust INT, d INT, price INT SENSITIVE)`)
	exec(`CREATE TABLE li (lk INT, tag INT, u INT, qty INT SENSITIVE)`)
	exec(`CREATE TABLE hot (hk INT, w INT, x INT, s INT SENSITIVE)`)
	insert := func(table string, n int, row func(i int) string) {
		for lo := 0; lo < n; lo += 50 {
			sql := "INSERT INTO " + table + " VALUES "
			for i := lo; i < min(lo+50, n); i++ {
				if i > lo {
					sql += ", "
				}
				sql += row(i)
			}
			exec(sql)
		}
	}
	insert("ord", 360, func(i int) string {
		return fmt.Sprintf("(%d, %d, %d, %d)", i%30, i%7, i, (i*37)%101-50)
	})
	insert("li", 800, func(i int) string {
		if i%41 == 0 {
			return fmt.Sprintf("(NULL, %d, %d, %d)", i%3, i%20, i)
		}
		return fmt.Sprintf("(%d, %d, %d, %d)", i/24, i%3, i%20, (i*13)%97-40)
	})
	insert("hot", 400, func(i int) string {
		if i < 360 {
			return fmt.Sprintf("(1, %d, 2, %d)", 8-i%9, i%23)
		}
		return fmt.Sprintf("(1, %d, 0, %d)", i%9, i%23)
	})
	return p, e
}

// queryAndStats runs sql on e to completion: its rows and stats.
func queryAndStats(t *testing.T, e *engine.Engine, sql string) (*engine.Result, engine.ExecStats) {
	t.Helper()
	it, err := e.QuerySQL(context.Background(), sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	defer it.Close()
	res, err := engine.Drain(it)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return res, it.(interface{ Stats() engine.ExecStats }).Stats()
}

// TestSpillAggOverGraceJoin: a GROUP BY directly over a hash join that
// goes Grace folds inside the join's leaves, and the answer is the
// resident one row for row — in first-encounter order, which the leaves
// rebuild from the join's (probe, build) tags — at one and two workers,
// with the planner on and off. The statements run as the proxy rewrites
// them, so the sensitive aggregates are share SUM/AVG, sdb_min/sdb_max and
// a HAVING over sdb_sign. Every spilled run writes fewer rows than the
// join produces: the joined rows never reach disk. (A join that matches
// nothing still answers one row without GROUP BY.)
func TestSpillAggOverGraceJoin(t *testing.T) {
	p, e := newAggJoinProxy(t)
	cases := []aggJoinCase{
		{name: "group key covers the join key, build side flipped",
			items: "o.ok, o.d, SUM(l.qty), COUNT(*)", from: "ord o JOIN li l ON o.ok = l.lk",
			tail: "GROUP BY o.ok, o.d", order: "o.ok, o.d", flip: true},
		{name: "build-side non-key group key",
			items: "o.cust, COUNT(DISTINCT l.tag), AVG(l.qty), MIN(l.qty), MAX(o.price)",
			from:  "li l JOIN ord o ON l.lk = o.ok", tail: "GROUP BY o.cust", order: "o.cust"},
		{name: "HAVING over a share sum",
			items: "o.cust, l.tag, SUM(o.price), COUNT(*)", from: "li l JOIN ord o ON l.lk = o.ok",
			tail: "GROUP BY o.cust, l.tag HAVING SUM(o.price) > 0", order: "o.cust, l.tag"},
		{name: "plaintext, join residual",
			items: "o.ok, SUM(l.tag), COUNT(DISTINCT l.u)",
			from:  "ord o JOIN li l ON o.ok = l.lk AND l.tag < o.cust", tail: "GROUP BY o.ok", order: "o.ok", flip: true},
		{name: "plaintext, no GROUP BY",
			items: "COUNT(*), COUNT(DISTINCT o.d), SUM(l.tag), MIN(o.d), MAX(l.tag)",
			from:  "li l JOIN ord o ON l.lk = o.ok"},
		{name: "no GROUP BY, no match",
			items: "COUNT(*), SUM(l.qty)", from: "li l JOIN ord o ON l.lk = o.ok AND l.tag > o.cust + 2"},
		{name: "duplicate keys go chunked",
			items: "h.w, COUNT(*), SUM(h.s), MIN(l.qty)", from: "li l JOIN hot h ON l.u = h.hk AND l.tag >= h.x",
			tail: "GROUP BY h.w", order: "h.w"},
		{name: "group reservation refused mid-leaf",
			items: "o.ok, o.d, COUNT(DISTINCT l.tag), SUM(l.qty)", from: "li l JOIN ord o ON l.lk = o.ok",
			tail: "GROUP BY o.ok, o.d", order: "o.ok, o.d", pool: 200},
	}
	const budget = 360
	set := func(planner string, workers, rows int, pool *spill.Pool) {
		e.SetOptions(engine.Options{Parallelism: workers, ChunkSize: 4, MemBudgetRows: rows,
			BudgetPool: pool, SpillDir: t.TempDir(), Planner: planner})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sql := "SELECT " + c.items + " FROM " + c.from + " " + c.tail
			set("on", 2, -1, nil)
			res, err := p.Exec(sql)
			if err != nil {
				t.Fatal(err)
			}
			rewritten := res.Stats.RewrittenSQL
			count, err := p.Exec("SELECT COUNT(*) FROM " + c.from)
			if err != nil {
				t.Fatal(err)
			}
			joined := int(count.Rows[0][0].I)

			var resident *engine.Result
			for _, planner := range []string{"on", "off"} {
				set(planner, 2, -1, nil)
				want, st := queryAndStats(t, e, rewritten)
				if st.Spills != 0 || len(want.Rows) == 0 {
					t.Fatalf("planner %s, resident: %d rows, %d spills", planner, len(want.Rows), st.Spills)
				}
				if resident == nil {
					resident = want
				} else if !c.flip {
					engine.RequireSameRows(t, "resident, planner off vs on", want, resident)
				}
				for _, workers := range []int{1, 2} {
					label := fmt.Sprintf("planner %s, %d workers", planner, workers)
					var pool *spill.Pool
					rows := budget
					if c.pool > 0 {
						pool, rows = spill.NewPool(c.pool), 1000
					}
					set(planner, workers, rows, pool)
					got, st := queryAndStats(t, e, rewritten)
					engine.RequireSameRows(t, label, got, want)
					if st.Spills == 0 || (joined > 0 && st.SpilledRows >= joined) {
						t.Errorf("%s: %d spills of %d rows; the join produces %d", label, st.Spills, st.SpilledRows, joined)
					}
					// One spill for the join, one per leaf's generation: a
					// leaf refused mid-way writes more than the eight
					// partitions have leaves.
					if c.pool > 0 && workers == 1 && st.Spills <= 1+8 {
						t.Errorf("%s: %d spills, no leaf flushed mid-way", label, st.Spills)
					}
					if pool != nil && pool.Used() != 0 {
						t.Errorf("%s: %d pool rows still reserved", label, pool.Used())
					}
				}
			}
			if c.order == "" {
				return
			}
			// Planner on and off agree row for row on the decrypted answer
			// once it is ordered, the flipped join too.
			ordered := sql + " ORDER BY " + c.order
			var answers [2]*engine.Result
			for i, planner := range []string{"on", "off"} {
				set(planner, 2, budget, nil)
				res, err := p.Exec(ordered)
				if err != nil {
					t.Fatal(err)
				}
				answers[i] = &engine.Result{Rows: res.Rows}
			}
			engine.RequireSameRows(t, "planner on vs off, decrypted", answers[0], answers[1])
		})
	}
}
