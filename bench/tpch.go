package main

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"sdb/internal/engine"
	"sdb/internal/proxy"
	"sdb/internal/secure"
	"sdb/internal/server"
	"sdb/internal/sqlparser"
	"sdb/internal/storage"
	"sdb/internal/tpch"
	"sdb/internal/types"
)

// The three workloads over TPC-H data. Sizes are what fits the run length
// BENCHMARK.json fixes with at least 100 operations per run on a 2-core
// machine; tiny sizes are for the smoke test.

func pick[T any](tiny bool, tinyVal, full T) T {
	if tiny {
		return tinyVal
	}
	return full
}

// createTPCH issues the TPC-H DDL, optionally with every column declared
// non-sensitive and optionally only for one table.
func createTPCH(p *proxy.Proxy, sensitive bool, only string) error {
	for _, ddl := range tpch.CreateStatements() {
		stmt, err := sqlparser.Parse(ddl)
		if err != nil {
			return err
		}
		ct := stmt.(*sqlparser.CreateTable)
		if only != "" && ct.Name != only {
			continue
		}
		if !sensitive {
			for i := range ct.Cols {
				ct.Cols[i].Type.Sensitive = false
			}
		}
		if _, err := p.Exec(ct.String()); err != nil {
			return err
		}
	}
	return nil
}

// preparedQueries prepares the numbered TPC-H queries on the client and
// sets its operation stream: every round runs each query once, in an order
// the seed draws anew per round. oracle(q) supplies each query's expected
// rows.
func preparedQueries(c *client, nums []int, oracle func(q tpch.Query) ([]types.Row, error), cfg config) (int, func() error, error) {
	var ops []op
	var stmts []*proxy.Stmt
	var answers [][]types.Row
	closeAll := func() error {
		var errs []error
		for _, s := range stmts {
			errs = append(errs, s.Close())
		}
		return errors.Join(errs...)
	}
	for _, q := range tpch.RunnableQueries() {
		if nums != nil && !slices.Contains(nums, q.Num) {
			continue
		}
		want, err := oracle(q)
		if err != nil {
			return 0, closeAll, fmt.Errorf("oracle Q%d: %w", q.Num, err)
		}
		sel, err := sqlparser.ParseSelect(q.SQL)
		if err != nil {
			return 0, closeAll, err
		}
		ordered := len(sel.OrderBy) > 0
		stmt, err := c.p.Prepare(q.SQL)
		if err != nil {
			return 0, closeAll, fmt.Errorf("prepare Q%d: %w", q.Num, err)
		}
		stmts = append(stmts, stmt)
		answers = append(answers, want)
		ops = append(ops, op{
			class: fmt.Sprintf("Q%d", q.Num),
			sql:   q.SQL,
			run:   stmt.ExecContext,
			check: func(rows []types.Row) error { return sameRows(rows, want, ordered) },
		})
	}
	if cfg.corruptOracle {
		corrupt(answers...)
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	var order []int
	c.next = func() op {
		if len(order) == 0 {
			order = rng.Perm(len(ops))
		}
		o := ops[order[0]]
		order = order[1:]
		return o
	}
	return len(ops), closeAll, nil
}

// tpchMemDataSeed generates the tpch-mem data on every run; the run's
// seed only orders the queries. At the scale that fits 100 operations into
// a run the small tables hold a handful of rows (4 suppliers, 60
// customers), so another data seed is another workload: single queries
// move 4x (Q21: 4 ms or 16 ms, by whether a supplier falls in the one
// nation it filters on), and p50_ms spread 0.17 across data seeds against
// 0.09 on one dataset. The other three workloads draw their data from the seed.
const tpchMemDataSeed = 1

// unbudgeted are the options of an in-process engine that never spills
// (its spill directory is set all the same, so a leak would be seen).
func unbudgeted(scratch string) engine.Options {
	return engine.Options{MemBudgetRows: -1, SpillDir: spillDir(scratch)}
}

// inProcessSP builds an unbudgeted in-process SP engine (n is its modulus,
// nil for a plaintext deployment) and the one client on it.
func inProcessSP(secret *secure.Secret, n *big.Int, tr *tracer, scratch string) (*engine.Engine, *client, error) {
	if err := os.MkdirAll(spillDir(scratch), 0o755); err != nil {
		return nil, nil, err
	}
	eng := engine.NewWithOptions(storage.NewCatalog(), n, unbudgeted(scratch))
	c, err := newClient(secret, "", eng, nil, tr)
	return eng, c, err
}

// answersFrom makes p the oracle: a query's expected rows are what p
// returns for it now.
func answersFrom(p *proxy.Proxy) func(q tpch.Query) ([]types.Row, error) {
	return func(q tpch.Query) ([]types.Row, error) {
		res, err := p.Exec(q.SQL)
		if err != nil {
			return nil, err
		}
		return res.Rows, nil
	}
}

// setupTPCHMem is the paper's experiment: every runnable TPC-H query over
// SENSITIVE columns against an in-process engine with no memory budget.
// The oracle is a plaintext engine over the same generated data.
func setupTPCHMem(cfg config, tr *tracer, scratch string) (*deployment, error) {
	sf := pick(cfg.tiny, 0.00003, 0.0004)
	secret, err := newSecret()
	if err != nil {
		return nil, err
	}
	eng, c, err := inProcessSP(secret, secret.N(), tr, scratch)
	if err != nil {
		return nil, err
	}
	plain, err := proxy.New(secret, engine.NewWithOptions(storage.NewCatalog(), nil, engine.Options{MemBudgetRows: -1}))
	if err != nil {
		return nil, err
	}
	if err := createTPCH(c.p, true, ""); err != nil {
		return nil, err
	}
	if err := createTPCH(plain, false, ""); err != nil {
		return nil, err
	}
	err = tpch.Generate(tpch.Config{ScaleFactor: sf, Seed: tpchMemDataSeed}, func(sql string) error {
		if _, err := c.p.Exec(sql); err != nil {
			return err
		}
		_, err := plain.Exec(sql)
		return err
	})
	if err != nil {
		return nil, err
	}
	n, closeStmts, err := preparedQueries(c, nil, answersFrom(plain), cfg)
	if err != nil {
		closeStmts()
		return nil, err
	}
	setParallelism := func(n int) {
		opts := unbudgeted(scratch) // SetOptions replaces every option
		opts.Parallelism = n
		eng.SetOptions(opts)
		c.p.SetOptions(proxy.Options{Parallelism: n})
	}
	return &deployment{clients: []*client{c}, round: n, warm: n, eng: eng,
		setParallelism: setParallelism, close: closeStmts}, nil
}

// spillQueries are the TPC-H queries whose joins, aggregations and sorts
// hold the most rows, so a small budget makes every one of them spill.
var spillQueries = []int{3, 5, 10, 13, 18, 21}

// setupPlainSpill loads TPC-H with every column non-sensitive and runs
// the blocking queries under a resident-row budget a small fraction of
// their state. The oracle is the same engine before the budget is set:
// spilled answers must equal the resident ones row for row, in order.
func setupPlainSpill(cfg config, tr *tracer, scratch string) (*deployment, error) {
	sf := pick(cfg.tiny, 0.0002, 0.003)
	budget := pick(cfg.tiny, 40, 2400)
	secret, err := newSecret()
	if err != nil {
		return nil, err
	}
	eng, c, err := inProcessSP(secret, nil, tr, scratch)
	if err != nil {
		return nil, err
	}
	if err := createTPCH(c.p, false, ""); err != nil {
		return nil, err
	}
	err = tpch.Generate(tpch.Config{ScaleFactor: sf, Seed: cfg.seed}, func(sql string) error {
		_, err := c.p.Exec(sql)
		return err
	})
	if err != nil {
		return nil, err
	}
	n, closeStmts, err := preparedQueries(c, spillQueries, answersFrom(c.p), cfg)
	if err != nil {
		closeStmts()
		return nil, err
	}
	limited := unbudgeted(scratch)
	limited.MemBudgetRows = budget
	eng.SetOptions(limited)
	return &deployment{clients: []*client{c}, round: n, warm: n, eng: eng, close: closeStmts}, nil
}

// lineitem columns the wire-fetch statement returns: three insensitive,
// three SENSITIVE.
var fetchColumns = []struct {
	name string
	pos  int // position in the generated tuple
	date bool
}{
	{"l_orderkey", 0, false}, {"l_linenumber", 3, false}, {"l_shipdate", 10, true},
	{"l_quantity", 4, false}, {"l_extendedprice", 5, false}, {"l_discount", 6, false},
}

// literalValue is the value the application would read back for a
// generated literal; DECIMAL columns of lineitem have scale 2.
func literalValue(e sqlparser.Expr, date bool) (types.Value, error) {
	switch l := e.(type) {
	case sqlparser.IntLit:
		return types.NewInt(l.V), nil
	case sqlparser.DecLit:
		scaled := l.Scaled
		for s := l.Scale; s < 2; s++ {
			scaled *= 10
		}
		return types.NewDecimal(scaled), nil
	case sqlparser.StrLit:
		if date {
			return types.ParseDate(l.V)
		}
		return types.NewString(l.V), nil
	}
	return types.Value{}, fmt.Errorf("unexpected literal %T in generated data", e)
}

// serve starts an SP server over eng on a loopback port and returns its
// address and a function that stops it and waits for the accept loop.
func serve(eng *engine.Engine) (*server.Server, string, func(), error) {
	srv := server.NewWithEngine(eng)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, "", nil, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve()
	}()
	return srv, addr.String(), func() { srv.Close(); <-done }, nil
}

// servedClients dials the server twice: the first client creates and
// loads the tables through load, the second is a copy of its key store.
func servedClients(secret *secure.Secret, addr, scratch string, tr *tracer, load func(p *proxy.Proxy) error) ([]*client, func() error, error) {
	var clients []*client
	closeAll := func() error {
		var errs []error
		for _, c := range clients {
			errs = append(errs, c.conn.Close())
		}
		return errors.Join(errs...)
	}
	statePath := ""
	for i := 0; i < 2; i++ {
		conn, err := server.Dial(addr)
		if err != nil {
			return nil, closeAll, err
		}
		c, err := newClient(secret, statePath, nil, conn, tr)
		if err != nil {
			conn.Close()
			return nil, closeAll, err
		}
		clients = append(clients, c)
		if i == 0 {
			if err := load(c.p); err != nil {
				return nil, closeAll, err
			}
			// The copy starts its row-id nonces 2^32 past the first
			// client's, so the two never draw the same one.
			statePath = filepath.Join(scratch, "do-state.json")
			if err := c.p.SaveState(statePath); err != nil {
				return nil, closeAll, err
			}
		}
	}
	return clients, closeAll, nil
}

// setupWireFetch serves lineitem over loopback TCP to two clients that
// fetch result sets of three sizes with an insensitive predicate, so the
// SP runs no secure operator and time goes to the wire, the server's
// sessions and the proxy's cursor decrypt. The oracle is the generated
// literals themselves.
func setupWireFetch(cfg config, tr *tracer, scratch string) (*deployment, error) {
	sf := pick(cfg.tiny, 0.0001, 0.001)
	secret, err := newSecret()
	if err != nil {
		return nil, err
	}
	eng := engine.NewWithOptions(storage.NewCatalog(), secret.N(), engine.Options{SpillDir: spillDir(scratch)})
	srv, addr, stop, err := serve(eng)
	if err != nil {
		return nil, err
	}
	var table []types.Row // the projected columns of every generated row
	clients, closeClients, err := servedClients(secret, addr, scratch, tr, func(p *proxy.Proxy) error {
		if err := createTPCH(p, true, "lineitem"); err != nil {
			return err
		}
		return tpch.Generate(tpch.Config{ScaleFactor: sf, Seed: cfg.seed}, func(sql string) error {
			if !strings.HasPrefix(sql, "INSERT INTO lineitem ") {
				return nil
			}
			stmt, err := sqlparser.Parse(sql)
			if err != nil {
				return err
			}
			for _, tuple := range stmt.(*sqlparser.Insert).Rows {
				row := make(types.Row, len(fetchColumns))
				for i, col := range fetchColumns {
					if row[i], err = literalValue(tuple[col.pos], col.date); err != nil {
						return err
					}
				}
				table = append(table, row)
			}
			_, err = p.Exec(sql)
			return err
		})
	})
	closeAll := func() error {
		err := closeClients()
		stop()
		return err
	}
	if err != nil {
		closeAll()
		return nil, err
	}

	// Cutoffs that return about 1 %, 25 % and all of the rows.
	keys := make([]int64, len(table))
	for i, r := range table {
		keys[i] = r[0].I
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] > keys[j] })
	names := make([]string, len(fetchColumns))
	for i, col := range fetchColumns {
		names[i] = col.name
	}
	var fetches []op
	var answers [][]types.Row
	for _, f := range []struct {
		class string
		rows  int
	}{{"fetch-small", len(keys) / 100}, {"fetch-mid", len(keys) / 4}, {"fetch-all", len(keys)}} {
		cutoff := int64(0)
		if f.rows < len(keys) {
			cutoff = keys[f.rows]
		}
		var want []types.Row
		for _, r := range table {
			if r[0].I > cutoff {
				want = append(want, r)
			}
		}
		answers = append(answers, want)
		sql := fmt.Sprintf("SELECT %s FROM lineitem WHERE l_orderkey > %d", strings.Join(names, ", "), cutoff)
		fetches = append(fetches, op{class: f.class, sql: sql,
			check: func(rows []types.Row) error { return sameRows(rows, want, true) }})
	}
	if cfg.corruptOracle {
		corrupt(answers...)
	}
	for i, c := range clients {
		p := c.p
		rng := rand.New(rand.NewSource(cfg.seed + int64(i)))
		var order []int
		c.next = func() op {
			if len(order) == 0 {
				order = rng.Perm(len(fetches))
			}
			o := fetches[order[0]]
			order = order[1:]
			o.run = func(ctx context.Context) (*proxy.Result, error) { return p.ExecContext(ctx, o.sql) }
			return o
		}
	}
	return &deployment{clients: clients, round: len(fetches), warm: len(fetches),
		eng: eng, srv: srv, close: closeAll}, nil
}
