// Package engine is the service provider's relational engine — the
// substrate the paper instantiates with Spark SQL + Hive UDFs (§2.2). It
// executes the SQL dialect of internal/sqlparser over internal/storage
// tables with a registry of SDB UDFs (sdb_mul, sdb_keyupdate, sdb_sign, …)
// and secure aggregates (share SUM, sdb_min/sdb_max) that operate purely on
// encrypted shares, row helpers and proxy-issued tokens.
//
// The engine never holds key material: everything it can compute about
// sensitive data is exactly what the tokens in the rewritten query let it
// compute, which is the paper's security posture at the SP.
//
// Execution shape (docs/architecture.md, docs/operators.md): every
// SELECT plans a Volcano-style streaming operator tree whose blocking
// operators retain bounded state; per-row secure arithmetic runs chunked
// on the internal/parallel pool, other work on the calling goroutine; and
// past the per-query memory budget the blocking operators spill to
// internal/spill sessions — independent spilled partitions executing in
// parallel on the same pool — while preserving the exact in-memory output
// order.
package engine

import (
	"context"
	"fmt"
	"math/big"
	"strings"
	"sync"
	"sync/atomic"

	"sdb/internal/bigmod"
	"sdb/internal/parallel"
	"sdb/internal/spill"
	"sdb/internal/sqlparser"
	"sdb/internal/storage"
	"sdb/internal/types"
)

// hidden per-table auxiliary column names exposed to rewritten queries.
const (
	// RowIDColumn is the SIES-encrypted row id (paper Fig. 1, "E(r)").
	RowIDColumn = "row_id"
	// HelperColumn is w = g^r mod n, exponentiated by tokens.
	HelperColumn = "sdb_w"
)

// Engine executes statements against a catalog.
type Engine struct {
	catalog *storage.Catalog
	// n is the public modulus share SUMs accumulate modulo (the UDFs carry
	// theirs in-query); nil for a plaintext-only deployment.
	n *big.Int
	// pool is the worker pool, for secure arithmetic (rowPool) and spills.
	pool *parallel.Pool
	// budgetRows caps each query's resident rows (0 = unlimited); when a
	// blocking operator would cross it, the operator spills to spillDir.
	budgetRows int
	spillDir   string
	// plannerOff disables the planning pass (predicate pushdown,
	// comma-join → hash-join conversion, build-side selection, hash
	// pre-sizing), reverting to the naive AST-shaped operator tree.
	plannerOff bool
	// budgetPool, when non-nil, is a cross-query resident-row pool every
	// query budget attaches to: the serving layer's global memory bound
	// over concurrent sessions (nil = per-query budgets only).
	budgetPool *spill.Pool
	// Concurrency control (see snapshot.go for the full protocol).
	//
	// Readers never take a lock — SELECT planning pins the engine-wide
	// catalog snapshot (snap) with one atomic load and streams immutable
	// table versions. Writers serialize per target table
	// (storage.Table.LockWriter) while building the next version, then
	// serialize globally only for the tiny commit step (commitMu: WAL
	// log + atomic publish + snapshot rebuild). Lock order is always
	// table writer lock → commitMu.
	commitMu sync.Mutex
	// snap is the engine-wide catalog snapshot: the committed set of
	// (table, version) pairs, rebuilt under commitMu at every commit.
	// One atomic load pins a prefix-consistent view of the whole serial
	// write history (snapshot.go).
	snap atomic.Pointer[Snapshot]
	// commitHook, when set, observes commit phases (deterministic
	// torn-read, no-stall and kill-point tests; see SetCommitHook).
	commitHook hookPtr
	// dur is the pluggable persistence layer. Write paths follow
	// log-before-apply: validate fully, log one record, then publish the
	// prepared version (the publish cannot fail post-validation). nil
	// keeps the engine purely in-memory. Log hooks run under commitMu,
	// so the published version set is quiescent while a checkpoint
	// writes it out — readers and version builders are unaffected.
	dur storage.Durability
	// rotGen/catGen count writes: catGen advances on CREATE/INSERT/DROP
	// and plain UPDATEs, rotGen on key-rotation UPDATEs (sdb_keyupdate in
	// a SET expression). They are written to every WAL record and to
	// each log's header, and nothing in the product reads them; they
	// stay only because bench/trace.go compiles against Generations and
	// the storage.Durability signatures (ROADMAP items 1(b) and 15
	// delete them). Written under commitMu, read by Generations, hence atomics.
	rotGen, catGen atomic.Uint64
}

// Options tune the engine's chunked parallel execution and its per-query
// memory budget.
type Options struct {
	// Parallelism bounds the worker goroutines, which serve secure
	// arithmetic (row programs, masked reveals) and spilled tasks.
	// <= 0 means runtime.GOMAXPROCS(0); 1 forces serial execution.
	Parallelism int
	// ChunkSize is the number of rows per dispatched chunk; a streamed
	// batch, and so a wire frame, is one chunk per worker (batchRows).
	// <= 0 means parallel.DefaultChunkSize (1024), the only value the
	// binaries and the driver use. It exists so tests can shrink batches
	// and force multi-batch streams, as Planner exists for the planner
	// differential; it is not a deployment setting.
	ChunkSize int
	// MemBudgetRows caps the resident rows of one query: blocking
	// operators (hash-join build sides, aggregation state tables, sort
	// sinks) spill to disk instead of crossing it. 0 and negative values
	// mean unlimited. Spilled work (Grace join partition pairs,
	// aggregation partition merges, run pre-merge groups) is scheduled
	// onto the same Parallelism workers as resident work, so
	// Parallelism 1 is also the serial spill schedule.
	MemBudgetRows int
	// SpillDir is the directory spill files are created under (one
	// ephemeral subdirectory per query, removed when the query ends). ""
	// means os.TempDir().
	SpillDir string
	// BudgetPool is an optional resident-row pool shared across queries
	// (and, through the server, across sessions): every per-query budget
	// additionally reserves from it, so concurrent queries jointly stay
	// under one deployment-wide bound and spill — rather than OOM — when
	// the pool is exhausted. nil means per-query budgets only.
	BudgetPool *spill.Pool
	// Planner "off" disables the planning pass — SELECTs then compile to
	// the naive AST-shaped tree (comma joins stay nested-loop cross
	// products, WHERE stays one post-join filter, hash maps stay
	// unsized). It exists as the reference side of the planner
	// differential suite; "" and "on" run the pass.
	Planner string
}

// testDefaults supplies MemBudgetRows, SpillDir and Planner to engines
// built without them. It is the zero value in every binary: only this
// package's TestMain writes it, before any test runs, to re-run the suite
// under a forced budget or with the planner off and to route every
// default spill directory through one leak-checked place.
var testDefaults Options

// New builds an engine over the catalog with default (GOMAXPROCS-wide)
// parallelism. n is the public SDB modulus (may be nil for a
// plaintext-only deployment).
func New(catalog *storage.Catalog, n *big.Int) *Engine {
	return NewWithOptions(catalog, n, Options{})
}

// NewWithOptions is New with explicit execution options.
func NewWithOptions(catalog *storage.Catalog, n *big.Int, opts Options) *Engine {
	e := &Engine{catalog: catalog, n: n}
	e.applyOptions(opts)
	e.publishSnapshot()
	return e
}

// NewWithDurability is NewWithOptions plus a persistence layer. The
// catalog should be the one dur recovered into; the engine's write
// counters continue from the recovered ones, so the values logged after a
// restart keep counting up.
func NewWithDurability(catalog *storage.Catalog, n *big.Int, opts Options, dur storage.Durability) *Engine {
	e := NewWithOptions(catalog, n, opts)
	e.dur = dur
	if dur != nil {
		g := dur.Recovered()
		e.rotGen.Store(g.Rotation)
		e.catGen.Store(g.Catalog)
	}
	return e
}

// Checkpoint forces a durability checkpoint under the commit lock, so it
// writes out a quiescent published version set with no half-committed
// statement (graceful-shutdown path) — readers keep streaming and writers
// keep building throughout; only commits wait. No-op without a durability
// layer or when the layer has no Checkpoint method.
func (e *Engine) Checkpoint() error {
	if e.dur == nil {
		return nil
	}
	cp, ok := e.dur.(interface{ Checkpoint() error })
	if !ok {
		return nil
	}
	e.commitMu.Lock()
	defer e.commitMu.Unlock()
	return cp.Checkpoint()
}

// BudgetPool returns the cross-query resident-row pool the engine's
// query budgets draw from, or nil when queries are bounded individually.
// The server's metrics endpoint reads pool pressure through this.
func (e *Engine) BudgetPool() *spill.Pool {
	return e.budgetPool
}

// Generations returns the engine's rotation and catalog write counters.
// Nothing in the product reads them: bench/trace.go compiles against this
// method, and ROADMAP items 1(b) and 15 delete it with the counters.
func (e *Engine) Generations() (rotation, catalog uint64) {
	return e.rotGen.Load(), e.catGen.Load()
}

// nextGens returns the counters a statement will commit: a key rotation
// advances the rotation generation, every other write advances the
// catalog generation. The values are logged with the statement's WAL
// record and stored (commitGens) only after the statement succeeds.
func (e *Engine) nextGens(rotation bool) storage.Generations {
	g := storage.Generations{Rotation: e.rotGen.Load(), Catalog: e.catGen.Load()}
	if rotation {
		g.Rotation++
	} else {
		g.Catalog++
	}
	return g
}

func (e *Engine) commitGens(g storage.Generations) {
	e.rotGen.Store(g.Rotation)
	e.catGen.Store(g.Catalog)
}

// SetOptions replaces the execution options. It must not be called
// concurrently with running statements (benchmarks flip a deployment
// between serial and parallel with it).
func (e *Engine) SetOptions(opts Options) {
	e.applyOptions(opts)
}

func (e *Engine) applyOptions(opts Options) {
	e.pool = parallel.New(opts.Parallelism, opts.ChunkSize)
	e.budgetRows = opts.MemBudgetRows
	if e.budgetRows == 0 {
		e.budgetRows = testDefaults.MemBudgetRows
	}
	if e.budgetRows < 0 {
		e.budgetRows = 0
	}
	e.spillDir = opts.SpillDir
	if e.spillDir == "" {
		e.spillDir = testDefaults.SpillDir
	}
	e.budgetPool = opts.BudgetPool
	planner := opts.Planner
	if planner == "" {
		planner = testDefaults.Planner
	}
	e.plannerOff = planner == "off"
}

// Catalog exposes the underlying catalog (used by upload paths and tests).
func (e *Engine) Catalog() *storage.Catalog { return e.catalog }

// ResultColumn describes one output column.
type ResultColumn struct {
	Name string
	Kind types.Kind
}

// Result is a materialised query result.
type Result struct {
	Columns []ResultColumn
	Rows    []types.Row
}

// Execute runs a parsed statement. A SELECT drains the streamed operator
// tree Stmt.Query serves (column kinds come from its first batch): it pins
// a catalog snapshot and never waits on writers. Writers serialize per
// target table and only meet each other (and checkpoints) at the commit
// step (snapshot.go). The durability layer's checkpoint opportunity fires
// inside commit, after the publish, so a checkpoint's base section always
// contains the record whose LSN it claims.
func (e *Engine) Execute(stmt sqlparser.Statement) (*Result, error) {
	switch s := stmt.(type) {
	case *sqlparser.CreateTable:
		return e.execCreate(s)
	case *sqlparser.Insert:
		return e.execInsert(s)
	case *sqlparser.Update:
		return e.execUpdate(s)
	case *sqlparser.DropTable:
		return e.execDrop(s)
	case *sqlparser.Select:
		it, err := (&Stmt{e: e, stmt: s}).Query(context.TODO())
		if err != nil {
			return nil, err
		}
		return Drain(it)
	default:
		return nil, fmt.Errorf("engine: unsupported statement %T", stmt)
	}
}

// execUpdate evaluates SET expressions against each (optionally filtered)
// row and writes the results in place. The SDB proxy uses it for
// server-side key rotation: UPDATE t SET v = sdb_keyupdate(v, sdb_w, p, q, n)
// re-keys an entire stored column without the data ever leaving the SP or
// being decrypted.
func (e *Engine) execUpdate(s *sqlparser.Update) (*Result, error) {
	t, err := e.catalog.Get(s.Table)
	if err != nil {
		return nil, err
	}
	// Serialize against this table's other writers for the whole
	// build-and-commit; readers and writers of other tables proceed.
	t.LockWriter()
	defer t.UnlockWriter()
	if t.Dropped() {
		return nil, fmt.Errorf("storage: no such table %q", s.Table)
	}
	ver := t.Load()
	rel := scanVersion(t, ver, s.Table)
	ctx := e.evalCtx()

	// The SET list compiles like a select list: every share tree over the
	// engine's modulus joins one row program, so a rotation costs one memo
	// lookup and two REDCs per row, and clauses over the same (helper,
	// exponent) pair share the lookup.
	sb := newSetBuilder(rel, ctx, e.n)
	cols := make([]int, len(s.Set))
	for i, set := range s.Set {
		if cols[i] = t.Schema.Find(set.Column); cols[i] < 0 {
			return nil, fmt.Errorf("engine: table %q has no column %q", s.Table, set.Column)
		}
		if _, err := sb.add(set.Expr); err != nil {
			return nil, err
		}
	}
	sets := sb.build()
	var where compiledExpr
	if s.Where != nil {
		if where, err = compile(s.Where, rel, ctx); err != nil {
			return nil, err
		}
	}

	// Copy-on-write: updates build fresh column slices off to the side
	// and publish them as the table's next version in one atomic swap,
	// so readers pinned on any earlier version keep streaming an
	// immutable, consistent state lock-free.
	newCols := make(map[int][]types.Value, len(cols))
	for _, idx := range cols {
		if _, ok := newCols[idx]; !ok {
			newCols[idx] = append([]types.Value(nil), ver.Cols[idx]...)
		}
	}

	// Chunked update: rows are independent (each SET expression reads the
	// scanned snapshot and writes its own row's slots), so server-side key
	// rotation runs on the worker pool and scales with cores.
	var updated atomic.Int64
	err = e.rowPool(ctx.secure).ForEachChunk(len(rel.rows), func(_, lo, hi int) error {
		fr := sets.frame()
		defer sets.release(fr)
		out := make([]types.Value, len(cols))
		for i := lo; i < hi; i++ {
			row := rel.rows[i]
			if where != nil {
				ok, err := where(row)
				if err != nil {
					return err
				}
				if !ok.Bool() {
					continue
				}
			}
			if err := sets.eval(fr, row, out); err != nil {
				return err
			}
			for j, idx := range cols {
				v, err := coerceForColumn(out[j], t.Schema.Columns[idx])
				if err != nil {
					return fmt.Errorf("engine: column %q: %w", t.Schema.Columns[idx].Name, err)
				}
				newCols[idx][i] = v
			}
			updated.Add(1)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	next, err := t.SwapColsLocked(newCols)
	if err != nil {
		return nil, err
	}
	// Log the fully-evaluated replacement columns (not the SET
	// expressions): replay is a plain swap that cannot diverge from what
	// this evaluation produced — in particular, re-keyed shares from a
	// rotation land on the log already re-keyed.
	err = e.commit(t.Name, updateIsRotation(s),
		func() error {
			if t.Dropped() {
				return fmt.Errorf("storage: no such table %q", s.Table)
			}
			return nil
		},
		func(g storage.Generations) error { return e.dur.LogUpdate(t.Name, newCols, g) },
		func() error { t.PublishLocked(next); return nil },
	)
	if err != nil {
		return nil, err
	}
	return &Result{
		Columns: []ResultColumn{{Name: "updated", Kind: types.KindInt}},
		Rows:    []types.Row{{types.NewInt(updated.Load())}},
	}, nil
}

// updateIsRotation reports whether an UPDATE applies a key-rotation token
// (the proxy's RotateColumn/RotateMask issue SET col = sdb_keyupdate(…)).
// Rotation advances the rotation generation — the counter that
// invalidates cached token-bearing plans — instead of the catalog one.
func updateIsRotation(s *sqlparser.Update) bool {
	rotation := false
	for _, set := range s.Set {
		walkExpr(set.Expr, func(ex sqlparser.Expr) bool {
			if f, ok := ex.(*sqlparser.FuncCall); ok && strings.EqualFold(f.Name, "sdb_keyupdate") {
				rotation = true
			}
			return !rotation
		})
	}
	return rotation
}

// ExecuteSQL parses and runs one statement.
func (e *Engine) ExecuteSQL(src string) (*Result, error) {
	stmt, err := sqlparser.Parse(src)
	if err != nil {
		return nil, err
	}
	return e.Execute(stmt)
}

func (e *Engine) execCreate(s *sqlparser.CreateTable) (*Result, error) {
	cols := make([]types.Column, len(s.Cols))
	for i, c := range s.Cols {
		cols[i] = types.Column{Name: c.Name, Type: c.Type}
	}
	schema, err := types.NewSchema(cols)
	if err != nil {
		return nil, err
	}
	t := storage.NewTable(s.Name, schema)
	// The existence check runs inside the commit critical section so a
	// duplicate CREATE fails before it is logged (apply must not be able
	// to fail once the record is on the WAL), even against a concurrent
	// CREATE of the same name.
	err = e.commit(s.Name, false,
		func() error {
			if _, err := e.catalog.Get(s.Name); err == nil {
				return fmt.Errorf("storage: table %q already exists", s.Name)
			}
			return nil
		},
		func(g storage.Generations) error { return e.dur.LogCreate(t, g) },
		func() error { return e.catalog.Create(t) },
	)
	if err != nil {
		return nil, err
	}
	return &Result{}, nil
}

// execDrop removes a table. The proxy discards the table's keys on its
// side; the engine only has the stored shares to forget.
func (e *Engine) execDrop(s *sqlparser.DropTable) (*Result, error) {
	var t *storage.Table
	err := e.commit(s.Name, false,
		func() error {
			var err error
			t, err = e.catalog.Get(s.Name)
			return err
		},
		func(g storage.Generations) error { return e.dur.LogDrop(s.Name, g) },
		func() error {
			// Mark first: a writer mid-build on this table re-checks the
			// flag at its own commit and aborts instead of logging a
			// record against a name that may since be re-created.
			// Readers pinned on an older snapshot keep streaming the
			// dropped version untouched.
			t.MarkDropped()
			return e.catalog.Drop(s.Name)
		},
	)
	if err != nil {
		return nil, err
	}
	return &Result{}, nil
}

func (e *Engine) execInsert(s *sqlparser.Insert) (*Result, error) {
	t, err := e.catalog.Get(s.Table)
	if err != nil {
		return nil, err
	}
	// Column mapping: explicit list or schema order. The pseudo-columns
	// row_id and sdb_w route to the table's auxiliary arrays; rewritten
	// uploads from the proxy use them.
	const (
		auxRowID  = -2
		auxHelper = -3
	)
	idx := make([]int, 0, t.Schema.Len())
	if len(s.Columns) == 0 {
		for i := range t.Schema.Columns {
			idx = append(idx, i)
		}
	} else {
		for _, name := range s.Columns {
			switch {
			case strings.EqualFold(name, RowIDColumn):
				idx = append(idx, auxRowID)
			case strings.EqualFold(name, HelperColumn):
				idx = append(idx, auxHelper)
			default:
				i := t.Schema.Find(name)
				if i < 0 {
					return nil, fmt.Errorf("engine: table %q has no column %q", s.Table, name)
				}
				idx = append(idx, i)
			}
		}
	}
	// Build and validate every row before touching the table, so an error
	// mid-statement leaves no partial insert behind, the durability layer
	// can log the whole batch as one record (one fsync) before any row is
	// published, and readers observe the batch all-or-nothing.
	rows := make([]types.Row, 0, len(s.Rows))
	rowEncs := make([]*big.Int, 0, len(s.Rows))
	helpers := make([]*big.Int, 0, len(s.Rows))
	for _, exprRow := range s.Rows {
		if len(exprRow) != len(idx) {
			return nil, fmt.Errorf("engine: INSERT arity %d != %d columns", len(exprRow), len(idx))
		}
		row := make(types.Row, t.Schema.Len())
		for i := range row {
			row[i] = types.Null
		}
		var rowEnc, helper *big.Int
		for k, ex := range exprRow {
			v, err := evalConst(ex, e.evalCtx())
			if err != nil {
				return nil, err
			}
			switch idx[k] {
			case auxRowID, auxHelper:
				if v.K != types.KindShare {
					return nil, fmt.Errorf("engine: %s requires a hex value", s.Columns[k])
				}
				if idx[k] == auxRowID {
					rowEnc = v.B
				} else {
					helper = v.B
				}
				continue
			}
			col := t.Schema.Columns[idx[k]]
			v, err = coerceForColumn(v, col)
			if err != nil {
				return nil, fmt.Errorf("engine: column %q: %w", col.Name, err)
			}
			row[idx[k]] = v
		}
		rows = append(rows, row)
		rowEncs = append(rowEncs, rowEnc)
		helpers = append(helpers, helper)
	}
	t.LockWriter()
	defer t.UnlockWriter()
	next, err := t.AppendLocked(rows, rowEncs, helpers)
	if err != nil {
		return nil, err
	}
	err = e.commit(t.Name, false,
		func() error {
			if t.Dropped() {
				return fmt.Errorf("storage: no such table %q", s.Table)
			}
			return nil
		},
		func(g storage.Generations) error { return e.dur.LogInsert(t.Name, rows, rowEncs, helpers, g) },
		func() error { t.PublishLocked(next); return nil },
	)
	if err != nil {
		return nil, err
	}
	return &Result{}, nil
}

// coerceForColumn adapts literal kinds to the column type: ints widen to
// decimals (scaled), strings parse to dates, decimal literals rescale, and
// hex shares land in sensitive columns.
func coerceForColumn(v types.Value, col types.Column) (types.Value, error) {
	if v.IsNull() {
		return v, nil
	}
	if col.Type.Sensitive {
		if v.K == types.KindShare {
			return v, nil
		}
		return v, fmt.Errorf("sensitive column accepts only encrypted shares, got %s", v.K)
	}
	want := col.Type.Kind
	switch {
	case v.K == want:
		return v, nil
	case want == types.KindDecimal && v.K == types.KindInt:
		return types.NewDecimal(v.I * pow10(col.Type.Scale)), nil
	case want == types.KindDate && v.K == types.KindString:
		return types.ParseDate(v.S)
	case want == types.KindInt && v.K == types.KindDecimal:
		return v, fmt.Errorf("decimal literal in INT column")
	case want == types.KindShare && v.K == types.KindShare:
		return v, nil
	}
	return v, fmt.Errorf("cannot store %s into %s column", v.K, want)
}

func pow10(n int) int64 {
	p := int64(1)
	for i := 0; i < n; i++ {
		p *= 10
	}
	return p
}

func (e *Engine) evalCtx() *evalCtx {
	return &evalCtx{n: e.n}
}

// serialPool runs every chunk on the calling goroutine.
var serialPool = parallel.New(1, 0)

// rowPool is the pool an operator's rows run on, chosen at plan time: the
// worker pool when its expressions do secure arithmetic (evalCtx.secure).
func (e *Engine) rowPool(secure bool) *parallel.Pool {
	if secure {
		return e.pool
	}
	return serialPool
}

// mod is the Montgomery context of the engine's modulus (nil without one).
func (e *Engine) mod() *bigmod.MontCtx { return bigmod.MontCtxFor(e.n) }
