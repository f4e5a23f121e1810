// Package driver registers an "sdb" driver with database/sql, so standard
// Go applications can run encrypted queries through the SDB proxy without
// knowing anything about shares, tokens or key stores.
//
// Two DSN forms are supported:
//
//	mem://?bits=512&parallel=0&mem_budget=0&data_dir=
//	    An embedded deployment: fresh scheme secrets and an in-process
//	    service-provider engine. Handy for tests and the quickstart.
//	    mem_budget caps each query's resident rows in the embedded
//	    engine — blocking operators (join builds, aggregation tables,
//	    sort sinks) spill to temp files instead of crossing it (0 or
//	    negative = unlimited).
//	    data_dir makes the embedded deployment durable: the engine logs
//	    every write to a WAL under the directory (checkpoint_every WAL
//	    records between checkpoints, fsync=always|never), and the
//	    proxy keeps its secrets in <data_dir>/do-state.json; reopening
//	    the same DSN recovers both sides. DB.Close flushes and closes
//	    the store.
//
//	tcp://host:port?secret=do.key&parallel=0
//	    Connect to a remote sdb-server. secret names the data-owner key
//	    file written by `sdb keygen`; it never leaves the client. The
//	    memory budget of a remote deployment is the server's -mem-budget
//	    flag — execution memory lives there, not in the client.
//
// The keys above are the whole vocabulary: OpenConnector refuses a DSN
// with any other key, or with a non-integer where a number is expected,
// naming the key — the process environment configures nothing. Sizes are
// not in it: an engine batch is 1024 rows per worker (at most 8192), a
// wire frame carries one batch, and the proxy's rewrite/token cache holds
// 256 statements.
//
// All connections of one sql.DB share a single proxy (and therefore one
// key store): the proxy is the data owner's trust boundary, so pooled
// connections are views onto the same session state. Use OpenDB to wrap an
// already-configured *proxy.Proxy instead of a DSN.
//
// Placeholder parameters (`?`) are bound client-side: arguments are
// rendered as SQL literals (with quote doubling for strings) and
// substituted before the statement reaches the proxy, where sensitive
// literals are encrypted during the rewrite as usual. Transactions are not
// supported (SDB has no multi-statement atomicity).
package driver

import (
	"context"
	"database/sql"
	sqldriver "database/sql/driver"
	"errors"
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"sdb/internal/engine"
	"sdb/internal/proxy"
	"sdb/internal/secure"
	"sdb/internal/server"
	"sdb/internal/storage"
	"sdb/internal/types"
	"sdb/internal/wal"
)

func init() {
	sql.Register("sdb", &Driver{})
}

// Driver implements database/sql/driver.Driver and DriverContext.
type Driver struct{}

// Open connects with a fresh connector (used when database/sql is handed a
// bare driver; pooled DBs go through OpenConnector once).
func (d *Driver) Open(dsn string) (sqldriver.Conn, error) {
	c, err := d.OpenConnector(dsn)
	if err != nil {
		return nil, err
	}
	return c.Connect(context.Background())
}

// OpenConnector parses the DSN once; database/sql calls it a single time
// per sql.Open, so every pooled connection shares the connector's proxy.
func (d *Driver) OpenConnector(dsn string) (sqldriver.Connector, error) {
	u, err := url.Parse(dsn)
	if err != nil {
		return nil, fmt.Errorf("sdb: bad DSN %q: %w", dsn, err)
	}
	keys, ok := dsnKeys[u.Scheme]
	if !ok {
		return nil, fmt.Errorf("sdb: unsupported DSN scheme %q (want mem:// or tcp://)", u.Scheme)
	}
	for key, vals := range u.Query() {
		numeric, known := keys[key]
		if !known {
			return nil, fmt.Errorf("sdb: unknown %s:// DSN key %q", u.Scheme, key)
		}
		for _, v := range vals {
			if !numeric || v == "" {
				continue
			}
			if _, err := strconv.Atoi(v); err != nil {
				return nil, fmt.Errorf("sdb: DSN key %q: %q is not an integer", key, v)
			}
		}
	}
	return &Connector{drv: d, url: u}, nil
}

// dsnKeys is the query vocabulary of each DSN scheme; true marks a key
// whose value must be an integer.
var dsnKeys = map[string]map[string]bool{
	"mem": {"bits": true, "parallel": true, "mem_budget": true,
		"data_dir": false, "fsync": false, "checkpoint_every": true},
	"tcp": {"secret": false, "parallel": true},
}

// Connector builds the shared proxy lazily on first Connect.
type Connector struct {
	drv *Driver
	url *url.URL

	mu     sync.Mutex
	p      *proxy.Proxy
	client *server.Client // non-nil for tcp://, closed with the pool
	// eng/store are the embedded durable deployment (mem:// with
	// data_dir): Close checkpoints the engine and closes the WAL store.
	eng   *engine.Engine
	store *wal.Store
}

// OpenDB wraps an existing proxy (sharing its key store and executor) in a
// database/sql pool.
func OpenDB(p *proxy.Proxy) *sql.DB {
	return sql.OpenDB(&Connector{drv: &Driver{}, p: p})
}

// Driver implements driver.Connector.
func (c *Connector) Driver() sqldriver.Driver { return c.drv }

// Connect returns a new connection over the shared proxy.
func (c *Connector) Connect(ctx context.Context) (sqldriver.Conn, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p, err := c.proxy()
	if err != nil {
		return nil, err
	}
	return &conn{p: p}, nil
}

// Close releases the connector's network client and flushes the embedded
// durable store, if any. database/sql calls it from DB.Close.
func (c *Connector) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.client != nil {
		err := c.client.Close()
		c.client = nil
		return err
	}
	var err error
	if c.store != nil {
		// Checkpoint under the engine's commit lock, so the new log's base
		// section holds no half-committed statement, then close the log.
		if c.eng != nil {
			err = c.eng.Checkpoint()
		}
		if cerr := c.store.Close(); err == nil {
			err = cerr
		}
		c.store, c.eng = nil, nil
	}
	return err
}

func (c *Connector) proxy() (*proxy.Proxy, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.p != nil {
		return c.p, nil
	}
	q := c.url.Query()
	opts := proxy.Options{Parallelism: atoiDefault(q.Get("parallel"), 0)}
	switch c.url.Scheme {
	case "mem":
		bits := atoiDefault(q.Get("bits"), 512)
		engOpts := engine.Options{
			Parallelism:   opts.Parallelism,
			MemBudgetRows: atoiDefault(q.Get("mem_budget"), 0),
		}
		if dataDir := q.Get("data_dir"); dataDir != "" {
			return c.durableMemProxy(dataDir, bits, q, engOpts, opts)
		}
		secret, err := secure.Setup(bits, secure.DefaultValueBits, secure.DefaultMaskBits)
		if err != nil {
			return nil, fmt.Errorf("sdb: setup: %w", err)
		}
		eng := engine.NewWithOptions(storage.NewCatalog(), secret.N(), engOpts)
		p, err := proxy.NewWithOptions(secret, eng, opts)
		if err != nil {
			return nil, err
		}
		c.p = p
	case "tcp":
		secretPath := q.Get("secret")
		if secretPath == "" {
			return nil, errors.New("sdb: tcp:// DSN requires ?secret=<do.key> (from 'sdb keygen')")
		}
		data, err := os.ReadFile(secretPath)
		if err != nil {
			return nil, fmt.Errorf("sdb: read secret: %w", err)
		}
		secret, err := secure.UnmarshalSecret(data)
		if err != nil {
			return nil, fmt.Errorf("sdb: parse secret: %w", err)
		}
		client, err := server.Dial(c.url.Host)
		if err != nil {
			return nil, err
		}
		p, err := proxy.NewWithOptions(secret, client, opts)
		if err != nil {
			client.Close()
			return nil, err
		}
		c.client = client
		c.p = p
	}
	return c.p, nil
}

// durableMemProxy builds the embedded durable deployment (mem:// with
// data_dir): the engine's catalog is recovered from (and logged to) a WAL
// store under dataDir, and the proxy's secrets live in
// dataDir/do-state.json. A fresh directory generates new secrets; an
// existing one must carry both halves or opening fails — WAL shares
// without the DO state file are permanently undecryptable.
func (c *Connector) durableMemProxy(dataDir string, bits int, q url.Values, engOpts engine.Options, opts proxy.Options) (*proxy.Proxy, error) {
	statePath := filepath.Join(dataDir, "do-state.json")
	opts.StatePath = statePath

	catalog := storage.NewCatalog()
	store, err := wal.Open(dataDir, catalog, wal.Options{
		Fsync:           q.Get("fsync"),
		CheckpointEvery: atoiDefault(q.Get("checkpoint_every"), 1024),
	})
	if err != nil {
		return nil, fmt.Errorf("sdb: open data_dir: %w", err)
	}
	fail := func(err error) (*proxy.Proxy, error) {
		store.Close()
		return nil, err
	}

	_, statErr := os.Stat(statePath)
	haveState := statErr == nil
	info := store.RecoveryInfo()
	if !haveState && (info.Tables > 0 || info.LSN > 0) {
		return fail(fmt.Errorf("sdb: %s holds recovered tables but %s is missing; the shares cannot be decrypted", dataDir, statePath))
	}

	var p *proxy.Proxy
	if haveState {
		secret, err := proxy.LoadStateSecret(statePath)
		if err != nil {
			return fail(err)
		}
		eng := engine.NewWithDurability(catalog, secret.N(), engOpts, store)
		if p, err = proxy.NewFromStateFile(statePath, eng, opts); err != nil {
			return fail(err)
		}
		c.eng = eng
	} else {
		secret, err := secure.Setup(bits, secure.DefaultValueBits, secure.DefaultMaskBits)
		if err != nil {
			return fail(fmt.Errorf("sdb: setup: %w", err))
		}
		eng := engine.NewWithDurability(catalog, secret.N(), engOpts, store)
		if p, err = proxy.NewWithOptions(secret, eng, opts); err != nil {
			return fail(err)
		}
		if err := p.SaveState(statePath); err != nil {
			return fail(err)
		}
		c.eng = eng
	}
	c.store = store
	c.p = p
	return p, nil
}

// atoiDefault reads a numeric DSN value OpenConnector already validated.
func atoiDefault(s string, def int) int {
	if s == "" {
		return def
	}
	n, _ := strconv.Atoi(s)
	return n
}

// conn is one database/sql connection: a view onto the shared proxy.
type conn struct {
	p      *proxy.Proxy
	closed bool
}

func (c *conn) Prepare(query string) (sqldriver.Stmt, error) {
	return c.PrepareContext(context.Background(), query)
}

func (c *conn) PrepareContext(ctx context.Context, query string) (sqldriver.Stmt, error) {
	if c.closed {
		return nil, sqldriver.ErrBadConn
	}
	// Parameterized statements bind at execution time (the bound text
	// differs per call), so the proxy-side prepare is deferred until then;
	// parameterless statements prepare eagerly and reuse their rewrite.
	if n := countPlaceholders(query); n > 0 {
		return &stmt{p: c.p, query: query, numInput: n}, nil
	}
	ps, err := c.p.PrepareContext(ctx, query)
	if err != nil {
		return nil, err
	}
	return &stmt{p: c.p, query: query, ps: ps}, nil
}

func (c *conn) Close() error {
	c.closed = true
	return nil
}

func (c *conn) Begin() (sqldriver.Tx, error) {
	return nil, errors.New("sdb: transactions are not supported")
}

// QueryContext lets database/sql skip the prepared-statement dance for
// one-shot queries; placeholder arguments bind client-side first.
func (c *conn) QueryContext(ctx context.Context, query string, args []sqldriver.NamedValue) (sqldriver.Rows, error) {
	if len(args) > 0 {
		var err error
		if query, err = bindPlaceholders(query, args); err != nil {
			return nil, err
		}
	}
	r, err := c.p.QueryContext(ctx, query)
	if err != nil {
		return nil, err
	}
	return &rows{r: r, cols: r.Columns()}, nil
}

// ExecContext executes one-shot statements.
func (c *conn) ExecContext(ctx context.Context, query string, args []sqldriver.NamedValue) (sqldriver.Result, error) {
	if len(args) > 0 {
		var err error
		if query, err = bindPlaceholders(query, args); err != nil {
			return nil, err
		}
	}
	res, err := c.p.ExecContext(ctx, query)
	if err != nil {
		return nil, err
	}
	return result{res: res}, nil
}

// stmt adapts a prepared statement to database/sql/driver. Parameterless
// statements hold a proxy-side prepared statement (ps); parameterized ones
// re-bind their text per execution and run through the one-shot path.
type stmt struct {
	p        *proxy.Proxy
	query    string
	numInput int
	ps       *proxy.Stmt // nil when numInput > 0
}

func (s *stmt) Close() error {
	if s.ps != nil {
		return s.ps.Close()
	}
	return nil
}

// NumInput is the placeholder count; database/sql enforces the argument
// arity contract for us.
func (s *stmt) NumInput() int { return s.numInput }

func (s *stmt) Exec(args []sqldriver.Value) (sqldriver.Result, error) {
	return s.ExecContext(context.Background(), namedValues(args))
}

func (s *stmt) Query(args []sqldriver.Value) (sqldriver.Rows, error) {
	return s.QueryContext(context.Background(), namedValues(args))
}

func namedValues(args []sqldriver.Value) []sqldriver.NamedValue {
	out := make([]sqldriver.NamedValue, len(args))
	for i, a := range args {
		out[i] = sqldriver.NamedValue{Ordinal: i + 1, Value: a}
	}
	return out
}

func (s *stmt) ExecContext(ctx context.Context, args []sqldriver.NamedValue) (sqldriver.Result, error) {
	if s.ps == nil {
		query, err := bindPlaceholders(s.query, args)
		if err != nil {
			return nil, err
		}
		res, err := s.p.ExecContext(ctx, query)
		if err != nil {
			return nil, err
		}
		return result{res: res}, nil
	}
	res, err := s.ps.ExecContext(ctx)
	if err != nil {
		return nil, err
	}
	return result{res: res}, nil
}

func (s *stmt) QueryContext(ctx context.Context, args []sqldriver.NamedValue) (sqldriver.Rows, error) {
	if s.ps == nil {
		query, err := bindPlaceholders(s.query, args)
		if err != nil {
			return nil, err
		}
		r, err := s.p.QueryContext(ctx, query)
		if err != nil {
			return nil, err
		}
		return &rows{r: r, cols: r.Columns()}, nil
	}
	r, err := s.ps.QueryContext(ctx)
	if err != nil {
		return nil, err
	}
	return &rows{r: r, cols: r.Columns()}, nil
}

// rows adapts the proxy's decrypting cursor to database/sql/driver.Rows;
// rows stream through batch by batch, so scanning a huge result holds one
// decrypted batch at a time.
type rows struct {
	r    *proxy.Rows
	cols []proxy.Column
}

func (r *rows) Columns() []string {
	names := make([]string, len(r.cols))
	for i, c := range r.cols {
		names[i] = c.Name
	}
	return names
}

func (r *rows) Close() error { return r.r.Close() }

func (r *rows) Next(dest []sqldriver.Value) error {
	row, err := r.r.Next()
	if err == io.EOF {
		return io.EOF
	}
	if err != nil {
		return err
	}
	for i, v := range row {
		dest[i] = toDriverValue(v, r.cols[i])
	}
	return nil
}

// toDriverValue maps a decrypted SDB value onto the driver.Value domain.
// Decimals keep their exact scaled representation by formatting to a
// string ("123.45"); database/sql converts that into float64 or string
// scan targets. Dates render as "YYYY-MM-DD".
func toDriverValue(v types.Value, col proxy.Column) sqldriver.Value {
	switch v.K {
	case types.KindNull:
		return nil
	case types.KindInt:
		if col.Scale > 0 {
			return types.FormatDecimal(v.I, col.Scale)
		}
		return v.I
	case types.KindDecimal:
		return types.FormatDecimal(v.I, col.Scale)
	case types.KindDate:
		return types.FormatDate(v)
	case types.KindString:
		return v.S
	case types.KindBool:
		return v.I != 0
	case types.KindShare:
		return v.B.Bytes()
	default:
		return v.String()
	}
}

// result reports statement outcomes. SDB has no auto-increment ids, and
// only engine UPDATEs report affected rows.
type result struct {
	res *proxy.Result
}

func (r result) LastInsertId() (int64, error) {
	return 0, errors.New("sdb: LastInsertId is not supported")
}

func (r result) RowsAffected() (int64, error) {
	if len(r.res.Columns) == 1 && r.res.Columns[0].Name == "updated" && len(r.res.Rows) == 1 {
		return r.res.Rows[0][0].I, nil
	}
	return 0, nil
}
