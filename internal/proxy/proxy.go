package proxy

import (
	"context"
	"fmt"
	"math/big"
	"math/bits"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sdb/internal/engine"
	"sdb/internal/parallel"
	"sdb/internal/secure"
	"sdb/internal/sies"
	"sdb/internal/sqlparser"
	"sdb/internal/types"
)

// Executor abstracts the service provider: an in-process engine or a
// network client speaking to a remote server. Writes go through
// ExecuteSQL, as does the one-row probe that settles a pending rotation;
// every SELECT is prepared with PrepareStream and its encrypted rows
// arrive through the statement's cursor.
type Executor interface {
	ExecuteSQL(sql string) (*engine.Result, error)
	PrepareStream(sql string) (engine.PreparedStmt, error)
}

// StreamExecutor is Executor under the name it had while a second,
// non-streaming executor kind existed; bench/ still compiles against it.
type StreamExecutor = Executor

// Proxy is the SDB proxy at the data owner. It owns all secrets (scheme
// secret, SIES key, column keys) and talks to the SP only through rewritten
// SQL carrying shares and tokens.
type Proxy struct {
	secret *secure.Secret
	cipher *sies.Cipher
	store  *KeyStore
	exec   Executor
	nonce  atomic.Uint64
	// pool dispatches the per-row result decryption and upload encryption
	// loops to bounded workers (each row's share operations are
	// independent).
	pool *parallel.Pool
	// statePath is the construction-time Options.StatePath ("" = state is
	// not persisted).
	statePath string
	// saveMu serialises SaveState, so two writers never interleave the
	// temporary file and the last rename holds the latest keys.
	saveMu sync.Mutex
	// ahead holds, by lower-cased name, the TableMeta writeAhead wrote
	// for a table whose SP statement is not settled; SaveState writes it
	// in place of the store's. Guarded by saveMu.
	ahead map[string]*TableMeta
	// cache memoises rewritten SQL + decryption plans per canonical
	// statement; see plancache.go.
	cache *planCache
}

// Options tune the proxy's chunked parallel encryption/decryption and
// where it persists its keys.
type Options struct {
	// Parallelism bounds the worker goroutines for result decryption and
	// INSERT-side encryption, which take parallel.DefaultChunkSize rows a
	// chunk. <= 0 means runtime.GOMAXPROCS(0); 1 forces serial execution.
	Parallelism int
	// StatePath, when set, makes the proxy persist its secret state
	// (SaveState) on every key change: CREATE and rotation ahead of the
	// SP statement (writeAhead), DROP after it. Embedded durable
	// deployments (driver data_dir) set it so the DO side survives
	// restarts alongside the SP's WAL. It is fixed
	// at construction: SetOptions ignores it.
	StatePath string
}

// New creates a proxy over the given scheme secret and executor with
// default (GOMAXPROCS-wide) parallelism.
func New(secret *secure.Secret, exec Executor) (*Proxy, error) {
	return NewWithOptions(secret, exec, Options{})
}

// NewWithOptions is New with explicit execution options.
func NewWithOptions(secret *secure.Secret, exec Executor, opts Options) (*Proxy, error) {
	key, err := sies.GenerateKey()
	if err != nil {
		return nil, err
	}
	cipher, err := sies.New(key, secure.RowIDBits)
	if err != nil {
		return nil, err
	}
	p := &Proxy{
		secret:    secret,
		cipher:    cipher,
		store:     NewKeyStore(),
		exec:      exec,
		statePath: opts.StatePath,
		ahead:     make(map[string]*TableMeta),
	}
	p.SetOptions(opts)
	return p, nil
}

// SetOptions replaces the execution options — the worker pool — and
// starts a fresh (cold) plan cache; a field left zero takes its default,
// not its previous value. Where the proxy persists its keys
// (Options.StatePath) was fixed at construction and does not change. It
// must not be called concurrently with running statements or open
// cursors.
func (p *Proxy) SetOptions(opts Options) {
	p.pool = parallel.New(opts.Parallelism, parallel.DefaultChunkSize)
	p.cache = newPlanCache(planCacheSize)
}

// Stats is the per-query cost breakdown the demo shows in step 2: the
// client cost (parse + rewrite + decrypt) versus the server cost. For a
// write, Rewrite covers building and rendering the SP's statement
// (encryption included) and Server the SP call alone.
type Stats struct {
	Parse        time.Duration
	Rewrite      time.Duration
	Server       time.Duration
	Decrypt      time.Duration
	RewrittenSQL string
}

// Client returns the total client-side cost.
func (s Stats) Client() time.Duration { return s.Parse + s.Rewrite + s.Decrypt }

// Total returns the end-to-end cost.
func (s Stats) Total() time.Duration { return s.Client() + s.Server }

// Column describes one output column of a decrypted result.
type Column struct {
	Name  string
	Kind  types.Kind
	Scale int
}

// Result is a fully decrypted query result at the application.
type Result struct {
	Columns []Column
	Rows    []types.Row
	Stats   Stats
}

// Exec parses, rewrites, executes and decrypts one SQL statement. It is
// the single-call compatibility API, a thin wrapper over the prepared
// streaming path (Prepare + ExecContext + Close).
func (p *Proxy) Exec(sql string) (*Result, error) {
	return p.ExecContext(context.Background(), sql)
}

// execCreate registers keys for sensitive columns and forwards a CREATE
// with the hidden mask column appended.
func (p *Proxy) execCreate(ctx context.Context, s *sqlparser.CreateTable, st Stats) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	cols := make([]types.Column, len(s.Cols))
	meta := &TableMeta{Keys: make(map[string]secure.ColumnKey)}
	hasSensitive := false
	for i, c := range s.Cols {
		cols[i] = types.Column{Name: c.Name, Type: c.Type}
		if c.Type.Sensitive {
			if !c.Type.Kind.Numeric() {
				return nil, fmt.Errorf("proxy: column %q: only numeric columns can be SENSITIVE", c.Name)
			}
			ck, err := p.secret.NewColumnKey()
			if err != nil {
				return nil, err
			}
			meta.Keys[strings.ToLower(c.Name)] = ck
			hasSensitive = true
		}
	}
	schema, err := types.NewSchema(cols)
	if err != nil {
		return nil, err
	}
	meta.Schema = schema

	spStmt := &sqlparser.CreateTable{Name: s.Name, Cols: append([]sqlparser.ColumnDef{}, s.Cols...)}
	if hasSensitive {
		mk, err := p.secret.NewColumnKey()
		if err != nil {
			return nil, err
		}
		meta.MaskKey = mk
		spStmt.Cols = append(spStmt.Cols, sqlparser.ColumnDef{
			Name: MaskColumn,
			Type: types.ColumnType{Kind: types.KindInt, Sensitive: true},
		})
	}
	if _, err := p.store.Get(s.Name); err == nil {
		return nil, fmt.Errorf("proxy: table %q already registered", s.Name)
	}
	sql := spStmt.String()
	st.Rewrite = time.Since(t0)

	if st.Server, err = p.writeAhead(s.Name, meta, sql); err != nil {
		return nil, err
	}
	st.RewrittenSQL = sql
	return &Result{Stats: st}, nil
}

// execDrop forwards a DROP TABLE verbatim and discards the table's column
// keys. The shares at the SP become undecryptable the moment the keys are
// gone, so key deletion is deferred until the SP confirms the drop, under
// the table's exclusive key lock. It is the one key change persisted
// behind the SP: a failed write leaves only an orphan key.
func (p *Proxy) execDrop(ctx context.Context, s *sqlparser.DropTable, st Stats) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	unlock, err := p.store.lock(ctx, true, s.Name)
	if err != nil {
		return nil, err
	}
	defer unlock()
	if _, err := p.store.Get(s.Name); err != nil {
		return nil, err
	}
	t0 := time.Now()
	sql := s.String()
	st.Rewrite = time.Since(t0)
	t1 := time.Now()
	if _, err := p.exec.ExecuteSQL(sql); err != nil {
		return nil, err
	}
	st.Server = time.Since(t1)
	p.setAhead(s.Name, nil) // a key change left unsettled ends with the table
	p.store.publish(s.Name, nil)
	if err := p.persistState(); err != nil {
		return nil, err
	}
	st.RewrittenSQL = sql
	return &Result{Stats: st}, nil
}

// execInsert encrypts sensitive values and forwards a rewritten INSERT that
// carries shares, the encrypted row id and the row helper, holding the
// table's key lock shared from the key lookup until the SP acknowledges.
// A table with no SENSITIVE column stores what the user wrote: no row id
// is drawn, nothing is encrypted and the rows go out as parsed. The
// statement is rendered once; that text is what the SP receives and what
// Stats.RewrittenSQL holds. Encryption and rendering count as Rewrite,
// the SP call alone as Server. ctx is checked per encryption chunk and
// before the upload is forwarded.
func (p *Proxy) execInsert(ctx context.Context, s *sqlparser.Insert, st Stats) (*Result, error) {
	unlock, err := p.store.lock(ctx, false, s.Table)
	if err != nil {
		return nil, err
	}
	defer unlock()
	t0 := time.Now()
	meta, err := p.store.Get(s.Table)
	if err != nil {
		return nil, err
	}
	// Resolve the user's column list against the table once.
	names := s.Columns
	if len(names) == 0 {
		names = make([]string, meta.Schema.Len())
		for i, c := range meta.Schema.Columns {
			names[i] = c.Name
		}
	}
	cols := make([]insertCol, len(names))
	for i, name := range names {
		col, ok := meta.Column(name)
		if !ok {
			return nil, fmt.Errorf("proxy: table %q has no column %q", s.Table, name)
		}
		cols[i] = insertCol{Column: col, key: meta.Keys[strings.ToLower(col.Name)]}
	}
	for _, row := range s.Rows {
		if len(row) != len(names) {
			return nil, fmt.Errorf("proxy: INSERT arity %d != %d columns", len(row), len(names))
		}
	}

	out := &sqlparser.Insert{Table: s.Table, Columns: names, Rows: s.Rows}
	if len(meta.Keys) > 0 {
		out.Columns = append(slices.Clip(names), MaskColumn, engine.RowIDColumn, engine.HelperColumn)
		// Upload-side encryption is the INSERT hot path (one share per
		// sensitive value plus mask, row id and helper per row, all
		// modular exponentiations); rows are independent, so they
		// encrypt in parallel chunks on the proxy's pool, and each chunk
		// mints all its shares through secure.EncryptBatch — the
		// per-share item-key inversions collapse to one ModInverse per
		// chunk.
		out.Rows = make([][]sqlparser.Expr, len(s.Rows))
		err = p.pool.ForEachChunk(len(s.Rows), func(_, lo, hi int) error {
			if err := ctx.Err(); err != nil {
				return err
			}
			return p.encryptInsertChunk(meta, cols, s.Rows[lo:hi], out.Rows[lo:hi])
		})
		if err != nil {
			return nil, err
		}
	}
	sql := out.String()
	st.Rewrite = time.Since(t0)

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t1 := time.Now()
	if _, err := p.exec.ExecuteSQL(sql); err != nil {
		return nil, err
	}
	st.Server = time.Since(t1)
	st.RewrittenSQL = sql
	return &Result{Stats: st}, nil
}

// insertCol is one column of an INSERT's column list, resolved against
// the table's metadata: its definition and, if SENSITIVE, its key.
type insertCol struct {
	types.Column
	key secure.ColumnKey
}

// encryptInsertChunk rewrites a chunk of INSERT rows of a table with
// SENSITIVE columns: sensitive values become encrypted shares under fresh
// row ids, and the hidden mask, encrypted row id and row helper are
// appended per row. It is called concurrently by execInsert's chunks;
// everything it touches on the proxy (scheme secret, key store metadata,
// SIES cipher) is read-only or internally atomic. All of the chunk's
// shares — values and masks alike — are minted in one secure.EncryptBatch
// call, so the chunk pays a single modular inversion however many shares
// it produces.
func (p *Proxy) encryptInsertChunk(meta *TableMeta, cols []insertCol, rows [][]sqlparser.Expr, out [][]sqlparser.Expr) error {
	type slot struct{ row, col int }
	var reqs []secure.EncRequest
	var slots []slot
	for ri, row := range rows {
		rid, rowEnc, err := p.newRowID()
		if err != nil {
			return err
		}
		outRow := make([]sqlparser.Expr, 0, len(row)+3)
		for i, ex := range row {
			col := cols[i]
			if !col.Type.Sensitive {
				outRow = append(outRow, ex)
				continue
			}
			v, err := engine.EvalConstExpr(ex)
			if err != nil {
				return err
			}
			plain, err := plainInt(v, col.Type)
			if err != nil {
				return fmt.Errorf("proxy: column %q: %w", col.Name, err)
			}
			rq, err := p.secret.NewEncRequest(big.NewInt(plain), rid, col.key)
			if err != nil {
				return err
			}
			slots = append(slots, slot{row: ri, col: len(outRow)})
			reqs = append(reqs, rq)
			outRow = append(outRow, nil) // patched after EncryptBatch
		}
		mask, err := p.secret.NewMaskValue()
		if err != nil {
			return err
		}
		rq, err := p.secret.NewMaskEncRequest(mask, rid, meta.MaskKey)
		if err != nil {
			return err
		}
		slots = append(slots, slot{row: ri, col: len(outRow)})
		reqs = append(reqs, rq)
		out[ri] = append(outRow, nil,
			sqlparser.HexLit{V: rowEnc},
			sqlparser.HexLit{V: p.secret.RowHelper(rid)},
		)
	}
	shares, err := p.secret.EncryptBatch(reqs)
	if err != nil {
		return err
	}
	for i, sl := range slots {
		out[sl.row][sl.col] = sqlparser.HexLit{V: shares[i]}
	}
	return nil
}

// newRowID draws a fresh row id and returns it along with its packed
// SIES-encrypted form: ciphertext<<64 | nonce under the SIES modulus
// 2^secure.RowIDBits.
func (p *Proxy) newRowID() (secure.RowID, *big.Int, error) {
	nonce := p.nonce.Add(1)
	rid, err := p.secret.NewRowID()
	if err != nil {
		return 0, nil, err
	}
	enc, err := p.cipher.Encrypt(rid, nonce)
	if err != nil {
		return 0, nil, err
	}
	return rid, packRowID(enc, nonce), nil
}

// packRowID is the share a row id is stored as: ciphertext<<64 | nonce.
func packRowID(enc, nonce uint64) *big.Int {
	packed := new(big.Int).Lsh(new(big.Int).SetUint64(enc), 64)
	return packed.Or(packed, new(big.Int).SetUint64(nonce))
}

// halfWords is the number of big.Words in one 64-bit half of a packed row
// id.
const halfWords = 64 / bits.UintSize

// decryptRowID unpacks and decrypts a row-id cell shipped back in a
// result, without allocating. A cell wider than the two halves, or a
// ciphertext outside the SIES modulus, is the SP's error; neither prints
// a value.
func (p *Proxy) decryptRowID(cell types.Value) (uint64, error) {
	packed := cell.B
	if cell.K != types.KindShare || packed == nil || packed.Sign() < 0 {
		return 0, fmt.Errorf("row id is not a packed share (%s)", cell.K)
	}
	w := packed.Bits()
	if len(w) > 2*halfWords {
		return 0, fmt.Errorf("row id share of %d bits is wider than a packed row id", packed.BitLen())
	}
	var nonce, enc uint64
	for i, x := range w {
		if i < halfWords {
			nonce |= uint64(x) << (i * bits.UintSize)
		} else {
			enc |= uint64(x) << ((i - halfWords) * bits.UintSize)
		}
	}
	return p.cipher.Decrypt(enc, nonce)
}

// plainInt extracts the int64 backing of a literal for encryption, applying
// the column's decimal scaling and date parsing.
func plainInt(v types.Value, ct types.ColumnType) (int64, error) {
	switch {
	case v.IsNull():
		return 0, fmt.Errorf("NULL in sensitive column is not supported")
	case v.K == ct.Kind:
		return v.I, nil
	case ct.Kind == types.KindDecimal && v.K == types.KindInt:
		return v.I * pow10(ct.Scale), nil
	case ct.Kind == types.KindDate && v.K == types.KindString:
		d, err := types.ParseDate(v.S)
		if err != nil {
			return 0, err
		}
		return d.I, nil
	default:
		return 0, fmt.Errorf("cannot store %s into %s", v.K, ct.Kind)
	}
}

func pow10(n int) int64 {
	p := int64(1)
	for i := 0; i < n; i++ {
		p *= 10
	}
	return p
}
