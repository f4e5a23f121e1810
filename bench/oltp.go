package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"sdb/internal/engine"
	"sdb/internal/proxy"
	"sdb/internal/storage"
	"sdb/internal/types"
	"sdb/internal/wal"
)

// WAL policy of oltp-durable, stated in every result file.
const (
	oltpFsync           = wal.FsyncAlways
	oltpCheckpointEvery = 512
)

// oltp mix: one statement in five inserts four rows; every rotateEvery-th
// statement of a client rotates the key of its branch table; the rest are
// point reads, one in ten of them on the branch table. Four reads in five
// go to a hot set, so the proxy's 256-entry plan cache sees repeats.
const (
	oltpInsertRows  = 4
	oltpWriteShare  = 0.2
	oltpBranchShare = 0.1
	oltpHotShare    = 0.8
	oltpHotKeys     = 128
)

type acctRow struct {
	owner   string
	balance int64 // cents
	credit  int64
}

func (r acctRow) values(id int64) types.Row {
	return types.Row{types.NewInt(id), types.NewString(r.owner), types.NewDecimal(r.balance), types.NewInt(r.credit)}
}

func (r acctRow) literal(id int64) string {
	return fmt.Sprintf("(%d, '%s', %d.%02d, %d)", id, r.owner, r.balance/100, r.balance%100, r.credit)
}

func randomAcct(rng *rand.Rand) acctRow {
	return acctRow{owner: fmt.Sprintf("owner-%06d", rng.Intn(1000000)), balance: rng.Int63n(100000000), credit: rng.Int63n(10000)}
}

// setupOLTP serves a WAL-backed engine (fsync on every commit) to two
// clients issuing short statements: point reads by insensitive key that
// return SENSITIVE columns, four-row INSERTs, and key rotations. The
// oracle is the generated values; the closing check recovers a copy of
// the data directory and looks for every acknowledged row.
func setupOLTP(cfg config, tr *tracer, scratch string) (*deployment, error) {
	acctRows := pick(cfg.tiny, 200, 4000)
	branchRows := pick(cfg.tiny, 50, 1000) // per client
	rotateEvery := pick(cfg.tiny, 40, 1000)
	hotKeys := pick(cfg.tiny, 8, oltpHotKeys)

	secret, err := newSecret()
	if err != nil {
		return nil, err
	}
	dataDir := filepath.Join(scratch, "data")
	catalog := storage.NewCatalog()
	store, err := wal.Open(dataDir, catalog, wal.Options{Fsync: oltpFsync, CheckpointEvery: oltpCheckpointEvery})
	if err != nil {
		return nil, err
	}
	var dur storage.Durability = store
	var walTrace *tracedStore
	if tr != nil {
		walTrace = &tracedStore{inner: store, t: tr}
		dur = walTrace
	}
	eng := engine.NewWithDurability(catalog, secret.N(), engine.Options{SpillDir: spillDir(scratch)}, dur)
	srv, addr, stop, err := serve(eng)
	if err != nil {
		store.Close()
		return nil, err
	}

	rng := rand.New(rand.NewSource(cfg.seed))
	acct := make(map[int64]acctRow, acctRows)
	branch := [2]map[int64]acctRow{{}, {}}
	clients, closeClients, err := servedClients(secret, addr, scratch, tr, func(p *proxy.Proxy) error {
		ddl := []string{`CREATE TABLE acct (id INT, owner STRING, balance DECIMAL(2) SENSITIVE, credit INT SENSITIVE)`}
		for c := range branch {
			ddl = append(ddl, fmt.Sprintf(`CREATE TABLE branch_%d (id INT, owner STRING, balance DECIMAL(2) SENSITIVE, credit INT SENSITIVE)`, c))
		}
		if err := execAll(p, ddl); err != nil {
			return err
		}
		load := func(table string, n int, into map[int64]acctRow) error {
			var tuples []string
			for id := int64(1); id <= int64(n); id++ {
				r := randomAcct(rng)
				into[id] = r
				tuples = append(tuples, r.literal(id))
				if len(tuples) == 200 || id == int64(n) {
					if _, err := p.Exec("INSERT INTO " + table + " VALUES " + strings.Join(tuples, ", ")); err != nil {
						return err
					}
					tuples = tuples[:0]
				}
			}
			return nil
		}
		if err := load("acct", acctRows, acct); err != nil {
			return err
		}
		for c := range branch {
			if err := load(fmt.Sprintf("branch_%d", c), branchRows, branch[c]); err != nil {
				return err
			}
		}
		return nil
	})
	closeAll := func() error {
		err := closeClients()
		stop()
		if cerr := store.Close(); err == nil {
			err = cerr
		}
		return err
	}
	if err != nil {
		closeAll()
		return nil, err
	}
	if cfg.corruptOracle {
		r := acct[1]
		r.credit++
		acct[1] = r
	}

	var userBytes atomic.Int64
	acked := make([][]int64, len(clients)) // ids each client's INSERTs were acknowledged for
	for i, c := range clients {
		i, p := i, c.p
		rng := rand.New(rand.NewSource(cfg.seed*7919 + int64(i) + 1))
		own := make(map[int64]acctRow) // rows this client inserted
		nextID := int64(i+1) * 1_000_000_000
		table := fmt.Sprintf("branch_%d", i)
		n := 0
		read := func(tbl string, id int64, want acctRow) op {
			sql := fmt.Sprintf("SELECT id, owner, balance, credit FROM %s WHERE id = %d", tbl, id)
			return op{class: "read", sql: sql,
				run:   func(ctx context.Context) (*proxy.Result, error) { return p.ExecContext(ctx, sql) },
				check: func(rows []types.Row) error { return sameRows(rows, []types.Row{want.values(id)}, true) }}
		}
		c.next = func() op {
			n++
			switch {
			case n%rotateEvery == 0:
				return op{class: "rotate", sql: "ROTATE " + table + ".balance",
					run: func(ctx context.Context) (*proxy.Result, error) {
						st, err := p.RotateColumn(table, "balance")
						return &proxy.Result{Stats: st}, err
					}}
			case rng.Float64() < oltpWriteShare:
				ids := make([]int64, oltpInsertRows)
				rows := make([]acctRow, oltpInsertRows)
				tuples := make([]string, oltpInsertRows)
				for k := range ids {
					nextID++
					ids[k], rows[k] = nextID, randomAcct(rng)
					tuples[k] = rows[k].literal(ids[k])
				}
				sql := "INSERT INTO acct VALUES " + strings.Join(tuples, ", ")
				return op{class: "write", sql: sql,
					run: func(ctx context.Context) (*proxy.Result, error) { return p.ExecContext(ctx, sql) },
					acked: func() {
						for k, id := range ids {
							own[id] = rows[k]
						}
						acked[i] = append(acked[i], ids...)
						userBytes.Add(int64(len(sql)))
					}}
			case rng.Float64() < oltpBranchShare:
				id := 1 + rng.Int63n(int64(branchRows))
				return read(table, id, branch[i][id])
			case rng.Float64() < oltpHotShare:
				id := 1 + rng.Int63n(int64(hotKeys))
				return read("acct", id, acct[id])
			default:
				// Uniform over the loaded rows and this client's own
				// acknowledged inserts, which must be readable at once.
				if k := rng.Intn(acctRows + len(acked[i])); k >= acctRows {
					id := acked[i][k-acctRows]
					return read("acct", id, own[id])
				}
				id := 1 + rng.Int63n(int64(acctRows))
				return read("acct", id, acct[id])
			}
		}
	}

	dep := &deployment{clients: clients, round: 50, warm: pick(cfg.tiny, 20, 200),
		latencyClasses: []string{"read"}, eng: eng, srv: srv, walTrace: walTrace, close: closeAll}
	dep.userBytes = func() int64 { return userBytes.Swap(0) }
	dep.finish = func(r *result) (int, error) {
		// Copy before Close, so a shutdown checkpoint cannot hide a record
		// the log lost; no statement is in flight here.
		copyDir := filepath.Join(scratch, "recovered")
		if err := copyTree(dataDir, copyDir); err != nil {
			return 0, err
		}
		t0 := time.Now()
		recovered := storage.NewCatalog()
		rs, err := wal.Open(copyDir, recovered, wal.Options{Fsync: wal.FsyncNever})
		if err != nil {
			return 0, fmt.Errorf("recover copy: %w", err)
		}
		recoverTime := time.Since(t0)
		defer rs.Close()
		t, err := recovered.Get("acct")
		if err != nil {
			return 0, err
		}
		present := make(map[int64]bool)
		for _, v := range t.Load().Cols[0] {
			present[v.I] = true
		}
		lost := 0
		for id := int64(1); id <= int64(acctRows); id++ {
			if !present[id] {
				lost++
			}
		}
		for _, ids := range acked {
			for _, id := range ids {
				if !present[id] {
					lost++
				}
			}
		}
		if r.layers != nil {
			r.layers["wal.recover_s"] = recoverTime.Seconds()
		}
		return lost, nil
	}
	return dep, nil
}

func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
