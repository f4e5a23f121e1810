// Package wal is the service provider's durability subsystem: an
// append-only, CRC-checksummed redo log, compacted by checkpoints that
// each start a new log.
//
// The engine follows a strict log-before-apply discipline: a write
// statement is fully validated, logged as exactly one WAL record, and only
// then applied to the in-memory catalog (the apply cannot fail after
// validation). Recovery therefore replays a prefix of committed statements
// — never a partial statement — regardless of where a crash lands:
//
//   - a torn final record fails its CRC and is truncated away;
//   - a checkpoint writes its new log — the base section recreating every
//     table, then nothing — to a temp file and renames it into place; the
//     rename is its commit point, so a crash before it leaves the old log
//     governing and a temp file recovery deletes, and a crash after it
//     leaves the new log governing and an old log recovery deletes.
//
// The store holds the same data the in-memory catalog does — shares,
// SIES row ids, helpers, plaintext insensitive columns — and nothing
// more. Key material never reaches this layer, so a stolen data
// directory is exactly as opaque as a scraped service provider.
package wal

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/big"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"sdb/internal/storage"
	"sdb/internal/types"
)

// Fsync policies for Options.Fsync.
const (
	// FsyncAlways syncs after every logged statement. Batched INSERTs are
	// one record, so this is group commit at statement granularity: a
	// thousand-row insert costs one fsync.
	FsyncAlways = "always"
	// FsyncNever issues no explicit syncs; durability is whatever the OS
	// page cache provides. Recovery safety is unchanged.
	FsyncNever = "never"
)

// baseRows is the row count of one INSERT record in a checkpoint's base
// section, so no base frame nears maxFrame however large its table.
const baseRows = 1024

// Options configures a Store.
type Options struct {
	// Fsync is FsyncAlways (default) or FsyncNever.
	Fsync string
	// CheckpointEvery triggers an automatic checkpoint after this many WAL
	// records. Zero means checkpoints happen only via Checkpoint().
	CheckpointEvery int
}

// RecoveryInfo describes the state rebuilt by Open.
type RecoveryInfo struct {
	// Generations are the engine's rotation/catalog write counters as of
	// the last durable statement; the engine continues counting from them.
	// Nothing in the product reads them otherwise (storage.Generations).
	Generations storage.Generations
	// LSN is the last durable record's sequence number.
	LSN uint64
	// Tables and Rows count what recovery loaded (base section + replay).
	Tables int
	Rows   int
}

// Store is a durable WAL store rooted at one directory. It implements
// storage.Durability. The engine serializes write statements, so Log* and
// MaybeCheckpoint are never called concurrently with each other; the
// internal mutex additionally covers direct Checkpoint/Close calls.
type Store struct {
	dir  string
	opts Options
	cat  *storage.Catalog

	mu         sync.Mutex
	f          *os.File
	logPath    string
	lsn        uint64 // last appended LSN
	gens       storage.Generations
	sinceCheck int
	dirty      bool // unsynced appends (FsyncNever)
	closed     bool
	failed     error // sticky: a torn in-flight append poisons the store

	recovered RecoveryInfo
}

var errClosed = errors.New("wal: store is closed")

// Open opens (or creates) the store at dir, recovers its contents into
// cat — which must be empty — and leaves the store ready to append.
func Open(dir string, cat *storage.Catalog, opts Options) (*Store, error) {
	if opts.Fsync == "" {
		opts.Fsync = FsyncAlways
	}
	switch opts.Fsync {
	case FsyncAlways, FsyncNever:
	default:
		return nil, fmt.Errorf("wal: unknown fsync policy %q", opts.Fsync)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, opts: opts, cat: cat}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

// RecoveryInfo reports what Open rebuilt.
func (s *Store) RecoveryInfo() RecoveryInfo { return s.recovered }

// Recovered reports the generation counters as of recovery
// (storage.Durability).
func (s *Store) Recovered() storage.Generations { return s.recovered.Generations }

// LogPath returns the current log file's path (the crash-injection
// harness truncates copies of it).
func (s *Store) LogPath() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.logPath
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// ---- storage.Durability implementation ----

// LogCreate logs a CREATE TABLE.
func (s *Store) LogCreate(t *storage.Table, g storage.Generations) error {
	return s.append(&Record{Type: recCreate, Gens: g, Table: t.Name, Schema: t.Schema})
}

// LogInsert logs one batched INSERT: all rows of the statement become one
// record, so FsyncAlways still pays a single fsync per statement.
func (s *Store) LogInsert(table string, rows []types.Row, rowEnc, helper []*big.Int, g storage.Generations) error {
	return s.append(&Record{Type: recInsert, Gens: g, Table: table, Rows: rows, RowEnc: rowEnc, Helper: helper})
}

// LogUpdate logs the fully-evaluated replacement columns of an UPDATE
// (the engine's copy-on-write column swap), not the expressions — replay
// needs no evaluator and cannot diverge from what the engine computed.
func (s *Store) LogUpdate(table string, cols map[int][]types.Value, g storage.Generations) error {
	return s.append(&Record{Type: recUpdate, Gens: g, Table: table, Cols: cols})
}

// LogDrop logs a DROP TABLE.
func (s *Store) LogDrop(table string, g storage.Generations) error {
	return s.append(&Record{Type: recDrop, Gens: g, Table: table})
}

// MaybeCheckpoint checkpoints if CheckpointEvery records have accumulated
// since the last one. The engine calls it after applying a statement, so a
// checkpoint always writes the state its LSN claims.
func (s *Store) MaybeCheckpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.opts.CheckpointEvery <= 0 || s.sinceCheck < s.opts.CheckpointEvery {
		return nil
	}
	return s.checkpointLocked()
}

// ---- append path ----

func (s *Store) append(rec *Record) error {
	payload, err := EncodeRecord(rec)
	if err != nil {
		return err
	}
	buf := frame(payload)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errClosed
	}
	if s.failed != nil {
		return fmt.Errorf("wal: store failed earlier: %w", s.failed)
	}
	if _, err := s.f.Write(buf); err != nil {
		// The file may now hold a torn frame; poison the store so nothing
		// appends after it (recovery truncates the tear on next open).
		s.failed = err
		return err
	}
	s.lsn++
	s.sinceCheck++
	s.gens = rec.Gens
	if s.opts.Fsync == FsyncAlways {
		if err := s.f.Sync(); err != nil {
			s.failed = err
			return err
		}
	} else {
		s.dirty = true
	}
	return nil
}

// ---- checkpoint ----

// Checkpoint forces a checkpoint: write a new log whose base section
// recreates every table, make it the append target, and delete the log it
// supersedes.
func (s *Store) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.checkpointLocked()
}

func (s *Store) checkpointLocked() error {
	if s.closed {
		return errClosed
	}
	if s.failed != nil {
		return s.failed
	}
	// Until writeLog's rename the old log governs, and a failure leaves it
	// the append target. The new log holds every effect of the old one,
	// so the old one needs no sync first.
	path, f, err := writeLog(s.dir, s.lsn, s.gens, s.cat.Tables())
	if err != nil {
		return err
	}
	oldPath := s.logPath
	s.f.Close()
	s.f, s.logPath = f, path
	s.sinceCheck = 0
	s.dirty = false
	// After the rename the new log is the append target whatever happens:
	// if the rename cannot be made durable, appends to it could vanish
	// with it, so the store refuses them.
	if err := syncDir(s.dir); err != nil {
		s.failed = err
		return err
	}
	// A checkpoint with no record since the last one rewrites the same
	// name; otherwise the superseded log goes (recovery deletes it too,
	// so a crash before this line is fine).
	if oldPath != path {
		os.Remove(oldPath)
	}
	return nil
}

// writeLog writes the log a checkpoint at lsn starts to a temp file,
// fsyncs it and renames it into place, so the log exists whole or not at
// all; the caller fsyncs the directory. It returns the new log's path,
// open for appending.
func writeLog(dir string, lsn uint64, gens storage.Generations, tables []*storage.Table) (string, *os.File, error) {
	path := filepath.Join(dir, fmt.Sprintf("wal-%016x.log", lsn))
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC|os.O_APPEND, 0o644)
	if err != nil {
		return "", nil, err
	}
	w := bufio.NewWriterSize(f, 64<<10)
	err = writeBase(w, lsn, gens, tables)
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return "", nil, err
	}
	return path, f, nil
}

// writeBase writes a log's header and base section: each table's CREATE,
// then its rows as INSERTs of baseRows rows, all stamped with gens.
func writeBase(w io.Writer, lsn uint64, gens storage.Generations, tables []*storage.Table) error {
	// Pin each table's version once, so the base count in the header and
	// the records written agree.
	versions := make([]*storage.Version, len(tables))
	base := 0
	for i, t := range tables {
		versions[i] = t.Load()
		base += 1 + (versions[i].NumRows()+baseRows-1)/baseRows
	}
	hdr := logHeader{startLSN: lsn, gens: gens, base: uint32(base)}
	if _, err := w.Write(hdr.encode()); err != nil {
		return err
	}
	put := func(rec *Record) error {
		payload, err := EncodeRecord(rec)
		if err == nil {
			_, err = w.Write(frame(payload))
		}
		return err
	}
	rows := make([]types.Row, 0, baseRows)
	for i, t := range tables {
		if err := put(&Record{Type: recCreate, Gens: gens, Table: t.Name, Schema: t.Schema}); err != nil {
			return err
		}
		v := versions[i]
		for lo := 0; lo < v.NumRows(); lo += baseRows {
			hi := min(lo+baseRows, v.NumRows())
			rows = rows[:0]
			for r := lo; r < hi; r++ {
				rows = append(rows, v.RowAt(r))
			}
			if err := put(&Record{Type: recInsert, Gens: gens, Table: t.Name, Rows: rows, RowEnc: v.RowEnc[lo:hi], Helper: v.Helper[lo:hi]}); err != nil {
				return err
			}
		}
	}
	return nil
}

// Close flushes and closes the store. It does not checkpoint; callers
// wanting a compact restart call Checkpoint first.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	var err error
	if s.failed == nil && s.dirty {
		err = s.f.Sync()
		s.dirty = false
	}
	s.closed = true
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ---- recovery ----

// recover rebuilds the catalog from the newest log — its base section,
// then its tail — repairs a torn tail, deletes superseded logs and
// interrupted checkpoints' temp files, and opens the log for appending.
// It reads every log's header before it changes any file, and changes none
// unless the newest log replays whole.
func (s *Store) recover() error {
	if len(s.cat.Names()) != 0 {
		return errors.New("wal: recovery requires an empty catalog")
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	var debris []string // logs and interrupted checkpoints' temp files
	var newest string
	var newestLSN uint64
	for _, e := range entries {
		name := e.Name()
		path := filepath.Join(s.dir, name)
		switch {
		case !strings.HasPrefix(name, "wal-"):
		case strings.HasSuffix(name, ".log.tmp"):
			debris = append(debris, path)
		case strings.HasSuffix(name, ".log"):
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			hdr, err := readHeader(f, path)
			f.Close()
			if err != nil {
				return err
			}
			debris = append(debris, path)
			if newest == "" || hdr.startLSN > newestLSN {
				newest, newestLSN = path, hdr.startLSN
			}
		}
	}
	if newest == "" {
		// A fresh store's first log is the checkpoint of an empty catalog
		// at LSN 0.
		path, f, err := writeLog(s.dir, 0, storage.Generations{}, nil)
		if err != nil {
			return err
		}
		f.Close()
		if err := syncDir(s.dir); err != nil {
			return err
		}
		newest = path
	}

	// Replay the newest log: its base section recreates the catalog as of
	// its start LSN, and every record after it is one logged statement.
	// Base records carry the header's generations, so the last record
	// read holds the current ones either way.
	n, rows := 0, 0
	var gens storage.Generations
	sl, err := scanLog(newest, func(rec *Record, _ int64) error {
		n++
		if err := s.apply(rec); err != nil {
			return fmt.Errorf("wal: %s: replay record %d: %w", newest, n, err)
		}
		if rec.Type == recInsert {
			rows += len(rec.Rows)
		}
		gens = rec.Gens
		return nil
	})
	if err != nil {
		return err
	}
	// The base section was fsynced before the rename that made this log
	// the newest, so a short one is damage, not a crash: refuse it rather
	// than truncate tables away.
	if n < int(sl.base) {
		return fmt.Errorf("wal: %s: checkpoint base section holds %d of %d records", newest, n, sl.base)
	}
	if n == 0 {
		gens = sl.gens
	}
	if sl.validLen != sl.size {
		if err := os.Truncate(newest, sl.validLen); err != nil {
			return err
		}
	}
	for _, path := range debris {
		if path != newest {
			os.Remove(path)
		}
	}
	f, err := os.OpenFile(newest, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	s.f, s.logPath = f, newest
	s.lsn = sl.startLSN + uint64(n-int(sl.base))
	s.gens = gens
	s.recovered = RecoveryInfo{
		Generations: gens,
		LSN:         s.lsn,
		Tables:      len(s.cat.Names()),
		Rows:        rows,
	}
	return nil
}

// apply replays one record into the catalog. Records were validated by
// the engine before logging, so failures here mean the log disagrees with
// itself — real corruption, reported rather than papered over.
func (s *Store) apply(rec *Record) error {
	switch rec.Type {
	case recCreate:
		return s.cat.Create(storage.NewTable(rec.Table, rec.Schema))
	case recInsert:
		t, err := s.cat.Get(rec.Table)
		if err != nil {
			return err
		}
		return t.AppendBatch(rec.Rows, rec.RowEnc, rec.Helper)
	case recUpdate:
		t, err := s.cat.Get(rec.Table)
		if err != nil {
			return err
		}
		return t.SwapCols(rec.Cols)
	case recDrop:
		return s.cat.Drop(rec.Table)
	default:
		return fmt.Errorf("unknown record type %d", rec.Type)
	}
}

// syncDir fsyncs a directory so renames within it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

var _ storage.Durability = (*Store)(nil)
