// Package wal is the service provider's durability subsystem: an
// append-only, CRC-checksummed redo log plus periodic column-snapshot
// checkpoints, tracked by an atomically-replaced MANIFEST.
//
// The engine follows a strict log-before-apply discipline: a write
// statement is fully validated, logged as exactly one WAL record, and only
// then applied to the in-memory catalog (the apply cannot fail after
// validation). Recovery therefore replays a prefix of committed statements
// — never a partial statement — regardless of where a crash lands:
//
//   - a torn final record fails its CRC and is truncated away;
//   - a checkpoint interrupted before its MANIFEST rename leaves only
//     unreferenced temp/snapshot files, which recovery deletes;
//   - replay filters records by LSN (> checkpoint LSN), so every crash
//     point between snapshot write and old-log deletion is idempotent.
//
// The store holds the same data the in-memory catalog does — shares,
// SIES row ids, helpers, plaintext insensitive columns — and nothing
// more. Key material never reaches this layer, so a stolen data
// directory is exactly as opaque as a scraped service provider.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"sdb/internal/storage"
	"sdb/internal/types"
)

// Fsync policies for Options.Fsync.
const (
	// FsyncAlways syncs after every logged statement. Batched INSERTs are
	// one record, so this is group commit at statement granularity: a
	// thousand-row insert costs one fsync.
	FsyncAlways = "always"
	// FsyncInterval leaves syncing to a background flusher (flushEvery
	// apart); a crash may lose the last interval's statements but never
	// corrupts the store.
	FsyncInterval = "interval"
	// FsyncNever issues no explicit syncs; durability is whatever the OS
	// page cache provides. Recovery safety is unchanged.
	FsyncNever = "never"
)

// flushEvery is the background flusher's period under FsyncInterval.
const flushEvery = 25 * time.Millisecond

// Options configures a Store.
type Options struct {
	// Fsync is one of FsyncAlways (default), FsyncInterval, FsyncNever.
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
	// Tables and Rows count what recovery loaded (snapshot + replay).
	Tables int
	Rows   int
}

// Store is a durable WAL + checkpoint store rooted at one directory. It
// implements storage.Durability. The engine serializes write statements,
// so Log* and MaybeCheckpoint are never called concurrently with each
// other; the internal mutex additionally covers the background flusher
// and direct Checkpoint/Close calls.
type Store struct {
	dir  string
	opts Options
	cat  *storage.Catalog

	mu         sync.Mutex
	f          *os.File
	logPath    string
	startLSN   uint64 // first LSN of the current log file minus… see record.go: records are positional
	lsn        uint64 // last appended LSN
	checkLSN   uint64 // LSN covered by the last checkpoint
	gens       storage.Generations
	sinceCheck int
	dirty      bool // unsynced appends (interval/never modes)
	closed     bool
	failed     error // sticky: a torn in-flight append poisons the store

	recovered RecoveryInfo

	stopFlush chan struct{}
	flushDone chan struct{}
}

var errClosed = errors.New("wal: store is closed")

// Open opens (or creates) the store at dir, recovers its contents into
// cat — which must be empty — and leaves the store ready to append.
func Open(dir string, cat *storage.Catalog, opts Options) (*Store, error) {
	if opts.Fsync == "" {
		opts.Fsync = FsyncAlways
	}
	switch opts.Fsync {
	case FsyncAlways, FsyncInterval, FsyncNever:
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
	if s.opts.Fsync == FsyncInterval {
		s.stopFlush = make(chan struct{})
		s.flushDone = make(chan struct{})
		go s.flushLoop()
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
// checkpoint always snapshots the state its LSN claims.
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
	switch s.opts.Fsync {
	case FsyncAlways:
		if err := s.f.Sync(); err != nil {
			s.failed = err
			return err
		}
	default:
		s.dirty = true
	}
	return nil
}

func (s *Store) syncLocked() error {
	if s.closed {
		return errClosed
	}
	if s.failed != nil {
		return s.failed
	}
	if !s.dirty {
		return nil
	}
	if err := s.f.Sync(); err != nil {
		s.failed = err
		return err
	}
	s.dirty = false
	return nil
}

func (s *Store) flushLoop() {
	defer close(s.flushDone)
	tick := time.NewTicker(flushEvery)
	defer tick.Stop()
	for {
		select {
		case <-s.stopFlush:
			return
		case <-tick.C:
			s.mu.Lock()
			if !s.closed && s.failed == nil && s.dirty {
				if err := s.f.Sync(); err != nil {
					s.failed = err
				} else {
					s.dirty = false
				}
			}
			s.mu.Unlock()
		}
	}
}

// ---- checkpoint ----

// Checkpoint forces a checkpoint: snapshot every table, start a fresh log,
// commit the new MANIFEST, and delete the superseded log and snapshots.
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
	// 1. Make every logged record durable: the snapshot about to be taken
	// includes their effects, and the manifest will claim their LSN.
	if s.dirty {
		if err := s.f.Sync(); err != nil {
			s.failed = err
			return err
		}
		s.dirty = false
	}

	old, err := readManifest(s.dir)
	if err != nil {
		return err
	}

	// 2. Snapshot every table. These files are invisible until the
	// manifest references them; a crash here leaves deletable garbage.
	tables := s.cat.Tables()
	refs := make([]SnapshotRef, 0, len(tables))
	for i, t := range tables {
		name := fmt.Sprintf("snap-%016x-%04d.snap", s.lsn, i)
		if err := writeSnapshot(s.dir, name, t); err != nil {
			return err
		}
		refs = append(refs, SnapshotRef{Table: t.Name, File: name})
	}

	// 3. Start the next log. Created atomically (temp + rename) so a
	// half-written header can never exist on disk.
	newPath, err := createLog(s.dir, s.lsn)
	if err != nil {
		return err
	}

	// 4. Commit: the manifest rename is the checkpoint's atomic flip.
	// Before it, the old manifest + old log reproduce the state; after
	// it, the snapshots + (empty) new log do.
	m := &Manifest{
		Version:       manifestVersion,
		CheckpointLSN: s.lsn,
		Generations:   s.gens,
		Snapshots:     refs,
	}
	if err := writeManifest(s.dir, m); err != nil {
		return err
	}

	// 5. Swap the append target.
	newF, err := os.OpenFile(newPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	oldPath := s.logPath
	s.f.Close()
	s.f = newF
	s.logPath = newPath
	s.startLSN = s.lsn
	s.checkLSN = s.lsn
	s.sinceCheck = 0

	// 6. Delete superseded files (best effort — recovery also collects
	// them, so a crash mid-deletion is fine).
	if oldPath != newPath {
		os.Remove(oldPath)
	}
	for _, ref := range old.Snapshots {
		if !refsContain(refs, ref.File) {
			os.Remove(filepath.Join(s.dir, ref.File))
		}
	}
	return nil
}

func refsContain(refs []SnapshotRef, file string) bool {
	for _, r := range refs {
		if r.File == file {
			return true
		}
	}
	return false
}

// Close flushes and closes the store. It does not checkpoint; callers
// wanting a compact restart call Checkpoint first.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	var err error
	if s.failed == nil && s.dirty {
		if serr := s.f.Sync(); serr != nil {
			err = serr
		}
		s.dirty = false
	}
	s.closed = true
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	stop := s.stopFlush
	s.mu.Unlock()
	if stop != nil {
		close(stop)
		<-s.flushDone
	}
	return err
}

// ---- recovery ----

func createLog(dir string, startLSN uint64) (string, error) {
	buf := make([]byte, headerLen)
	copy(buf, logMagic)
	binary.LittleEndian.PutUint64(buf[len(logMagic):], startLSN)
	path := filepath.Join(dir, fmt.Sprintf("wal-%016x.log", startLSN))
	tmp := path + ".tmp"
	if err := writeFileSync(tmp, buf); err != nil {
		return "", err
	}
	if err := os.Rename(tmp, path); err != nil {
		return "", err
	}
	if err := syncDir(dir); err != nil {
		return "", err
	}
	return path, nil
}

// recover rebuilds the catalog from MANIFEST snapshots plus WAL replay,
// repairs a torn log tail, deletes interrupted-checkpoint garbage, and
// opens the newest log for appending.
func (s *Store) recover() error {
	if len(s.cat.Names()) != 0 {
		return errors.New("wal: recovery requires an empty catalog")
	}
	m, err := readManifest(s.dir)
	if err != nil {
		return err
	}

	// Load checkpointed tables.
	rows := 0
	for _, ref := range m.Snapshots {
		t, err := readSnapshot(filepath.Join(s.dir, ref.File))
		if err != nil {
			return err
		}
		if err := s.cat.Create(t); err != nil {
			return err
		}
		rows += t.NumRows()
	}

	// Scan every log file.
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	var logs []*scannedLog
	snapReferenced := make(map[string]bool, len(m.Snapshots))
	for _, ref := range m.Snapshots {
		snapReferenced[ref.File] = true
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, ".tmp"):
			// Interrupted atomic write; never referenced.
			os.Remove(filepath.Join(s.dir, name))
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log"):
			sl, err := scanLogFile(filepath.Join(s.dir, name))
			if err != nil {
				return err
			}
			logs = append(logs, sl)
		case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap"):
			if !snapReferenced[name] {
				// Snapshot from a checkpoint that never committed.
				os.Remove(filepath.Join(s.dir, name))
			}
		}
	}
	sort.Slice(logs, func(i, j int) bool { return logs[i].startLSN < logs[j].startLSN })

	// Replay records past the checkpoint, in LSN order. Only the newest
	// log may carry a torn tail (older logs were fsynced before any newer
	// log was created); a tear elsewhere that hides needed records is
	// corruption, not a crash artifact.
	replayed := m.CheckpointLSN
	gens := m.Generations
	for i, sl := range logs {
		last := i == len(logs)-1
		end := sl.startLSN + uint64(len(sl.records))
		if sl.validLen != sl.size && !last && end > m.CheckpointLSN {
			return fmt.Errorf("wal: %s: torn tail in a non-final log", sl.path)
		}
		for j := range sl.records {
			lsn := sl.startLSN + uint64(j) + 1
			if lsn <= replayed {
				continue // already covered by the checkpoint or a prior log
			}
			if lsn != replayed+1 {
				return fmt.Errorf("wal: missing records between LSN %d and %d", replayed, lsn)
			}
			rec := &sl.records[j]
			if err := s.apply(rec); err != nil {
				return fmt.Errorf("wal: replay LSN %d: %w", lsn, err)
			}
			if rec.Type == recInsert {
				rows += len(rec.Rows)
			}
			gens = rec.Gens
			replayed = lsn
		}
	}

	// Open (or create) the append target and repair its tail.
	if len(logs) == 0 {
		path, err := createLog(s.dir, replayed)
		if err != nil {
			return err
		}
		s.logPath = path
		s.startLSN = replayed
	} else {
		newest := logs[len(logs)-1]
		if newest.validLen != newest.size {
			if err := os.Truncate(newest.path, newest.validLen); err != nil {
				return err
			}
		}
		s.logPath = newest.path
		s.startLSN = newest.startLSN
		// Drop fully-superseded older logs (a crash between a checkpoint's
		// manifest flip and its deletions leaves these behind).
		for _, sl := range logs[:len(logs)-1] {
			if sl.startLSN+uint64(len(sl.records)) <= m.CheckpointLSN {
				os.Remove(sl.path)
			}
		}
	}
	f, err := os.OpenFile(s.logPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	s.f = f
	s.lsn = replayed
	s.checkLSN = m.CheckpointLSN
	s.gens = gens
	s.recovered = RecoveryInfo{
		Generations: gens,
		LSN:         replayed,
		Tables:      len(s.cat.Names()),
		Rows:        rows,
	}
	return nil
}

// apply replays one record into the catalog. Records were validated by
// the engine before logging, so failures here mean the log and snapshot
// disagree — real corruption, reported rather than papered over.
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

var _ storage.Durability = (*Store)(nil)
