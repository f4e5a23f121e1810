package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sdb/internal/engine"
	"sdb/internal/storage"
	"sdb/internal/types"
)

// LSN returns the last appended record's sequence number.
func (s *Store) LSN() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lsn
}

// RecordInfo locates one intact record inside a log file: its LSN and the
// file offset just past its frame (a valid crash/truncation boundary). The
// kill-point harness enumerates these to simulate a crash after every
// record. A record of the log's base section (Base) carries the log's
// start LSN: a cut after the last one recovers to that LSN, a cut after
// any other is refused.
type RecordInfo struct {
	LSN  uint64
	End  int64
	Base bool
}

// LogRecords scans a WAL log file and returns its start LSN plus the
// location of every intact record, base section first. A record's frame is
// rebuilt from its decoded form; the frames must tile the scanned prefix
// exactly.
func LogRecords(path string) (startLSN uint64, infos []RecordInfo, err error) {
	end := int64(headerLen)
	sl, err := scanLog(path, func(rec *Record, recEnd int64) error {
		payload, err := EncodeRecord(rec)
		if err != nil {
			return err
		}
		end += int64(len(frame(payload)))
		if end != recEnd {
			return fmt.Errorf("re-encoded record ends at %d, scan at %d", end, recEnd)
		}
		infos = append(infos, RecordInfo{End: end})
		return nil
	})
	if err != nil {
		return 0, nil, err
	}
	for i := range infos {
		if i < int(sl.base) {
			infos[i].LSN, infos[i].Base = sl.startLSN, true
		} else {
			infos[i].LSN = sl.startLSN + uint64(i+1) - uint64(sl.base)
		}
	}
	return sl.startLSN, infos, nil
}

func testSchema(t *testing.T) types.Schema {
	t.Helper()
	s, err := types.NewSchema([]types.Column{
		{Name: "id", Type: types.ColumnType{Kind: types.KindInt}},
		{Name: "v", Type: types.ColumnType{Kind: types.KindInt, Sensitive: true}},
		{Name: "name", Type: types.ColumnType{Kind: types.KindString}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRecordRoundTrip drives every record type through encode/decode,
// including the payloads only secure deployments produce (shares, big row
// ids and helpers).
func TestRecordRoundTrip(t *testing.T) {
	share := types.NewShare(new(big.Int).Lsh(big.NewInt(0x1234abcd), 200))
	recs := []*Record{
		{Type: recCreate, Gens: storage.Generations{Rotation: 3, Catalog: 7}, Table: "Orders", Schema: testSchema(t)},
		{
			Type: recInsert, Gens: storage.Generations{Catalog: 8}, Table: "Orders",
			Rows: []types.Row{
				{types.NewInt(1), share, types.NewString("héllo")},
				{types.NewInt(-5), types.Null, types.NewString("")},
			},
			RowEnc: []*big.Int{new(big.Int).Lsh(big.NewInt(9), 100), nil},
			Helper: []*big.Int{big.NewInt(77), nil},
		},
		{
			Type: recUpdate, Gens: storage.Generations{Rotation: 4, Catalog: 8}, Table: "Orders",
			Cols: map[int][]types.Value{
				1: {share, types.NewShare(big.NewInt(42))},
				0: {types.NewInt(10), types.NewInt(20)},
			},
		},
		{Type: recDrop, Gens: storage.Generations{Rotation: 4, Catalog: 9}, Table: "Orders"},
	}
	for _, rec := range recs {
		payload, err := EncodeRecord(rec)
		if err != nil {
			t.Fatalf("encode type %d: %v", rec.Type, err)
		}
		got, err := DecodeRecord(payload)
		if err != nil {
			t.Fatalf("decode type %d: %v", rec.Type, err)
		}
		if got.Type != rec.Type || got.Gens != rec.Gens || got.Table != rec.Table {
			t.Fatalf("type %d: header mismatch: %+v", rec.Type, got)
		}
		switch rec.Type {
		case recCreate:
			if got.Schema.Len() != rec.Schema.Len() {
				t.Fatalf("schema: got %d cols", got.Schema.Len())
			}
			for i, c := range rec.Schema.Columns {
				if got.Schema.Columns[i] != c {
					t.Fatalf("schema col %d: got %+v want %+v", i, got.Schema.Columns[i], c)
				}
			}
		case recInsert:
			if len(got.Rows) != len(rec.Rows) {
				t.Fatalf("rows: got %d", len(got.Rows))
			}
			for i := range rec.Rows {
				for j := range rec.Rows[i] {
					if !valueEq(got.Rows[i][j], rec.Rows[i][j]) {
						t.Fatalf("row %d col %d: got %v want %v", i, j, got.Rows[i][j], rec.Rows[i][j])
					}
				}
				wantEnc := rec.RowEnc[i]
				if wantEnc == nil {
					wantEnc = new(big.Int)
				}
				if got.RowEnc[i].Cmp(wantEnc) != 0 {
					t.Fatalf("rowEnc %d: got %v want %v", i, got.RowEnc[i], wantEnc)
				}
			}
		case recUpdate:
			if len(got.Cols) != len(rec.Cols) {
				t.Fatalf("cols: got %d", len(got.Cols))
			}
			for idx, col := range rec.Cols {
				for i := range col {
					if !valueEq(got.Cols[idx][i], col[i]) {
						t.Fatalf("col %d row %d: got %v want %v", idx, i, got.Cols[idx][i], col[i])
					}
				}
			}
		}
	}
}

func valueEq(a, b types.Value) bool {
	if a.K != b.K {
		return false
	}
	if a.K == types.KindShare {
		return a.B.Cmp(b.B) == 0
	}
	return a.I == b.I && a.S == b.S
}

// durableEngine opens a store at dir and an engine over it (plaintext-only
// deployment: n=nil exercises the full WAL machinery without key setup).
func durableEngine(t *testing.T, dir string, opts Options) (*engine.Engine, *Store) {
	t.Helper()
	cat := storage.NewCatalog()
	store, err := Open(dir, cat, opts)
	if err != nil {
		t.Fatal(err)
	}
	return engine.NewWithDurability(cat, nil, engine.Options{}, store), store
}

func mustExec(t *testing.T, e *engine.Engine, sql string) *engine.Result {
	t.Helper()
	res, err := e.ExecuteSQL(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return res
}

func queryInts(t *testing.T, e *engine.Engine, sql string) []int64 {
	t.Helper()
	res := mustExec(t, e, sql)
	out := make([]int64, 0, len(res.Rows))
	for _, r := range res.Rows {
		out = append(out, r[0].I)
	}
	return out
}

// TestReopenReplaysLog checks the basic cycle: log writes, close, reopen,
// identical catalog, monotonic LSN, no checkpoint involved.
func TestReopenReplaysLog(t *testing.T) {
	dir := t.TempDir()
	e, store := durableEngine(t, dir, Options{})
	mustExec(t, e, "CREATE TABLE t (a INT, s STRING)")
	mustExec(t, e, "INSERT INTO t VALUES (1, 'x'), (2, 'y')")
	mustExec(t, e, "INSERT INTO t VALUES (3, 'z')")
	mustExec(t, e, "UPDATE t SET a = a + 10 WHERE a >= 2")
	if got := store.LSN(); got != 4 {
		t.Fatalf("LSN = %d, want 4", got)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	e2, store2 := durableEngine(t, dir, Options{})
	defer store2.Close()
	info := store2.RecoveryInfo()
	if info.LSN != 4 || info.Tables != 1 || info.Rows != 3 {
		t.Fatalf("recovery info = %+v", info)
	}
	got := queryInts(t, e2, "SELECT a FROM t ORDER BY a")
	want := []int64{1, 12, 13}
	if len(got) != len(want) {
		t.Fatalf("rows: %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rows: %v, want %v", got, want)
		}
	}
	// New writes continue the same sequence.
	mustExec(t, e2, "INSERT INTO t VALUES (4, 'w')")
	if store2.LSN() != 5 {
		t.Fatalf("LSN after reopen+insert = %d, want 5", store2.LSN())
	}
}

// TestDropSurvivesRestart checks DROP is redone on replay.
func TestDropSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	e, store := durableEngine(t, dir, Options{})
	mustExec(t, e, "CREATE TABLE a (x INT)")
	mustExec(t, e, "CREATE TABLE b (x INT)")
	mustExec(t, e, "INSERT INTO a VALUES (1)")
	mustExec(t, e, "DROP TABLE a")
	store.Close()

	e2, store2 := durableEngine(t, dir, Options{})
	defer store2.Close()
	if _, err := e2.ExecuteSQL("SELECT x FROM a"); err == nil {
		t.Fatal("dropped table a still queryable after recovery")
	}
	mustExec(t, e2, "SELECT x FROM b")
}

// TestCheckpointCompactsAndRecovers checks that an automatic checkpoint
// leaves exactly one file — the new log, base section first — and that
// recovery from its base section plus its tail matches.
func TestCheckpointCompactsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	e, store := durableEngine(t, dir, Options{CheckpointEvery: 3})
	mustExec(t, e, "CREATE TABLE t (a INT)")
	mustExec(t, e, "INSERT INTO t VALUES (1)")
	mustExec(t, e, "INSERT INTO t VALUES (2)") // 3rd record → checkpoint
	mustExec(t, e, "INSERT INTO t VALUES (3)") // after checkpoint: replayed from log
	store.Close()

	if names := dirNames(t, dir); len(names) != 1 || names[0] != "wal-0000000000000003.log" {
		t.Fatalf("want only the checkpoint's log after a checkpoint, dir: %v", names)
	}

	e2, store2 := durableEngine(t, dir, Options{})
	defer store2.Close()
	info := store2.RecoveryInfo()
	if info.LSN != 4 || info.Rows != 3 {
		t.Fatalf("recovery info = %+v", info)
	}
	if sum := queryInts(t, e2, "SELECT SUM(a) FROM t"); len(sum) != 1 || sum[0] != 6 {
		t.Fatalf("sum = %v", sum)
	}
}

// TestIdleCheckpointLeavesLog: a checkpoint with nothing logged after the
// governing log's base — a second one in a row, or one right after
// reopening a store with no tail — leaves that log as it is, the same
// file rather than an identical rewrite under the same name. A tail
// recovered by Open counts toward CheckpointEvery.
func TestIdleCheckpointLeavesLog(t *testing.T) {
	dir := t.TempDir()
	checkpointKeeps := func(s *Store, label string) {
		t.Helper()
		before, err := os.Stat(s.LogPath())
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		after, err := os.Stat(s.LogPath())
		if err != nil {
			t.Fatal(err)
		}
		if !os.SameFile(before, after) {
			t.Fatalf("%s: the checkpoint rewrote %s", label, filepath.Base(s.LogPath()))
		}
	}
	e, store := durableEngine(t, dir, Options{})
	mustExec(t, e, "CREATE TABLE t (a INT)")
	mustExec(t, e, "INSERT INTO t VALUES (1)")
	if err := store.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	checkpointKeeps(store, "second checkpoint")
	store.Close()

	e, store = durableEngine(t, dir, Options{})
	checkpointKeeps(store, "checkpoint after reopening")
	mustExec(t, e, "INSERT INTO t VALUES (2)")
	store.Close()

	e, store = durableEngine(t, dir, Options{CheckpointEvery: 2})
	defer store.Close()
	mustExec(t, e, "INSERT INTO t VALUES (3)") // the 2nd record after the base
	if got := filepath.Base(store.LogPath()); got != "wal-0000000000000004.log" {
		t.Fatalf("log after two records past the base = %s, want the checkpoint at LSN 4", got)
	}
}

// TestTornTailDiscarded truncates the final record at every byte offset
// inside it and verifies recovery drops exactly that record.
func TestTornTailDiscarded(t *testing.T) {
	dir := t.TempDir()
	e, store := durableEngine(t, dir, Options{})
	mustExec(t, e, "CREATE TABLE t (a INT)")
	mustExec(t, e, "INSERT INTO t VALUES (1)")
	logPath := store.LogPath()
	_, infos, err := LogRecords(logPath)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, "INSERT INTO t VALUES (2)")
	store.Close()

	full, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	lastGood := infos[len(infos)-1].End
	for cut := lastGood + 1; cut < int64(len(full)); cut++ {
		sub := t.TempDir()
		copyDir(t, dir, sub)
		if err := os.Truncate(filepath.Join(sub, filepath.Base(logPath)), cut); err != nil {
			t.Fatal(err)
		}
		e2, store2 := durableEngine(t, sub, Options{})
		if info := store2.RecoveryInfo(); info.LSN != 2 || info.Rows != 1 {
			t.Fatalf("cut %d: recovery info = %+v", cut, info)
		}
		if got := queryInts(t, e2, "SELECT a FROM t"); len(got) != 1 || got[0] != 1 {
			t.Fatalf("cut %d: rows = %v", cut, got)
		}
		// The torn bytes were physically removed, so appends are clean.
		mustExec(t, e2, "INSERT INTO t VALUES (9)")
		store2.Close()
		e3, store3 := durableEngine(t, sub, Options{})
		if got := queryInts(t, e3, "SELECT a FROM t ORDER BY a"); len(got) != 2 || got[1] != 9 {
			t.Fatalf("cut %d after re-append: rows = %v", cut, got)
		}
		store3.Close()
	}
}

// TestCorruptRecordDiscarded flips one byte of the last record's payload
// (CRC mismatch) and expects recovery to drop it like a torn tail.
func TestCorruptRecordDiscarded(t *testing.T) {
	dir := t.TempDir()
	e, store := durableEngine(t, dir, Options{})
	mustExec(t, e, "CREATE TABLE t (a INT)")
	mustExec(t, e, "INSERT INTO t VALUES (1)")
	logPath := store.LogPath()
	_, infos, _ := LogRecords(logPath)
	mustExec(t, e, "INSERT INTO t VALUES (2)")
	store.Close()

	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of the final record (past its 8-byte frame
	// header), invalidating the CRC.
	data[infos[len(infos)-1].End+frameLen] ^= 0xff
	if err := os.WriteFile(logPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	e2, store2 := durableEngine(t, dir, Options{})
	defer store2.Close()
	if got := queryInts(t, e2, "SELECT a FROM t"); len(got) != 1 || got[0] != 1 {
		t.Fatalf("rows = %v", got)
	}
}

// TestGenerationsPersist checks the engine's plan-cache counters resume
// from the recovered values.
func TestGenerationsPersist(t *testing.T) {
	dir := t.TempDir()
	e, store := durableEngine(t, dir, Options{CheckpointEvery: 2})
	mustExec(t, e, "CREATE TABLE t (a INT)")
	mustExec(t, e, "INSERT INTO t VALUES (1)")
	mustExec(t, e, "INSERT INTO t VALUES (2)")
	rot, cat := e.Generations()
	if rot != 0 || cat != 3 {
		t.Fatalf("generations = %d/%d, want 0/3", rot, cat)
	}
	store.Close()

	e2, store2 := durableEngine(t, dir, Options{})
	defer store2.Close()
	rot2, cat2 := e2.Generations()
	if rot2 != rot || cat2 != cat {
		t.Fatalf("recovered generations = %d/%d, want %d/%d", rot2, cat2, rot, cat)
	}
	mustExec(t, e2, "INSERT INTO t VALUES (3)")
	if _, cat3 := e2.Generations(); cat3 != cat+1 {
		t.Fatalf("catalog generation after insert = %d, want %d", cat3, cat+1)
	}
}

// TestRecoveryCleansGarbage plants interrupted-checkpoint debris — temp
// files of logs that were never renamed into place — and verifies recovery
// removes it without touching the live log or files that are not the
// store's.
func TestRecoveryCleansGarbage(t *testing.T) {
	dir := t.TempDir()
	e, store := durableEngine(t, dir, Options{})
	mustExec(t, e, "CREATE TABLE t (a INT)")
	mustExec(t, e, "INSERT INTO t VALUES (1)")
	store.Close()

	for _, junk := range []string{"wal-0000000000000002.log.tmp", "wal-00000000000000ff.log.tmp", "keep.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, junk), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	e2, store2 := durableEngine(t, dir, Options{})
	defer store2.Close()
	if names := dirNames(t, dir); len(names) != 2 || names[0] != "keep.tmp" || names[1] != "wal-0000000000000000.log" {
		t.Fatalf("after recovery the dir holds %v, want the live log and keep.tmp", names)
	}
	if got := queryInts(t, e2, "SELECT a FROM t"); len(got) != 1 {
		t.Fatalf("rows = %v", got)
	}
}

// TestFsyncPolicies exercises both fsync policies end to end (durability
// of a clean Close, not of a crash), and refuses any other.
func TestFsyncPolicies(t *testing.T) {
	for _, policy := range []string{FsyncAlways, FsyncNever} {
		t.Run(policy, func(t *testing.T) {
			dir := t.TempDir()
			e, store := durableEngine(t, dir, Options{Fsync: policy})
			mustExec(t, e, "CREATE TABLE t (a INT)")
			mustExec(t, e, "INSERT INTO t VALUES (1)")
			store.Close()
			e2, store2 := durableEngine(t, dir, Options{})
			defer store2.Close()
			if got := queryInts(t, e2, "SELECT a FROM t"); len(got) != 1 || got[0] != 1 {
				t.Fatalf("rows = %v", got)
			}
		})
	}
	if _, err := Open(t.TempDir(), storage.NewCatalog(), Options{Fsync: "interval"}); err == nil || !strings.Contains(err.Error(), "unknown fsync policy") {
		t.Fatalf("Open with fsync interval: %v, want the unknown-policy error", err)
	}
}

// TestRefusesEarlierFormat opens the two kinds of data dir the previous
// on-disk format left — a bare SDBWAL01 log, and such a log beside a JSON
// MANIFEST and per-table .snap files — and requires Open to fail naming
// the log and its format, with every file left byte for byte as it was.
func TestRefusesEarlierFormat(t *testing.T) {
	oldLog := func(startLSN uint64, recs ...*Record) []byte {
		buf := append([]byte("SDBWAL01"), make([]byte, 8)...)
		binary.LittleEndian.PutUint64(buf[8:], startLSN)
		for _, rec := range recs {
			payload, err := EncodeRecord(rec)
			if err != nil {
				t.Fatal(err)
			}
			buf = append(buf, frame(payload)...)
		}
		return buf
	}
	create := &Record{Type: recCreate, Gens: storage.Generations{Catalog: 1}, Table: "t", Schema: testSchema(t)}
	drop := &Record{Type: recDrop, Gens: storage.Generations{Catalog: 3}, Table: "t"}
	for _, tc := range []struct {
		name  string
		files map[string][]byte
		log   string
	}{
		{"log only", map[string][]byte{
			"wal-0000000000000000.log": oldLog(0, create, drop),
		}, "wal-0000000000000000.log"},
		{"checkpointed", map[string][]byte{
			"MANIFEST": []byte(`{"version": 1, "checkpoint_lsn": 2, "generations": {"Rotation": 0, "Catalog": 2},` +
				` "snapshots": [{"table": "t", "file": "snap-0000000000000002-0000.snap"}]}` + "\n"),
			"snap-0000000000000002-0000.snap": append([]byte("SDBSNAP1"), 1, 't', 0, 0, 0, 0, 0),
			"wal-0000000000000002.log":        oldLog(2, drop),
			"MANIFEST.tmp":                    []byte("{"),
		}, "wal-0000000000000002.log"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			for name, data := range tc.files {
				if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			_, err := Open(dir, storage.NewCatalog(), Options{})
			if err == nil || !strings.Contains(err.Error(), tc.log) || !strings.Contains(err.Error(), "SDBWAL01") {
				t.Fatalf("Open = %v, want an error naming %s and SDBWAL01", err, tc.log)
			}
			names := dirNames(t, dir)
			if len(names) != len(tc.files) {
				t.Fatalf("dir holds %v after the refusal, want exactly the %d planted files", names, len(tc.files))
			}
			for name, want := range tc.files {
				got, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("%s changed by the refused Open (%v)", name, err)
				}
			}
		})
	}
}

// TestEmptyCatalogRequired guards the recovery precondition.
func TestEmptyCatalogRequired(t *testing.T) {
	cat := storage.NewCatalog()
	if err := cat.Create(storage.NewTable("t", testSchema(t))); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(t.TempDir(), cat, Options{}); err == nil {
		t.Fatal("Open accepted a non-empty catalog")
	}
}

func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
