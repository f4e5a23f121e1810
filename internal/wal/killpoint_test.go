package wal

// The kill-point differential harness is the durability proof ISSUE 7 asks
// for: it runs a secure workload (shares, tokens, rotations) through the
// proxy over a durable engine, snapshots the proxy's DO state and the
// decrypted answers after every statement, then simulates a crash at every
// WAL record boundary — plus torn and corrupted mid-record writes — and
// checks that the recovered database answers exactly as the committed
// prefix did. Because the engine logs one record per write statement, WAL
// prefix k pairs with proxy state file k.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"sdb/internal/engine"
	"sdb/internal/proxy"
	"sdb/internal/secure"
	"sdb/internal/storage"
)

// killStep is one write statement of the workload: either SQL through the
// proxy or a key-management call.
type killStep struct {
	name string
	run  func(p *proxy.Proxy) error
}

func sqlStep(sql string) killStep {
	return killStep{name: sql, run: func(p *proxy.Proxy) error {
		_, err := p.Exec(sql)
		return err
	}}
}

func killWorkload() []killStep {
	return []killStep{
		sqlStep("CREATE TABLE accts (id INT, bal INT SENSITIVE)"),
		sqlStep("INSERT INTO accts VALUES (1, 100), (2, 250)"),
		sqlStep("INSERT INTO accts VALUES (3, 75)"),
		{name: "ROTATE accts.bal", run: func(p *proxy.Proxy) error {
			_, err := p.RotateColumn("accts", "bal")
			return err
		}},
		sqlStep("CREATE TABLE notes (id INT, tag INT)"),
		sqlStep("INSERT INTO notes VALUES (10, 1), (11, 2)"),
		{name: "ROTATE MASK accts", run: func(p *proxy.Proxy) error {
			_, err := p.RotateMask("accts")
			return err
		}},
		sqlStep("INSERT INTO accts VALUES (4, 525)"),
		sqlStep("DROP TABLE notes"),
	}
}

// probeAll renders the decrypted answers to a fixed probe set. Errors
// (e.g. a table that does not exist at this prefix) normalize to ERR so
// the rendering is comparable across prefixes.
func probeAll(p *proxy.Proxy) string {
	probes := []string{
		"SELECT id, bal FROM accts",
		"SELECT SUM(bal) FROM accts",
		"SELECT id, tag FROM notes",
	}
	var out strings.Builder
	for _, q := range probes {
		res, err := p.Exec(q)
		if err != nil {
			fmt.Fprintf(&out, "%s => ERR\n", q)
			continue
		}
		lines := make([]string, 0, len(res.Rows))
		for _, r := range res.Rows {
			parts := make([]string, len(r))
			for i, v := range r {
				parts[i] = fmt.Sprintf("%v", v)
			}
			lines = append(lines, strings.Join(parts, ","))
		}
		sort.Strings(lines)
		fmt.Fprintf(&out, "%s => %s\n", q, strings.Join(lines, "; "))
	}
	return out.String()
}

// runKillWorkload executes the workload over a fresh durable deployment,
// saving the proxy state and golden probe answers after every statement.
// Returns the goldens (golden[k] = answers after k statements) and the
// final log path.
func runKillWorkload(t *testing.T, dataDir, statesDir string, opts Options) (golden []string, logPath string) {
	t.Helper()
	secret, err := secure.Setup(256, 40, 40)
	if err != nil {
		t.Fatal(err)
	}
	cat := storage.NewCatalog()
	store, err := Open(dataDir, cat, opts)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.NewWithDurability(cat, secret.N(), engine.Options{}, store)
	p, err := proxy.New(secret, eng)
	if err != nil {
		t.Fatal(err)
	}
	saveState := func(k int) {
		if err := p.SaveState(statePath(statesDir, k)); err != nil {
			t.Fatalf("save state %d: %v", k, err)
		}
	}
	golden = append(golden, probeAll(p))
	saveState(0)
	for k, step := range killWorkload() {
		if err := step.run(p); err != nil {
			t.Fatalf("step %d (%s): %v", k+1, step.name, err)
		}
		golden = append(golden, probeAll(p))
		saveState(k + 1)
	}
	logPath = store.LogPath()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	return golden, logPath
}

func statePath(dir string, k int) string {
	return filepath.Join(dir, fmt.Sprintf("state-%02d.json", k))
}

// recoverAndProbe restores a crashed data dir (already mutated by the
// caller) with the DO state for the given committed prefix and returns the
// probe answers plus the recovered LSN.
func recoverAndProbe(t *testing.T, dir, statesDir string, prefix int) (string, uint64) {
	t.Helper()
	sp := statePath(statesDir, prefix)
	secret, err := proxy.LoadStateSecret(sp)
	if err != nil {
		t.Fatal(err)
	}
	cat := storage.NewCatalog()
	store, err := Open(dir, cat, Options{})
	if err != nil {
		t.Fatalf("prefix %d: reopen: %v", prefix, err)
	}
	defer store.Close()
	eng := engine.NewWithDurability(cat, secret.N(), engine.Options{}, store)
	p, err := proxy.NewFromStateFile(sp, eng, proxy.Options{})
	if err != nil {
		t.Fatalf("prefix %d: proxy restore: %v", prefix, err)
	}
	for _, n := range dirNames(t, dir) {
		if strings.HasSuffix(n, ".tmp") {
			t.Fatalf("prefix %d: leftover temp file %s after recovery", prefix, n)
		}
	}
	return probeAll(p), store.LSN()
}

// TestKillPointDifferential crashes at every record boundary and at torn
// and corrupted offsets inside every record, then checks committed-prefix
// equivalence of the decrypted answers.
func TestKillPointDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("kill-point sweep is not short")
	}
	dataDir := t.TempDir()
	statesDir := t.TempDir()
	golden, logPath := runKillWorkload(t, dataDir, statesDir, Options{})

	startLSN, infos, err := LogRecords(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if startLSN != 0 {
		t.Fatalf("startLSN = %d", startLSN)
	}
	steps := killWorkload()
	if len(infos) != len(steps) {
		t.Fatalf("got %d WAL records for %d statements — the 1:1 pairing the harness depends on is broken", len(infos), len(steps))
	}
	full, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	logName := filepath.Base(logPath)
	// ends[i] = file offset after record i; ends[0] = bare header.
	ends := make([]int64, 0, len(infos)+1)
	ends = append(ends, int64(headerLen))
	for _, inf := range infos {
		ends = append(ends, inf.End)
	}

	check := func(prefix int, label string, mutate func(dir string)) {
		sub := t.TempDir()
		copyDir(t, dataDir, sub)
		mutate(sub)
		got, lsn := recoverAndProbe(t, sub, statesDir, prefix)
		if lsn != uint64(prefix) {
			t.Errorf("%s: recovered LSN = %d, want %d", label, lsn, prefix)
		}
		if got != golden[prefix] {
			t.Errorf("%s: answers diverge from committed prefix %d\ngot:\n%s\nwant:\n%s", label, prefix, got, golden[prefix])
		}
	}
	truncateTo := func(cut int64) func(dir string) {
		return func(dir string) {
			if err := os.Truncate(filepath.Join(dir, logName), cut); err != nil {
				t.Fatal(err)
			}
		}
	}

	for i := 0; i <= len(steps); i++ {
		// Crash exactly at the boundary after record i.
		check(i, fmt.Sprintf("boundary %d", i), truncateTo(ends[i]))
		if i == len(steps) {
			continue
		}
		// Torn writes inside record i+1: a lone length byte, a torn frame
		// header, half the payload. All must recover to prefix i.
		next := ends[i+1]
		for _, d := range []int64{1, frameLen - 1, frameLen + (next-ends[i]-frameLen)/2} {
			if cut := ends[i] + d; cut > ends[i] && cut < next {
				check(i, fmt.Sprintf("torn record %d (+%d bytes)", i+1, d), truncateTo(cut))
			}
		}
		// Corrupted full-length write: record i+1 is all on disk but its
		// last payload byte flipped, so the CRC rejects it.
		check(i, fmt.Sprintf("corrupt record %d", i+1), func(dir string) {
			path := filepath.Join(dir, logName)
			data := append([]byte(nil), full...)
			data = data[:next]
			data[next-1] ^= 0xff
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestKillPointAfterCheckpoint runs the same workload with checkpoints
// enabled and sweeps the crash boundaries of the post-checkpoint log:
// recovery must replay its base section and log tail into the same
// committed prefixes.
func TestKillPointAfterCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("kill-point sweep is not short")
	}
	dataDir := t.TempDir()
	statesDir := t.TempDir()
	golden, logPath := runKillWorkload(t, dataDir, statesDir, Options{CheckpointEvery: 4})

	startLSN, infos, err := LogRecords(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if startLSN == 0 {
		t.Fatal("no checkpoint happened; CheckpointEvery not honored")
	}
	logName := filepath.Base(logPath)
	check := func(prefix uint64, cut int64) {
		sub := t.TempDir()
		copyDir(t, dataDir, sub)
		if err := os.Truncate(filepath.Join(sub, logName), cut); err != nil {
			t.Fatal(err)
		}
		got, lsn := recoverAndProbe(t, sub, statesDir, int(prefix))
		if lsn != prefix {
			t.Errorf("cut %d: recovered LSN = %d, want %d", cut, lsn, prefix)
		}
		if got != golden[prefix] {
			t.Errorf("cut %d: answers diverge from prefix %d\ngot:\n%s\nwant:\n%s", cut, prefix, got, golden[prefix])
		}
	}
	// Boundary right after the base section (the checkpoint's state, empty
	// log tail), then after each record in the tail.
	baseEnd := int64(headerLen)
	for _, inf := range infos {
		if inf.Base {
			baseEnd = inf.End
		}
	}
	check(startLSN, baseEnd)
	for _, inf := range infos {
		if inf.Base {
			continue
		}
		check(inf.LSN, inf.End)
		// Torn one byte into the next record's frame is covered by the
		// non-checkpoint sweep; here cut mid-record to prove base section +
		// truncated tail still recovers the prefix.
		check(inf.LSN-1, inf.End-1)
	}
}

// TestKillPointCheckpointWindows crashes a checkpoint itself. For every
// committed prefix k of the workload it takes the data dir at k (the log
// cut after record k) and the same dir after a checkpoint at k, and builds
// the states a crash inside the checkpoint can leave: the old log beside a
// temp file of the new log cut at several offsets or complete (before the
// rename), and the new log beside the old one (after the rename). Each
// must recover prefix k with only the governing log left. A new log cut
// inside its base section cannot come from a crash — the base is fsynced
// before the rename — so Open must refuse it, name it, and change no file.
func TestKillPointCheckpointWindows(t *testing.T) {
	if testing.Short() {
		t.Skip("kill-point sweep is not short")
	}
	dataDir := t.TempDir()
	statesDir := t.TempDir()
	golden, logPath := runKillWorkload(t, dataDir, statesDir, Options{})
	_, infos, err := LogRecords(logPath)
	if err != nil {
		t.Fatal(err)
	}
	oldName := filepath.Base(logPath)

	for k := 0; k <= len(infos); k++ {
		before := t.TempDir()
		copyDir(t, dataDir, before)
		cut := int64(headerLen)
		if k > 0 {
			cut = infos[k-1].End
		}
		if err := os.Truncate(filepath.Join(before, oldName), cut); err != nil {
			t.Fatal(err)
		}
		after := t.TempDir()
		copyDir(t, before, after)
		store, err := Open(after, storage.NewCatalog(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		newName := filepath.Base(store.LogPath())
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
		if k > 0 && newName == oldName {
			t.Fatalf("prefix %d: the checkpoint kept log %s", k, newName)
		}
		oldLog := readFile(t, filepath.Join(before, oldName))
		newLog := readFile(t, filepath.Join(after, newName))
		_, newInfos, err := LogRecords(filepath.Join(after, newName))
		if err != nil {
			t.Fatal(err)
		}

		check := func(label string, from string, extra map[string][]byte, survivor string) {
			sub := t.TempDir()
			copyDir(t, from, sub)
			for name, data := range extra {
				if err := os.WriteFile(filepath.Join(sub, name), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			got, lsn := recoverAndProbe(t, sub, statesDir, k)
			if lsn != uint64(k) {
				t.Errorf("prefix %d, %s: recovered LSN = %d", k, label, lsn)
			}
			if got != golden[k] {
				t.Errorf("prefix %d, %s: answers diverge\ngot:\n%s\nwant:\n%s", k, label, got, golden[k])
			}
			if names := dirNames(t, sub); len(names) != 1 || names[0] != survivor {
				t.Errorf("prefix %d, %s: dir holds %v after recovery, want only %s", k, label, names, survivor)
			}
		}

		// Before the rename: the old log governs whatever the temp holds.
		// At k = 0 the checkpoint rewrites the fresh store's own log name,
		// so its temp file sits beside the same log.
		tmp := newName + ".tmp"
		for _, c := range []int64{0, 1, int64(headerLen) - 1, int64(headerLen), int64(len(newLog)) / 2, int64(len(newLog)) - 1, int64(len(newLog))} {
			check(fmt.Sprintf("temp cut at %d of %d", c, len(newLog)), before,
				map[string][]byte{tmp: newLog[:c]}, oldName)
		}
		// After the rename, before the old log is deleted.
		if newName != oldName {
			check("new log beside the old", after, map[string][]byte{oldName: oldLog}, newName)
		}

		// The new log cut inside its base section, beside the old log and
		// a temp file: refused by name, nothing truncated or deleted.
		prev := int64(headerLen)
		for _, inf := range newInfos {
			if !inf.Base {
				continue
			}
			for _, c := range []int64{prev, prev + 1, inf.End - 1} {
				sub := t.TempDir()
				files := map[string][]byte{newName: newLog[:c], tmp: newLog}
				if newName != oldName {
					files[oldName] = oldLog
				}
				for name, data := range files {
					if err := os.WriteFile(filepath.Join(sub, name), data, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				_, err := Open(sub, storage.NewCatalog(), Options{})
				if err == nil || !strings.Contains(err.Error(), newName) {
					t.Errorf("prefix %d, base cut at %d: Open = %v, want an error naming %s", k, c, err, newName)
				}
				if names := dirNames(t, sub); len(names) != len(files) {
					t.Errorf("prefix %d, base cut at %d: dir holds %v after the refusal", k, c, names)
				}
				for name, want := range files {
					if got := readFile(t, filepath.Join(sub, name)); !bytes.Equal(got, want) {
						t.Errorf("prefix %d, base cut at %d: %s changed by the refused Open", k, c, name)
					}
				}
			}
			prev = inf.End
		}
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
