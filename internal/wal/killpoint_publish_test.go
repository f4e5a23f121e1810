package wal

// Kill points between version-build and version-publish. The engine's
// commit protocol logs the WAL record and then publishes the new table
// version inside one critical section; a crash between the two (simulated
// by a commit hook that panics) must behave as log-before-apply promises:
// a statement whose record is durable recovers in full, a statement that
// crashed before logging recovers not at all, and in neither case does the
// crashed process — or recovery — surface a half-published version.

import (
	"bytes"
	"strings"
	"testing"

	"sdb/internal/engine"
	"sdb/internal/proxy"
	"sdb/internal/secure"
	"sdb/internal/storage"
)

// publishCrashDeployment is a small durable deployment plus the paraphernalia
// the crash tests need: the engine (to install hooks and run raw SQL), the
// proxy (decrypted probes) over the engine with a crash point around
// re-key UPDATEs, and the state file recovery loads keys from, which the
// proxy keeps as its StatePath.
type publishCrashDeployment struct {
	dataDir   string
	statesDir string
	eng       *engine.Engine
	sp        *rekeyCrash
	p         *proxy.Proxy
	store     *Store
}

// rekeyCrash is the SP as the DO sees it, with a simulated crash (a panic)
// around a rotation's re-key UPDATE: before the statement reaches the SP,
// or after the SP has committed it and before the DO hears back.
type rekeyCrash struct {
	*engine.Engine
	before, after bool
}

func (c *rekeyCrash) ExecuteSQL(sql string) (*engine.Result, error) {
	rekey := strings.Contains(sql, "sdb_keyupdate")
	if rekey && c.before {
		panic("simulated crash before the re-key UPDATE")
	}
	res, err := c.Engine.ExecuteSQL(sql)
	if rekey && c.after {
		panic("simulated crash after the re-key UPDATE committed")
	}
	return res, err
}

func newPublishCrashDeployment(t *testing.T) *publishCrashDeployment {
	t.Helper()
	d := &publishCrashDeployment{dataDir: t.TempDir(), statesDir: t.TempDir()}
	secret, err := secure.Setup(256, 40, 40)
	if err != nil {
		t.Fatal(err)
	}
	cat := storage.NewCatalog()
	d.store, err = Open(d.dataDir, cat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.store.Close() })
	d.eng = engine.NewWithDurability(cat, secret.N(), engine.Options{}, d.store)
	d.sp = &rekeyCrash{Engine: d.eng}
	if d.p, err = proxy.NewWithOptions(secret, d.sp, proxy.Options{StatePath: statePath(d.statesDir, 0)}); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		"CREATE TABLE accts (id INT, bal INT SENSITIVE)",
		"INSERT INTO accts VALUES (1, 100), (2, 250)",
		"CREATE TABLE notes (id INT, tag INT)",
		"INSERT INTO notes VALUES (10, 1), (11, 2)",
	} {
		if _, err := d.p.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	if err := d.p.SaveState(statePath(d.statesDir, 0)); err != nil {
		t.Fatal(err)
	}
	return d
}

// crashAt runs one statement with a hook that panics at the given commit
// phase, returning the recovered panic value ("" means no panic fired).
func (d *publishCrashDeployment) crashAt(t *testing.T, phase engine.CommitPhase, sql string) (panicked string) {
	t.Helper()
	d.eng.SetCommitHook(func(p engine.CommitPhase, table string) {
		if p == phase {
			panic("simulated crash at phase " + string(rune('0'+int(p))))
		}
	})
	defer d.eng.SetCommitHook(nil)
	defer func() {
		if r := recover(); r != nil {
			panicked = r.(string)
		}
	}()
	if _, err := d.eng.ExecuteSQL(sql); err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return ""
}

// recoverCopy recovers a point-in-time copy of the deployment's data dir
// and returns the decrypted probe answers plus the recovered LSN.
func (d *publishCrashDeployment) recoverCopy(t *testing.T) (string, uint64) {
	t.Helper()
	sub := t.TempDir()
	copyDir(t, d.dataDir, sub)
	return recoverAndProbe(t, sub, d.statesDir, 0)
}

// TestKillPointPublishCrash crashes INSERT and UPDATE statements between
// the WAL append and the version publish. The crashed process must keep
// serving the pre-statement state (nothing half-published), and recovery
// must replay the logged statement in full.
func TestKillPointPublishCrash(t *testing.T) {
	for _, tc := range []struct {
		name, sql string
	}{
		{"insert", "INSERT INTO notes VALUES (12, 3)"},
		{"update", "UPDATE notes SET tag = tag + 10"},
		{"drop", "DROP TABLE notes"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := newPublishCrashDeployment(t)
			before := probeAll(d.p)
			baseLSN := d.store.LSN()

			if p := d.crashAt(t, engine.CommitLogged, tc.sql); p == "" {
				t.Fatal("commit hook did not fire")
			}
			// The crashed process never published: its readers still see
			// the pre-statement state, whole.
			if got := probeAll(d.p); got != before {
				t.Fatalf("state published despite crash before publish:\ngot:\n%s\nwant:\n%s", got, before)
			}

			// Recovery replays the logged statement: logged means
			// committed, even though no reader of the crashed process
			// ever saw it.
			got, lsn := d.recoverCopy(t)
			if lsn != baseLSN+1 {
				t.Fatalf("recovered LSN = %d, want %d (the crashed statement's record)", lsn, baseLSN+1)
			}
			if got == before {
				t.Fatal("recovery dropped a logged statement")
			}
			want := d.expectAfter(t, tc.sql)
			if got != want {
				t.Fatalf("recovered answers wrong:\ngot:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// TestKillPointBuildCrash crashes the same statements before they enter
// the commit critical section: nothing is logged, so the crashed process
// and recovery must both serve the exact pre-statement state.
func TestKillPointBuildCrash(t *testing.T) {
	d := newPublishCrashDeployment(t)
	before := probeAll(d.p)
	baseLSN := d.store.LSN()

	if p := d.crashAt(t, engine.CommitBuilt, "INSERT INTO notes VALUES (12, 3)"); p == "" {
		t.Fatal("commit hook did not fire")
	}
	if got := probeAll(d.p); got != before {
		t.Fatalf("state changed despite crash before logging:\ngot:\n%s\nwant:\n%s", got, before)
	}
	got, lsn := d.recoverCopy(t)
	if lsn != baseLSN {
		t.Fatalf("recovered LSN = %d, want %d (nothing was logged)", lsn, baseLSN)
	}
	if got != before {
		t.Fatalf("recovery invented an unlogged statement:\ngot:\n%s\nwant:\n%s", got, before)
	}
}

// TestKillPointCrashThenContinue proves the crashed-commit locks were
// released: after a simulated crash the same process can run the statement
// again successfully (the hook is gone, as after a restart).
func TestKillPointCrashThenContinue(t *testing.T) {
	d := newPublishCrashDeployment(t)
	if p := d.crashAt(t, engine.CommitBuilt, "INSERT INTO notes VALUES (12, 3)"); p == "" {
		t.Fatal("commit hook did not fire")
	}
	if _, err := d.eng.ExecuteSQL("INSERT INTO notes VALUES (13, 4)"); err != nil {
		t.Fatalf("statement after crashed commit: %v", err)
	}
	got := probeAll(d.p)
	if !strings.Contains(got, "13,4") {
		t.Fatalf("post-crash insert invisible:\n%s", got)
	}
}

// TestKillPointRotationStateWrite crashes the DO inside a column and a
// mask rotation, at the two points its state file must cover: after the
// pending key is written and before the SP's re-key UPDATE, and after the
// SP has committed the UPDATE and before the final state write. A
// rotation changes no plaintext, so in both the reopened DO — WAL replay
// plus the state file as the crash left it — must decrypt every row to
// the pre-rotation answers; the WAL holds the UPDATE in the second only.
// A state file written only after the UPDATE holds no pending key, and
// the second case loses the column.
func TestKillPointRotationStateWrite(t *testing.T) {
	for _, leg := range []struct {
		name   string
		rotate func(p *proxy.Proxy) error
	}{
		{"column", func(p *proxy.Proxy) error { _, err := p.RotateColumn("accts", "bal"); return err }},
		{"mask", func(p *proxy.Proxy) error { _, err := p.RotateMask("accts"); return err }},
	} {
		for _, committed := range []bool{false, true} {
			name := leg.name + "/before-update"
			if committed {
				name = leg.name + "/after-commit"
			}
			t.Run(name, func(t *testing.T) {
				d := newPublishCrashDeployment(t)
				before := probeAll(d.p)
				baseLSN := d.store.LSN()

				d.sp.before, d.sp.after = !committed, committed
				crashed := func() (crashed bool) {
					defer func() { crashed = recover() != nil }()
					leg.rotate(d.p)
					return false
				}()
				if !crashed {
					t.Fatal("the rotation never reached the crash point")
				}
				if state := readFile(t, statePath(d.statesDir, 0)); !bytes.Contains(state, []byte(`"Pending"`)) {
					t.Fatal("the state file the crash left holds no pending key")
				}

				got, lsn := d.recoverCopy(t)
				wantLSN := baseLSN
				if committed {
					wantLSN++
				}
				if lsn != wantLSN {
					t.Fatalf("recovered LSN = %d, want %d", lsn, wantLSN)
				}
				if got != before {
					t.Fatalf("recovered answers wrong:\ngot:\n%s\nwant:\n%s", got, before)
				}
			})
		}
	}
}

// expectAfter computes the golden post-statement answers on a twin
// deployment that runs the same statement without crashing. Probe output
// is decrypted plaintext, so it compares across deployments with
// different secrets.
func (d *publishCrashDeployment) expectAfter(t *testing.T, sql string) string {
	t.Helper()
	twin := newPublishCrashDeployment(t)
	if _, err := twin.eng.ExecuteSQL(sql); err != nil {
		t.Fatal(err)
	}
	return probeAll(twin.p)
}
