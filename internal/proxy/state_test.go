package proxy

import (
	"path/filepath"
	"testing"

	"sdb/internal/engine"
	"sdb/internal/secure"
	"sdb/internal/storage"
)

// TestStateRoundTrip saves the proxy's DO state, rebuilds a proxy from the
// file over the same (still-running) engine, and checks the restored
// secrets decrypt existing shares and safely encrypt new ones.
func TestStateRoundTrip(t *testing.T) {
	secret, err := secure.Setup(256, 40, 40)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(storage.NewCatalog(), secret.N())
	p, err := New(secret, eng)
	if err != nil {
		t.Fatal(err)
	}
	mustP(t, p, "CREATE TABLE loans (id INT, amount INT SENSITIVE)")
	mustP(t, p, "INSERT INTO loans VALUES (1, 500), (2, 800)")
	if _, err := p.RotateColumn("loans", "amount"); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "do-state.json")
	if err := p.SaveState(path); err != nil {
		t.Fatal(err)
	}
	nonceBefore := p.nonce.Load()

	p2, err := NewFromStateFile(path, eng, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := mustP(t, p2, "SELECT SUM(amount) FROM loans")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 1300 {
		t.Fatalf("restored proxy decrypted %+v, want 1300", res.Rows)
	}
	// The nonce floor must land strictly past anything the old process
	// could have drawn, or SIES pads would repeat.
	if p2.nonce.Load() <= nonceBefore {
		t.Fatalf("restored nonce floor %d not past old floor %d", p2.nonce.Load(), nonceBefore)
	}
	mustP(t, p2, "INSERT INTO loans VALUES (3, 200)")
	res = mustP(t, p2, "SELECT SUM(amount) FROM loans")
	if res.Rows[0][0].I != 1500 {
		t.Fatalf("after restored insert: %+v, want 1500", res.Rows)
	}
}

// TestLoadStateSecret checks the scheme secret survives the file alone.
func TestLoadStateSecret(t *testing.T) {
	secret, err := secure.Setup(256, 40, 40)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(storage.NewCatalog(), secret.N())
	p, err := New(secret, eng)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "do-state.json")
	if err := p.SaveState(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadStateSecret(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.N().Cmp(secret.N()) != 0 {
		t.Fatal("restored secret has a different modulus")
	}
}

// TestDropDiscardsKeys checks DROP TABLE through the proxy removes the
// table's column keys and the table itself, and the name is reusable.
func TestDropDiscardsKeys(t *testing.T) {
	p, _ := bankSystem(t)
	if _, err := p.store.Get("accounts"); err != nil {
		t.Fatal(err)
	}
	mustP(t, p, "DROP TABLE accounts")
	if _, err := p.store.Get("accounts"); err == nil {
		t.Fatal("keys survived DROP")
	}
	if _, err := p.Exec("SELECT id FROM accounts"); err == nil {
		t.Fatal("dropped table still queryable")
	}
	mustP(t, p, "CREATE TABLE accounts (id INT, balance INT SENSITIVE)")
	mustP(t, p, "INSERT INTO accounts VALUES (9, 123)")
	res := mustP(t, p, "SELECT balance FROM accounts")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 123 {
		t.Fatalf("recreated table: %+v", res.Rows)
	}
}

// TestStatePathPersistsAutomatically checks Options.StatePath makes every
// key-changing operation durable without explicit SaveState calls.
func TestStatePathPersistsAutomatically(t *testing.T) {
	secret, err := secure.Setup(256, 40, 40)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(storage.NewCatalog(), secret.N())
	path := filepath.Join(t.TempDir(), "do-state.json")
	p, err := NewWithOptions(secret, eng, Options{StatePath: path})
	if err != nil {
		t.Fatal(err)
	}
	mustP(t, p, "CREATE TABLE loans (id INT, amount INT SENSITIVE)")
	mustP(t, p, "INSERT INTO loans VALUES (1, 700)")

	// The CREATE must already be on disk: a restore sees the keys.
	p2, err := NewFromStateFile(path, eng, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := mustP(t, p2, "SELECT amount FROM loans")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 700 {
		t.Fatalf("restored proxy: %+v", res.Rows)
	}
}

// TestSetOptionsKeepsStatePath: SetOptions changes how the proxy executes,
// not where it persists its keys. A durable proxy whose parallelism was
// retuned used to stop saving silently, and the next CREATE's keys were
// gone after a restart.
func TestSetOptionsKeepsStatePath(t *testing.T) {
	secret, err := secure.Setup(256, 40, 40)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(storage.NewCatalog(), secret.N())
	path := filepath.Join(t.TempDir(), "do-state.json")
	p, err := NewWithOptions(secret, eng, Options{StatePath: path})
	if err != nil {
		t.Fatal(err)
	}
	p.SetOptions(Options{Parallelism: 2})
	mustP(t, p, "CREATE TABLE loans (id INT, amount INT SENSITIVE)")
	mustP(t, p, "INSERT INTO loans VALUES (1, 700)")

	p2, err := NewFromStateFile(path, eng, Options{})
	if err != nil {
		t.Fatalf("reopen after SetOptions: %v", err)
	}
	res := mustP(t, p2, "SELECT amount FROM loans")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 700 {
		t.Fatalf("restored proxy: %+v", res.Rows)
	}
}
