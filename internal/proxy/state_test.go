package proxy

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
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

// stateSystem is a proxy that persists its keys to a state file, over an
// in-process engine holding t(id, v SENSITIVE) = (1, 100), (2, 250).
// onUpdate, when set, stands between the proxy and the engine for an
// UPDATE; run executes the UPDATE at the engine.
type stateSystem struct {
	eng      *engine.Engine
	p        *Proxy
	path     string
	onUpdate func(run func() (*engine.Result, error)) (*engine.Result, error)
	down     bool // every statement fails, as over a dead connection
}

func newStateSystem(t *testing.T) *stateSystem {
	t.Helper()
	secret, err := secure.Setup(256, 40, 40)
	if err != nil {
		t.Fatal(err)
	}
	s := &stateSystem{eng: engine.New(storage.NewCatalog(), secret.N()), path: filepath.Join(t.TempDir(), "do-state.json")}
	if s.p, err = NewWithOptions(secret, s, Options{StatePath: s.path}); err != nil {
		t.Fatal(err)
	}
	mustP(t, s.p, "CREATE TABLE t (id INT, v INT SENSITIVE)")
	mustP(t, s.p, "INSERT INTO t VALUES (1, 100), (2, 250)")
	return s
}

func (s *stateSystem) ExecuteSQL(sql string) (*engine.Result, error) {
	if s.down {
		return nil, errLost
	}
	run := func() (*engine.Result, error) { return s.eng.ExecuteSQL(sql) }
	if strings.HasPrefix(sql, "UPDATE") && s.onUpdate != nil {
		return s.onUpdate(run)
	}
	return run()
}

func (s *stateSystem) PrepareStream(sql string) (engine.PreparedStmt, error) {
	return s.eng.PrepareStream(sql)
}

// reopen builds a second proxy from the state file over the same engine,
// as a restarted DO would.
func (s *stateSystem) reopen(t *testing.T) *Proxy {
	t.Helper()
	p, err := NewFromStateFile(s.path, s.eng, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	return p
}

// rotationLegs are the two key changes a rotation makes: a value column's
// key and the comparison mask's.
var rotationLegs = []struct {
	name   string
	rotate func(p *Proxy) (Stats, error)
}{
	{"column", func(p *Proxy) (Stats, error) { return p.RotateColumn("t", "v") }},
	{"mask", func(p *Proxy) (Stats, error) { return p.RotateMask("t") }},
}

// checkStateSystem requires p to decrypt t's values and to answer a
// comparison, which goes through the mask, correctly.
func checkStateSystem(t *testing.T, label string, p *Proxy) {
	t.Helper()
	res, err := p.Exec("SELECT v FROM t ORDER BY id")
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if got := colInts(res, 0); len(got) != 2 || got[0] != 100 || got[1] != 250 {
		t.Fatalf("%s: read %v, want [100 250]", label, got)
	}
	res, err = p.Exec("SELECT id FROM t WHERE v > 150")
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if got := colInts(res, 0); len(got) != 1 || got[0] != 2 {
		t.Fatalf("%s: v > 150 gave ids %v, want [2]", label, got)
	}
}

// TestRotationStateWriteFailsAhead: the DO cannot write its state file
// when a rotation starts. A rotation that persisted only after the SP
// re-keyed lost the column here: a restarted proxy read it as "types:
// integer result overflows int64". The pending write comes first, so the
// SP is never asked.
func TestRotationStateWriteFailsAhead(t *testing.T) {
	for _, leg := range rotationLegs {
		t.Run(leg.name, func(t *testing.T) {
			s := newStateSystem(t)
			checkStateSystem(t, "before", s.p)
			if err := os.Mkdir(s.path+".tmp", 0o755); err != nil {
				t.Fatal(err)
			}
			s.onUpdate = func(run func() (*engine.Result, error)) (*engine.Result, error) {
				t.Error("the SP re-keyed although the pending write failed")
				return run()
			}
			if _, err := leg.rotate(s.p); err == nil {
				t.Fatal("rotation succeeded without a state file write")
			}
			checkStateSystem(t, "live proxy", s.p)
			checkStateSystem(t, "reopened proxy", s.reopen(t))
		})
	}
}

// TestRotationStateWriteFailsAfter: the DO cannot write its state file
// once the SP has re-keyed. The rotation reports the failed write, the
// live proxy keeps reading under the published key, and a reopened proxy
// settles the pending entry on the new key; without a pending entry the
// file would hold only the old key. A save made meanwhile, as another
// table's key change or a shutdown would make, must keep the entry.
func TestRotationStateWriteFailsAfter(t *testing.T) {
	for _, leg := range rotationLegs {
		t.Run(leg.name, func(t *testing.T) {
			s := newStateSystem(t)
			checkStateSystem(t, "before", s.p)
			s.onUpdate = func(run func() (*engine.Result, error)) (*engine.Result, error) {
				res, err := run()
				if err := s.p.SaveState(s.path); err != nil {
					t.Error(err)
				}
				if err := os.Mkdir(s.path+".tmp", 0o755); err != nil {
					t.Error(err)
				}
				return res, err
			}
			if _, err := leg.rotate(s.p); err == nil {
				t.Fatal("rotation reported success although its state write failed")
			}
			s.onUpdate = nil
			checkStateSystem(t, "live proxy", s.p)
			p2 := s.reopen(t)
			checkStateSystem(t, "reopened proxy", p2)
			live, _ := s.p.store.Get("t")
			got, _ := p2.store.Get("t")
			if !sameKey(live.MaskKey, got.MaskKey) || !sameKey(live.Keys["v"], got.Keys["v"]) {
				t.Fatal("the reopened proxy did not settle on the live proxy's new key")
			}
		})
	}
}

// TestRotationLostAnswerSettles: the re-key UPDATE returns an error, as a
// broken connection would, either after the SP committed it or before it
// ran. The rotation settles the pending key with a probe: it succeeds on
// the new key in the first case and reports the error under the old key
// in the second. Either way the live and a reopened proxy read the table.
func TestRotationLostAnswerSettles(t *testing.T) {
	for _, leg := range rotationLegs {
		for _, committed := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/committed=%v", leg.name, committed), func(t *testing.T) {
				s := newStateSystem(t)
				before, _ := s.p.store.Get("t")
				s.onUpdate = func(run func() (*engine.Result, error)) (*engine.Result, error) {
					if committed {
						run()
					}
					return nil, errLost
				}
				_, err := leg.rotate(s.p)
				if committed != (err == nil) || !committed && !errors.Is(err, errLost) {
					t.Fatalf("rotation = %v (SP committed: %v)", err, committed)
				}
				s.onUpdate = nil
				after, _ := s.p.store.Get("t")
				if rotated := !sameKey(before.MaskKey, after.MaskKey) || !sameKey(before.Keys["v"], after.Keys["v"]); rotated != committed {
					t.Fatalf("published a new key: %v, SP committed: %v", rotated, committed)
				}
				// Settled, the file has the layout it had before pending
				// entries existed.
				if data, err := os.ReadFile(s.path); err != nil || bytes.Contains(data, []byte(`"Pending"`)) {
					t.Fatalf("state file after a settled rotation: err %v, pending entry left: %v", err, err == nil)
				}
				checkStateSystem(t, "live proxy", s.p)
				checkStateSystem(t, "reopened proxy", s.reopen(t))
			})
		}
	}
}

// errLost is the error of an SP connection that broke.
var errLost = errors.New("connection reset")

// TestRotationUnsettledUntilReopen: the SP commits the re-key UPDATE and
// then becomes unreachable, so the rotation cannot probe it. The rotation
// fails, every later save keeps the pending entry, a second key change of
// the table is refused before it reaches the SP, and a reopened proxy
// settles on the new key.
func TestRotationUnsettledUntilReopen(t *testing.T) {
	s := newStateSystem(t)
	s.onUpdate = func(run func() (*engine.Result, error)) (*engine.Result, error) {
		run()
		s.down = true
		return nil, errLost
	}
	if _, err := s.p.RotateColumn("t", "v"); err == nil {
		t.Fatal("a rotation the proxy could not settle reported success")
	}
	s.down, s.onUpdate = false, nil
	if _, err := s.p.RotateMask("t"); err == nil || !strings.Contains(err.Error(), "settle") {
		t.Fatalf("second key change of an unsettled table = %v, want a refusal", err)
	}
	if err := s.p.SaveState(s.path); err != nil {
		t.Fatal(err)
	}
	checkStateSystem(t, "reopened proxy", s.reopen(t))
}

// TestPendingKeyDecodesUnderNeither: a state file whose pending key and
// old key both fail to decode the stored shares cannot be settled. Opening
// it must fail naming the table and leave the file as it was.
func TestPendingKeyDecodesUnderNeither(t *testing.T) {
	s := newStateSystem(t)
	stale, err := os.ReadFile(s.path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.p.RotateColumn("t", "v"); err != nil {
		t.Fatal(err)
	}
	// The file from before the rotation, with a pending key the SP never
	// saw: the shares are under a third key.
	var st map[string]any
	dec := json.NewDecoder(bytes.NewReader(stale))
	dec.UseNumber() // keys are integers wider than a float64
	if err := dec.Decode(&st); err != nil {
		t.Fatal(err)
	}
	stray, err := s.p.secret.NewColumnKey()
	if err != nil {
		t.Fatal(err)
	}
	st["tables"].(map[string]any)["t"].(map[string]any)["Pending"] = map[string]any{"Column": "v", "Key": stray}
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	_, err = NewFromStateFile(s.path, s.eng, Options{})
	if err == nil || !strings.Contains(err.Error(), "t.v") {
		t.Fatalf("NewFromStateFile = %v, want an error naming t.v", err)
	}
	if after, _ := os.ReadFile(s.path); !bytes.Equal(after, data) {
		t.Fatal("the refused state file changed")
	}
}
