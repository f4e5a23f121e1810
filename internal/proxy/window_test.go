package proxy

// Rotation windows: a statement that overlaps a key rotation of its table
// must neither lose an acknowledged write nor read re-keyed shares under
// old tokens. Each test parks the SP at the point of the race (a gate in
// an Executor wrapper), then lets the other statement run until it either
// finishes or waits on the table's key lock — so the interleaving is fixed
// without a sleep — and checks every answer against the plaintext.

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"sdb/internal/engine"
	"sdb/internal/secure"
	"sdb/internal/server"
	"sdb/internal/storage"
)

// gate parks the first statement that reaches it until released.
type gate struct {
	once    sync.Once
	reached chan struct{}
	release chan struct{}
}

func newGate() *gate {
	return &gate{reached: make(chan struct{}), release: make(chan struct{})}
}

func (g *gate) pass() {
	if g == nil {
		return
	}
	g.once.Do(func() {
		close(g.reached)
		<-g.release
	})
}

// gatedExec wraps the SP: afterUpdate parks a rotation's UPDATE once the
// SP committed it, before the proxy publishes the new key; beforeQuery
// parks a SELECT after its stamp check, before the SP pins a snapshot.
type gatedExec struct {
	Executor
	afterUpdate, beforeQuery *gate
}

func (g *gatedExec) ExecuteSQL(sql string) (*engine.Result, error) {
	res, err := g.Executor.ExecuteSQL(sql)
	if strings.HasPrefix(sql, "UPDATE") {
		g.afterUpdate.pass()
	}
	return res, err
}

func (g *gatedExec) PrepareStream(sql string) (engine.PreparedStmt, error) {
	st, err := g.Executor.PrepareStream(sql)
	return gatedStmt{st, g}, err
}

type gatedStmt struct {
	engine.PreparedStmt
	g *gatedExec
}

func (s gatedStmt) Query(ctx context.Context) (engine.RowIterator, error) {
	s.g.beforeQuery.pass()
	return s.PreparedStmt.Query(ctx)
}

// windowRows is the table every window test starts from: v = 50·id − 600
// for id 1..24, so about half the rows are negative.
const windowRows = 24

// windowSystem builds a proxy over a gated SP — an in-process engine, or
// a server reached through a server.Client — holding windowRows rows.
func windowSystem(t *testing.T, remote bool) (*Proxy, *gatedExec) {
	t.Helper()
	secret, err := secure.Setup(512, 62, 80)
	if err != nil {
		t.Fatal(err)
	}
	g := &gatedExec{Executor: engine.New(storage.NewCatalog(), secret.N())}
	if remote {
		srv := server.New(secret.N())
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve()
		t.Cleanup(srv.Close)
		client, err := server.Dial(addr.String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { client.Close() })
		g.Executor = client
	}
	p, err := New(secret, g)
	if err != nil {
		t.Fatal(err)
	}
	mustP(t, p, `CREATE TABLE t (id INT, v INT SENSITIVE)`)
	var vals []string
	for id := 1; id <= windowRows; id++ {
		vals = append(vals, fmt.Sprintf("(%d, %d)", id, 50*id-600))
	}
	mustP(t, p, `INSERT INTO t VALUES `+strings.Join(vals, ", "))
	return p, g
}

// onLock returns a channel closed the first time a statement is about to
// take a key lock of the given kind.
func onLock(p *Proxy, exclusive bool) <-chan struct{} {
	at := make(chan struct{})
	var once sync.Once
	p.store.lockHook = func(_ string, x bool) {
		if x == exclusive {
			once.Do(func() { close(at) })
		}
	}
	return at
}

func executors(t *testing.T, run func(t *testing.T, remote bool)) {
	t.Run("engine", func(t *testing.T) { run(t, false) })
	t.Run("server", func(t *testing.T) { run(t, true) })
}

// TestInsertDuringRotation: an INSERT issued while a rotation of its table
// has committed at the SP but not yet published the new key. At the parent
// design the INSERT encrypted under the old key and committed after the
// re-keying UPDATE, so its acknowledged rows stopped decrypting (a column
// rotation) or comparing (a mask rotation).
func TestInsertDuringRotation(t *testing.T) {
	for _, rot := range []struct {
		name   string
		rotate func(*Proxy) error
	}{
		{"column", func(p *Proxy) error { _, err := p.RotateColumn("t", "v"); return err }},
		{"mask", func(p *Proxy) error { _, err := p.RotateMask("t"); return err }},
	} {
		t.Run(rot.name, func(t *testing.T) {
			executors(t, func(t *testing.T, remote bool) {
				p, g := windowSystem(t, remote)
				g.afterUpdate = newGate()
				insertAtLock := onLock(p, false)

				rotErr := make(chan error, 1)
				go func() { rotErr <- rot.rotate(p) }()
				<-g.afterUpdate.reached

				want := map[int64]int64{}
				for id := int64(1); id <= windowRows; id++ {
					want[id] = 50*id - 600
				}
				var vals []string
				for k := int64(0); k < 16; k++ {
					id, v := 100+k, (13*k+1)*(1-2*(k%2))
					want[id] = v
					vals = append(vals, fmt.Sprintf("(%d, %d)", id, v))
				}
				insErr := make(chan error, 1)
				go func() {
					_, err := p.Exec(`INSERT INTO t VALUES ` + strings.Join(vals, ", "))
					insErr <- err
				}()
				select {
				case <-insertAtLock: // the INSERT waits for the new key
				case err := <-insErr: // the INSERT ran inside the window
					insErr <- err
				}
				close(g.afterUpdate.release)
				if err := <-rotErr; err != nil {
					t.Fatalf("rotation: %v", err)
				}
				if err := <-insErr; err != nil {
					t.Fatalf("INSERT: %v", err)
				}

				res, err := p.Exec(`SELECT id, v FROM t`)
				if err != nil {
					t.Fatalf("reading back: %v", err)
				}
				if len(res.Rows) != len(want) {
					t.Fatalf("%d rows, want %d", len(res.Rows), len(want))
				}
				for _, row := range res.Rows {
					if w, ok := want[row[0].I]; !ok || row[1].I != w {
						t.Fatalf("row %d decrypted to %d, want %d", row[0].I, row[1].I, w)
					}
				}
				res, err = p.Exec(`SELECT id FROM t WHERE v > 0`)
				if err != nil {
					t.Fatalf("comparing: %v", err)
				}
				positive := 0
				for _, v := range want {
					if v > 0 {
						positive++
					}
				}
				if len(res.Rows) != positive {
					t.Fatalf("WHERE v > 0 returned %d rows, want %d", len(res.Rows), positive)
				}
				for _, row := range res.Rows {
					if want[row[0].I] <= 0 {
						t.Fatalf("WHERE v > 0 returned id %d (v = %d)", row[0].I, want[row[0].I])
					}
				}
			})
		})
	}
}

// TestSelectDuringRotation: a SELECT — one-shot or prepared — has passed
// its stamp check when a rotation of its table commits at the SP. At the
// parent design the SELECT then pinned the re-keyed shares and read them
// with the tokens and keys of the old plan.
func TestSelectDuringRotation(t *testing.T) {
	for _, q := range []struct {
		name, sql string
		check     func(*Result) error
	}{
		{"point", `SELECT v FROM t WHERE id = 3`, func(res *Result) error {
			if len(res.Rows) != 1 || res.Rows[0][0].I != -450 {
				return fmt.Errorf("point read: %v, want -450", res.Rows)
			}
			return nil
		}},
		{"range", `SELECT id, v FROM t WHERE v > 100 ORDER BY id`, func(res *Result) error {
			if len(res.Rows) != windowRows-14 {
				return fmt.Errorf("range read: %d rows, want %d", len(res.Rows), windowRows-14)
			}
			for i, row := range res.Rows {
				if id := int64(15 + i); row[0].I != id || row[1].I != 50*id-600 {
					return fmt.Errorf("range read row %d: %v", i, row)
				}
			}
			return nil
		}},
	} {
		for _, prepared := range []bool{false, true} {
			name := q.name + "/oneshot"
			if prepared {
				name = q.name + "/prepared"
			}
			t.Run(name, func(t *testing.T) {
				executors(t, func(t *testing.T, remote bool) {
					p, g := windowSystem(t, remote)
					run := func() (*Result, error) { return p.Exec(q.sql) }
					if prepared {
						stmt, err := p.Prepare(q.sql)
						if err != nil {
							t.Fatal(err)
						}
						defer stmt.Close()
						run = func() (*Result, error) { return stmt.ExecContext(context.Background()) }
					}
					res, err := run() // warm: the stamp is current
					if err != nil {
						t.Fatal(err)
					}
					if err := q.check(res); err != nil {
						t.Fatal(err)
					}
					g.beforeQuery = newGate()
					rotationAtLock := onLock(p, true)

					selErr := make(chan error, 1)
					go func() {
						res, err := run()
						if err == nil {
							err = q.check(res)
						}
						selErr <- err
					}()
					<-g.beforeQuery.reached

					rotErr := make(chan error, 1)
					go func() {
						_, err := p.RotateColumn("t", "v")
						rotErr <- err
					}()
					select {
					case <-rotationAtLock: // the rotation waits for the snapshot
					case err := <-rotErr: // the rotation ran inside the window
						rotErr <- err
					}
					close(g.beforeQuery.release)
					if err := <-selErr; err != nil {
						t.Fatalf("SELECT overlapping the rotation: %v", err)
					}
					if err := <-rotErr; err != nil {
						t.Fatalf("rotation: %v", err)
					}
					res, err = run()
					if err != nil {
						t.Fatalf("SELECT after the rotation: %v", err)
					}
					if err := q.check(res); err != nil {
						t.Fatalf("after the rotation: %v", err)
					}
				})
			})
		}
	}
}
