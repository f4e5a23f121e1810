package proxy

// Rotation windows: a statement that overlaps a key rotation of its table
// must neither lose an acknowledged write nor read re-keyed shares under
// old tokens. Each test parks the SP at the point of the race (a gate in
// an Executor wrapper), then lets the other statement run until it either
// finishes or waits on the table's key lock — so the interleaving is fixed
// without a sleep — and checks every answer against the plaintext.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

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
		srv := server.NewWithOptions(secret.N(), engine.Options{})
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

// TestCancelWhileWaitingOnRotation: a statement cancelled while it waits on
// a table's key lock behind a parked rotation returns context.Canceled at
// once, not when the rotation ends: a key lock that cannot be abandoned (a
// sync.RWMutex) makes it wait the rotation out. Afterwards every row still
// decrypts, and the cancelled waiter left no lock behind: a later
// rotation of the table runs.
func TestCancelWhileWaitingOnRotation(t *testing.T) {
	for _, st := range []struct {
		name string
		run  func(context.Context, *Proxy) error
	}{
		{"select/oneshot", func(ctx context.Context, p *Proxy) error {
			_, err := p.ExecContext(ctx, `SELECT id, v FROM t`)
			return err
		}},
		{"select/prepared", func(ctx context.Context, p *Proxy) error {
			stmt, err := p.Prepare(`SELECT id, v FROM t WHERE v > 0`)
			if err != nil {
				return err
			}
			defer stmt.Close()
			_, err = stmt.ExecContext(ctx)
			return err
		}},
		{"insert", func(ctx context.Context, p *Proxy) error {
			_, err := p.ExecContext(ctx, `INSERT INTO t VALUES (100, 7), (101, -7)`)
			return err
		}},
	} {
		t.Run(st.name, func(t *testing.T) {
			executors(t, func(t *testing.T, remote bool) {
				p, g := windowSystem(t, remote)
				g.afterUpdate = newGate()
				var release sync.Once
				unpark := func() { release.Do(func() { close(g.afterUpdate.release) }) }
				t.Cleanup(unpark)
				atLock := onLock(p, false)

				rotErr := make(chan error, 1)
				go func() { _, err := p.RotateColumn("t", "v"); rotErr <- err }()
				<-g.afterUpdate.reached

				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				stErr := make(chan error, 1)
				go func() { stErr <- st.run(ctx, p) }()
				select {
				case <-atLock:
				case err := <-stErr:
					t.Fatalf("statement finished inside the rotation's window: %v", err)
				}
				cancel()
				select {
				case err := <-stErr:
					if !errors.Is(err, context.Canceled) {
						t.Fatalf("cancelled statement returned %v, want context.Canceled", err)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("cancelled statement still waits on the parked rotation's key lock")
				}
				select {
				case err := <-rotErr:
					t.Fatalf("rotation finished while parked: %v", err)
				default:
				}

				unpark()
				if err := <-rotErr; err != nil {
					t.Fatalf("rotation: %v", err)
				}
				res, err := p.Exec(`SELECT id, v FROM t`)
				if err != nil {
					t.Fatalf("reading back: %v", err)
				}
				if len(res.Rows) != windowRows {
					t.Fatalf("%d rows, want %d", len(res.Rows), windowRows)
				}
				for _, row := range res.Rows {
					if id := row[0].I; row[1].I != 50*id-600 {
						t.Fatalf("row %d decrypted to %d, want %d", id, row[1].I, 50*id-600)
					}
				}
				p.store.lockHook = nil
				rotated := make(chan error, 1)
				go func() { _, err := p.RotateColumn("t", "v"); rotated <- err }()
				select {
				case err := <-rotated:
					if err != nil {
						t.Fatalf("later rotation: %v", err)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("a later rotation is blocked: the cancelled waiter left a key lock behind")
				}
			})
		})
	}
}

// TestKeyLockWaitingExclusiveBlocksShared: as with sync.RWMutex, a waiting
// exclusive taker holds back new shared takers; when that waiter gives up,
// the shared takers it held back go at once.
func TestKeyLockWaitingExclusiveBlocksShared(t *testing.T) {
	ks := NewKeyStore()
	waits := make(chan bool, 2) // one exclusive, then one shared waiter
	ks.lockHook = func(_ string, exclusive bool) { waits <- exclusive }
	unlockA, err := ks.lock(context.Background(), false, "t")
	if err != nil {
		t.Fatal(err)
	}
	xCtx, cancelX := context.WithCancel(context.Background())
	defer cancelX()
	xErr := make(chan error, 1)
	go func() {
		unlock, err := ks.lock(xCtx, true, "t")
		if err == nil {
			unlock()
		}
		xErr <- err
	}()
	if !<-waits {
		t.Fatal("the exclusive taker did not wait behind a shared holder")
	}
	sharedErr := make(chan error, 1)
	go func() {
		unlock, err := ks.lock(context.Background(), false, "t")
		if err == nil {
			unlock()
		}
		sharedErr <- err
	}()
	if <-waits {
		t.Fatal("want the shared taker to wait behind the waiting exclusive one")
	}
	cancelX()
	if err := <-xErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled exclusive taker: %v, want context.Canceled", err)
	}
	select {
	case err := <-sharedErr:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("shared taker still held back by a cancelled exclusive waiter")
	}
	unlockA()
	unlock, err := ks.lock(context.Background(), true, "t")
	if err != nil {
		t.Fatal(err)
	}
	unlock()
}

// TestKeyLockCancelReleasesTaken: a statement over tables a and t takes a's
// lock, then waits on t's behind a rotation; cancelled there, it gives a's
// lock back, so a rotation of a is not blocked by it.
func TestKeyLockCancelReleasesTaken(t *testing.T) {
	ks := NewKeyStore()
	waiting := make(chan string, 1)
	ks.lockHook = func(table string, _ bool) { waiting <- table }
	unlockT, err := ks.lock(context.Background(), true, "t")
	if err != nil {
		t.Fatal(err)
	}
	defer unlockT()
	ctx, cancel := context.WithCancel(context.Background())
	stErr := make(chan error, 1)
	go func() {
		_, err := ks.lock(ctx, false, "t", "a")
		stErr <- err
	}()
	if table := <-waiting; table != "t" {
		t.Fatalf("the statement waits on %q, want t", table)
	}
	cancel()
	if err := <-stErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled statement: %v, want context.Canceled", err)
	}
	ks.lockHook = nil
	rotated := make(chan error, 1)
	go func() {
		unlock, err := ks.lock(context.Background(), true, "a")
		if err == nil {
			unlock()
		}
		rotated <- err
	}()
	select {
	case err := <-rotated:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a's key lock is still held by the cancelled statement")
	}
}
