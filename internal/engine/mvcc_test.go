package engine

// MVCC snapshot-read proofs. The torn-read family pins SELECTs on either
// side of an in-flight UPDATE's publish and asserts all-old / all-new; the
// no-stall test proves a reader completes while a write sits mid-commit;
// the randomized mixed-workload harness checks every concurrently observed
// state against the writer's serial history (membership + per-reader
// monotonicity) across many seeds.

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"sdb/internal/storage"
)

// TableVersion returns the generation of the named table's version inside
// the snapshot, and whether the table exists in it: torn-read assertions
// correlate reads with version generations.
func (s *Snapshot) TableVersion(name string) (gen uint64, ok bool) {
	ent, ok := s.tables[strings.ToLower(name)]
	if !ok {
		return 0, false
	}
	return ent.v.Gen, true
}

// mvccFixture builds a plaintext two-column table whose rows keep the
// invariant a == b under "UPDATE t SET a = a + 1, b = b + 1": any mixed
// old/new column observation breaks it.
func mvccFixture(t *testing.T) *Engine {
	t.Helper()
	e := New(storage.NewCatalog(), nil)
	mustExec(t, e, `CREATE TABLE t (a INT, b INT)`)
	mustExec(t, e, `INSERT INTO t VALUES (10, 10), (20, 20), (30, 30)`)
	return e
}

// readPairs drains SELECT a, b FROM t ORDER BY a into (a,b) pairs.
func readPairs(t *testing.T, e *Engine) [][2]int64 {
	t.Helper()
	res := mustExec(t, e, `SELECT a, b FROM t ORDER BY a`)
	out := make([][2]int64, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = [2]int64{r[0].I, r[1].I}
	}
	return out
}

func checkUntorn(t *testing.T, pairs [][2]int64, label string, wantFirst int64) {
	t.Helper()
	if len(pairs) == 0 {
		t.Fatalf("%s: no rows", label)
	}
	if pairs[0][0] != wantFirst {
		t.Fatalf("%s: first row a = %d, want %d", label, pairs[0][0], wantFirst)
	}
	for _, p := range pairs {
		if p[0] != p[1] {
			t.Fatalf("%s: torn read: a = %d but b = %d", label, p[0], p[1])
		}
	}
}

// TestSnapshotTornRead pins SELECTs around an UPDATE held at each commit
// phase: a snapshot pinned before publish must yield entirely-old rows, one
// pinned after must yield entirely-new rows, and no observation may ever
// mix old and new columns.
func TestSnapshotTornRead(t *testing.T) {
	e := mvccFixture(t)

	built := make(chan struct{})
	release := make(chan struct{})
	e.SetCommitHook(func(phase CommitPhase, table string) {
		if phase == CommitBuilt {
			close(built)
			<-release
		}
	})

	done := make(chan error, 1)
	go func() {
		_, err := e.ExecuteSQL(`UPDATE t SET a = a + 1, b = b + 1`)
		done <- err
	}()
	<-built

	// The update has built its next version but not published: readers
	// must see the old rows, whole.
	checkUntorn(t, readPairs(t, e), "pinned before publish", 10)
	gen, ok := e.PinSnapshot().TableVersion("t")
	if !ok {
		t.Fatal("table missing from snapshot")
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("update: %v", err)
	}
	e.SetCommitHook(nil)

	checkUntorn(t, readPairs(t, e), "pinned after publish", 11)
	if after, _ := e.PinSnapshot().TableVersion("t"); after != gen+1 {
		t.Errorf("table generation %d -> %d, want +1 per publish", gen, after)
	}
}

// TestSnapshotTornReadCursor opens a streaming cursor before the UPDATE
// publishes and drains it afterwards: the cursor's pinned snapshot must
// keep serving entirely-old rows even though the newer version is live.
func TestSnapshotTornReadCursor(t *testing.T) {
	e := mvccFixture(t)

	stmt, err := e.Prepare(`SELECT a, b FROM t ORDER BY a`)
	if err != nil {
		t.Fatal(err)
	}
	it, err := stmt.Query(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()

	// Publish a new version while the cursor is open but undrained.
	mustExec(t, e, `UPDATE t SET a = a + 1, b = b + 1`)

	var pairs [][2]int64
	for {
		rows, err := it.NextBatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			pairs = append(pairs, [2]int64{r[0].I, r[1].I})
		}
	}
	checkUntorn(t, pairs, "cursor pinned pre-update", 10)

	// A fresh statement sees the published update.
	checkUntorn(t, readPairs(t, e), "fresh statement", 11)
}

// TestMVCCNoStall holds a bulk write mid-commit indefinitely and requires a
// concurrent SELECT to complete anyway — the regression this PR exists to
// prevent is a reader queued behind a writer's statement lock.
func TestMVCCNoStall(t *testing.T) {
	e := mvccFixture(t)

	built := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	e.SetCommitHook(func(phase CommitPhase, table string) {
		if phase == CommitBuilt {
			close(built)
			<-release
		}
	})
	go e.ExecuteSQL(`UPDATE t SET a = a + 1, b = b + 1`)
	<-built

	got := make(chan [][2]int64, 1)
	go func() { got <- readPairs(t, e) }()
	select {
	case pairs := <-got:
		checkUntorn(t, pairs, "read during in-flight write", 10)
	case <-time.After(10 * time.Second):
		t.Fatal("SELECT stalled behind an in-flight write")
	}
}

// TestSnapshotPrefixConsistency increments two single-row tables strictly
// in order (a then b) while readers join them in one statement: any pinned
// snapshot must satisfy a.c == b.c or a.c == b.c + 1. A reader that mixed
// versions across tables — e.g. new b with old a — would observe b > a.
func TestSnapshotPrefixConsistency(t *testing.T) {
	e := New(storage.NewCatalog(), nil)
	mustExec(t, e, `CREATE TABLE a (c INT)`)
	mustExec(t, e, `CREATE TABLE b (c INT)`)
	mustExec(t, e, `INSERT INTO a VALUES (0)`)
	mustExec(t, e, `INSERT INTO b VALUES (0)`)

	const steps = 40
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := e.ExecuteSQL(`SELECT a.c, b.c FROM a, b`)
				if err != nil {
					t.Errorf("join read: %v", err)
					return
				}
				ac, bc := res.Rows[0][0].I, res.Rows[0][1].I
				if ac != bc && ac != bc+1 {
					t.Errorf("snapshot not prefix-consistent: a.c = %d, b.c = %d", ac, bc)
					return
				}
			}
		}()
	}
	for i := 0; i < steps; i++ {
		mustExec(t, e, `UPDATE a SET c = c + 1`)
		mustExec(t, e, `UPDATE b SET c = c + 1`)
	}
	close(stop)
	wg.Wait()
}

// mixedHistory is the writer's serial history: the canonical table state
// after each committed statement.
type mixedHistory struct {
	mu     sync.Mutex
	states []string
}

func (h *mixedHistory) record(s string) {
	h.mu.Lock()
	h.states = append(h.states, s)
	h.mu.Unlock()
}

// renderShadow canonicalizes an id -> v map ("ABSENT" is used for the
// dropped-table state).
func renderShadow(m map[int64]int64) string {
	ids := make([]int64, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = fmt.Sprintf("%d:%d", id, m[id])
	}
	return strings.Join(parts, "|")
}

// observeState reads the table through the engine and canonicalizes it the
// same way the writer's shadow does.
func observeState(e *Engine) (string, error) {
	res, err := e.ExecuteSQL(`SELECT id, v FROM t ORDER BY id`)
	if err != nil {
		if strings.Contains(err.Error(), "no such table") {
			return "ABSENT", nil
		}
		return "", err
	}
	parts := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		parts[i] = fmt.Sprintf("%d:%d", r[0].I, r[1].I)
	}
	return strings.Join(parts, "|"), nil
}

// TestMixedWorkloadDifferential is the randomized mixed read/write
// harness: one writer applies a random statement sequence (INSERT, bulk
// UPDATE, DROP + re-CREATE) while reader goroutines SELECT concurrently.
// Every observed state must equal some state of the writer's serial
// history, and each reader's observations must advance monotonically
// through that history — a torn or time-traveling snapshot fails the
// greedy matcher.
func TestMixedWorkloadDifferential(t *testing.T) {
	seeds := 120
	if testing.Short() {
		seeds = 12
	}
	const readers = 3
	for seed := 0; seed < seeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(seed)))
			e := New(storage.NewCatalog(), nil)

			hist := &mixedHistory{}
			hist.record("ABSENT") // initial state: table not yet created

			var wg sync.WaitGroup
			stop := make(chan struct{})
			observed := make([][]string, readers)
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						s, err := observeState(e)
						if err != nil {
							t.Errorf("reader %d: %v", r, err)
							return
						}
						observed[r] = append(observed[r], s)
					}
				}(r)
			}

			// Writer: scripted random workload with a shadow model. ids
			// never repeat across drops, so non-empty states are unique.
			shadow := map[int64]int64{}
			nextID := int64(1)
			exists := false
			steps := 6 + rng.Intn(6)
			for i := 0; i < steps; i++ {
				switch {
				case !exists:
					mustExec(t, e, `CREATE TABLE t (id INT, v INT)`)
					exists = true
					shadow = map[int64]int64{}
					hist.record(renderShadow(shadow))
				case rng.Intn(10) == 0:
					mustExec(t, e, `DROP TABLE t`)
					exists = false
					hist.record("ABSENT")
				case rng.Intn(3) == 0 && len(shadow) > 0:
					mustExec(t, e, `UPDATE t SET v = v + 1`)
					for id := range shadow {
						shadow[id]++
					}
					hist.record(renderShadow(shadow))
				default:
					n := 1 + rng.Intn(3)
					vals := make([]string, n)
					for j := 0; j < n; j++ {
						id := nextID
						nextID++
						shadow[id] = id * 10
						vals[j] = fmt.Sprintf("(%d, %d)", id, id*10)
					}
					mustExec(t, e, `INSERT INTO t VALUES `+strings.Join(vals, ", "))
					hist.record(renderShadow(shadow))
				}
			}
			close(stop)
			wg.Wait()

			// Verify: every observation is a history state, in order.
			for r, obs := range observed {
				cursor := 0
				for k, s := range obs {
					found := -1
					for i := cursor; i < len(hist.states); i++ {
						if hist.states[i] == s {
							found = i
							break
						}
					}
					if found < 0 {
						t.Fatalf("reader %d observation %d: state %q is not in the serial history at or after index %d (history: %v)",
							r, k, s, cursor, hist.states)
					}
					cursor = found
				}
			}
		})
	}
}
