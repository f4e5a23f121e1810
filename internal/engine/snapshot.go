package engine

import (
	"fmt"
	"strings"
	"sync/atomic"

	"sdb/internal/storage"
)

// MVCC snapshot reads.
//
// Every table's data is an atomically-swapped immutable storage.Version.
// On top of that, the engine maintains one engine-wide Snapshot — the set
// of (table, published version) pairs — that is itself rebuilt and atomically swapped at every commit, under commitMu.
// Pinning a Snapshot is therefore one atomic load that yields a
// prefix-consistent view of the whole serial write history: if the
// snapshot contains write W, it contains every write committed before W,
// across all tables. SELECT planning pins exactly one Snapshot and
// resolves every table reference (including subqueries in FROM) against
// it, so a statement can never observe a torn mix of versions.
//
// Writers build the next version of their table off to the side (under the
// table's writer lock, concurrent with all readers and with writers of
// other tables), then run the commit protocol under commitMu:
// re-validate → assign generations → WAL log → publish → rebuild snapshot.
// Log and publish sit in one critical section so the WAL's LSN order is
// exactly the publish order — recovery can never surface a state no
// reader could have seen.

// Snapshot is an immutable, prefix-consistent view of the catalog: every
// table that existed at pin time, each at one published version. Pin one
// with Engine.PinSnapshot; it stays valid (and readable) forever, even
// across later drops of its tables.
type Snapshot struct {
	tables map[string]snapEntry
}

type snapEntry struct {
	t *storage.Table
	v *storage.Version
}

// table resolves a table reference against the snapshot.
func (s *Snapshot) table(name string) (snapEntry, error) {
	ent, ok := s.tables[strings.ToLower(name)]
	if !ok {
		return snapEntry{}, fmt.Errorf("storage: no such table %q", name)
	}
	return ent, nil
}

// PinSnapshot returns the current catalog snapshot: one atomic load, no
// locks, valid indefinitely. Every SELECT pins exactly one. Exported for
// tests that plan against a stable view (the planner suite) and correlate
// reads with table versions.
func (e *Engine) PinSnapshot() *Snapshot { return e.snap.Load() }

// publishSnapshot rebuilds the catalog snapshot from the live catalog and
// the tables' published versions. Callers must hold commitMu (or be the
// constructor, before the engine is shared), so the rebuilt set is exactly
// the committed prefix.
func (e *Engine) publishSnapshot() {
	tables := e.catalog.Tables()
	m := make(map[string]snapEntry, len(tables))
	for _, t := range tables {
		m[strings.ToLower(t.Name)] = snapEntry{t: t, v: t.Load()}
	}
	e.snap.Store(&Snapshot{tables: m})
}

// RefreshCatalog re-pins the engine's catalog snapshot. Statement-path
// writes refresh it automatically at commit; this is for callers that
// mutate the catalog directly (bulk-build baselines, test fixtures) —
// without a refresh, their tables are invisible to SELECTs.
func (e *Engine) RefreshCatalog() {
	e.commitMu.Lock()
	defer e.commitMu.Unlock()
	e.publishSnapshot()
}

// CommitPhase identifies a point inside the write commit protocol at which
// the commit hook fires (deterministic concurrency and crash tests).
type CommitPhase int

const (
	// CommitBuilt fires after the statement has built its next version
	// but before it enters the commit critical section — nothing is
	// logged or published yet; a crash here loses the statement.
	CommitBuilt CommitPhase = iota
	// CommitLogged fires after the WAL record is durable but before the
	// version is published — a crash here must recover the statement
	// (log-before-apply: logged means committed).
	CommitLogged
)

// CommitHook observes write commits at the phases above. The table name is
// the statement's target. Hooks run on the committing goroutine — a hook
// that blocks holds that table's writer lock (CommitBuilt) or the global
// commit lock (CommitLogged); a hook that panics aborts the commit with
// all locks correctly released, which is how the kill-point harness
// simulates a crash between log and publish.
type CommitHook func(phase CommitPhase, table string)

// SetCommitHook installs (or, with nil, removes) the commit hook.
func (e *Engine) SetCommitHook(h CommitHook) {
	if h == nil {
		e.commitHook.Store((*CommitHook)(nil))
		return
	}
	e.commitHook.Store(&h)
}

func (e *Engine) fireCommitHook(phase CommitPhase, table string) {
	if h := e.commitHook.Load(); h != nil && *h != nil {
		(*h)(phase, table)
	}
}

// hookPtr is the stored type of the commit hook (atomic, so stress tests
// can install it while statements run).
type hookPtr = atomic.Pointer[CommitHook]

// commit runs the write commit protocol for one statement against table
// (already built off to the side by the caller):
//
//	hook(CommitBuilt) → lock commitMu → validate → assign generations →
//	WAL log → hook(CommitLogged) → publish → store generations →
//	rebuild snapshot → checkpoint opportunity
//
// validate re-checks preconditions that only commitMu stabilizes (target
// not dropped, CREATE name still free); it must not have side effects.
// log appends exactly one WAL record; publish applies the prepared
// mutation and must not fail on a validated statement. Serializing log
// and publish under one lock makes the WAL's LSN order identical to the
// publish order, and gives MaybeCheckpoint a quiescent published version
// set without blocking readers or builders.
func (e *Engine) commit(table string, rotation bool, validate func() error, log func(storage.Generations) error, publish func() error) error {
	e.fireCommitHook(CommitBuilt, table)
	e.commitMu.Lock()
	defer e.commitMu.Unlock()
	if validate != nil {
		if err := validate(); err != nil {
			return err
		}
	}
	g := e.nextGens(rotation)
	if e.dur != nil {
		if err := log(g); err != nil {
			return err
		}
	}
	e.fireCommitHook(CommitLogged, table)
	if err := publish(); err != nil {
		return err
	}
	e.commitGens(g)
	e.publishSnapshot()
	if e.dur != nil {
		if err := e.dur.MaybeCheckpoint(); err != nil {
			return fmt.Errorf("engine: checkpoint: %w", err)
		}
	}
	return nil
}
