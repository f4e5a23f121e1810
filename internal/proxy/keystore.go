// Package proxy implements the data owner's side of SDB (paper §2.2): the
// key store holding column keys, SQL query rewriting into UDF calls plus
// key-transformation tokens, upload-time encryption, and decryption of
// encrypted results. The proxy is deliberately lightweight — the key store
// size is O(#columns), independent of data size (experiment E10).
package proxy

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"

	"sdb/internal/secure"
	"sdb/internal/types"
)

// MaskColumn is the hidden per-row random positive mask column the proxy
// appends to every table that has sensitive columns; the comparison
// protocol multiplies differences by it.
const MaskColumn = "sdb_mask"

// TableMeta is the DO-side metadata for one uploaded table.
type TableMeta struct {
	// Schema is the user-visible schema (without MaskColumn).
	Schema types.Schema
	// Keys maps lower-cased sensitive column names to their column keys.
	Keys map[string]secure.ColumnKey
	// MaskKey is the column key of the hidden mask column.
	MaskKey secure.ColumnKey
	// Pending, only ever in a state file, is a rotation written ahead.
	Pending *pendingKey `json:",omitempty"`
}

// pendingKey: Column (or MaskColumn) is under Key once the UPDATE commits.
type pendingKey struct {
	Column string
	Key    secure.ColumnKey
}

// Key returns the column key for a sensitive column.
func (m *TableMeta) Key(col string) (secure.ColumnKey, bool) {
	k, ok := m.Keys[strings.ToLower(col)]
	return k, ok
}

// columnKey is Key, or for MaskColumn the mask's key.
func (m *TableMeta) columnKey(col string) (secure.ColumnKey, bool) {
	if col == MaskColumn {
		return m.MaskKey, len(m.Keys) > 0
	}
	return m.Key(col)
}

// Column returns the user-visible column definition.
func (m *TableMeta) Column(col string) (types.Column, bool) {
	i := m.Schema.Find(col)
	if i < 0 {
		return types.Column{}, false
	}
	return m.Schema.Columns[i], true
}

// settled returns a copy of m without its pending rotation, under the
// pending key if applied. A stored TableMeta is never modified; a rotation
// publishes the copy.
func (m *TableMeta) settled(applied bool) *TableMeta {
	next := &TableMeta{Schema: m.Schema, Keys: maps.Clone(m.Keys), MaskKey: m.MaskKey}
	switch pk := m.Pending; {
	case pk == nil || !applied:
	case pk.Column == MaskColumn:
		next.MaskKey = pk.Key
	default:
		next.Keys[strings.ToLower(pk.Column)] = pk.Key
	}
	return next
}

// KeyStore is the proxy's persistent secret state: per-table column keys.
// It is safe for concurrent use. Every CREATE, DROP and rotation — never
// an INSERT — advances its version, the one stamp of cached plans and
// prepared SELECTs. Each table name has a key lock, taken shared by
// statements and exclusively by rotations and DROPs; docs/storage.md
// ("Writes and rotations") states what it guarantees.
type KeyStore struct {
	mu      sync.RWMutex
	tables  map[string]*TableMeta
	locks   map[string]*keyLock // one per name ever locked; a waiter may hold a dropped table's
	version uint64
	// lockHook, set only by tests, runs when a statement starts waiting on
	// a key lock that is not free; it lets a test order a statement
	// against a rotation.
	lockHook func(table string, exclusive bool)
}

// NewKeyStore returns an empty key store.
func NewKeyStore() *KeyStore {
	return &KeyStore{tables: make(map[string]*TableMeta), locks: make(map[string]*keyLock)}
}

// Get returns the metadata for a table. The metadata is immutable.
func (ks *KeyStore) Get(table string) (*TableMeta, error) {
	ks.mu.RLock()
	defer ks.mu.RUnlock()
	meta, ok := ks.tables[strings.ToLower(table)]
	if !ok {
		return nil, fmt.Errorf("proxy: unknown table %q (not uploaded through this proxy)", table)
	}
	return meta, nil
}

// publish registers a table's metadata, replaces it (a rotation's new
// key) or, for meta nil, forgets it (DROP TABLE).
func (ks *KeyStore) publish(table string, meta *TableMeta) {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	if meta == nil {
		delete(ks.tables, strings.ToLower(table))
	} else {
		ks.tables[strings.ToLower(table)] = meta
	}
	ks.version++
}

// Version is the number of key changes so far.
func (ks *KeyStore) Version() uint64 {
	ks.mu.RLock()
	defer ks.mu.RUnlock()
	return ks.version
}

// keyLock is one table's key lock: shared holders or one exclusive holder,
// with a waiting exclusive taker blocking new shared ones (as in
// sync.RWMutex). Its state is guarded by KeyStore.mu; changed is closed and
// replaced whenever a waiter might now proceed.
type keyLock struct {
	shared   int
	held     bool // exclusively
	xWaiting int
	changed  chan struct{}
}

func (l *keyLock) wake() {
	close(l.changed)
	l.changed = make(chan struct{})
}

// lock takes the key locks of the named tables, exclusively or shared, in
// sorted order — so no two statements wait on each other in a cycle — and
// returns their release. A waiter whose ctx ends stops waiting, releases
// the locks it already took and returns ctx.Err().
func (ks *KeyStore) lock(ctx context.Context, exclusive bool, tables ...string) (unlock func(), err error) {
	names := make([]string, len(tables))
	for i, t := range tables {
		names[i] = strings.ToLower(t)
	}
	slices.Sort(names)
	names = slices.Compact(names)
	ls := make([]*keyLock, 0, len(names))
	unlock = func() {
		ks.mu.Lock()
		defer ks.mu.Unlock()
		for _, l := range ls {
			if exclusive {
				l.held = false
			} else {
				l.shared--
			}
			if !l.held && l.shared == 0 {
				l.wake()
			}
		}
	}
	for _, n := range names {
		l, err := ks.take(ctx, n, exclusive)
		if err != nil {
			unlock()
			return nil, err
		}
		ls = append(ls, l)
	}
	return unlock, nil
}

// take waits for table's key lock until it is free for the asked kind or
// ctx ends.
func (ks *KeyStore) take(ctx context.Context, table string, exclusive bool) (*keyLock, error) {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	l := ks.locks[table]
	if l == nil {
		l = &keyLock{changed: make(chan struct{})}
		ks.locks[table] = l
	}
	if exclusive {
		l.xWaiting++
		defer func() { l.xWaiting-- }()
	}
	for waited := false; ; waited = true {
		if exclusive && !l.held && l.shared == 0 {
			l.held = true
			return l, nil
		}
		if !exclusive && !l.held && l.xWaiting == 0 {
			l.shared++
			return l, nil
		}
		changed := l.changed
		ks.mu.Unlock()
		if !waited && ks.lockHook != nil {
			ks.lockHook(table, exclusive)
		}
		select {
		case <-changed:
			ks.mu.Lock()
		case <-ctx.Done():
			ks.mu.Lock()
			if exclusive {
				l.wake() // shared takers held back by this waiter may go
			}
			return nil, ctx.Err()
		}
	}
}

// All returns the table metadata map (lower-cased name → meta). The map is
// a copy and the *TableMeta values are immutable. State persistence
// serializes it.
func (ks *KeyStore) All() map[string]*TableMeta {
	ks.mu.RLock()
	defer ks.mu.RUnlock()
	out := make(map[string]*TableMeta, len(ks.tables))
	for k, m := range ks.tables {
		out[k] = m
	}
	return out
}
