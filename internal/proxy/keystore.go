// Package proxy implements the data owner's side of SDB (paper §2.2): the
// key store holding column keys, SQL query rewriting into UDF calls plus
// key-transformation tokens, upload-time encryption, and decryption of
// encrypted results. The proxy is deliberately lightweight — the key store
// size is O(#columns), independent of data size (experiment E10).
package proxy

import (
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
}

// Sensitive reports whether the named user column is sensitive.
func (m *TableMeta) Sensitive(col string) bool {
	_, ok := m.Keys[strings.ToLower(col)]
	return ok
}

// Key returns the column key for a sensitive column.
func (m *TableMeta) Key(col string) (secure.ColumnKey, bool) {
	k, ok := m.Keys[strings.ToLower(col)]
	return k, ok
}

// Column returns the user-visible column definition.
func (m *TableMeta) Column(col string) (types.Column, bool) {
	i := m.Schema.Find(col)
	if i < 0 {
		return types.Column{}, false
	}
	return m.Schema.Columns[i], true
}

// withKey returns a copy of m with column (MaskColumn: the mask) under key
// k. A stored TableMeta is never modified; a rotation publishes the copy.
func (m *TableMeta) withKey(column string, k secure.ColumnKey) *TableMeta {
	next := &TableMeta{Schema: m.Schema, Keys: maps.Clone(m.Keys), MaskKey: m.MaskKey}
	if column == MaskColumn {
		next.MaskKey = k
	} else {
		next.Keys[strings.ToLower(column)] = k
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
	locks   map[string]*sync.RWMutex // one per name ever locked; a waiter may hold a dropped table's
	version uint64
	// lockHook, set only by tests, runs before a statement waits on a key
	// lock; it lets a test order a statement against a rotation.
	lockHook func(table string, exclusive bool)
}

// NewKeyStore returns an empty key store.
func NewKeyStore() *KeyStore {
	return &KeyStore{tables: make(map[string]*TableMeta), locks: make(map[string]*sync.RWMutex)}
}

// Put registers metadata for a table.
func (ks *KeyStore) Put(table string, meta *TableMeta) error {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	key := strings.ToLower(table)
	if _, ok := ks.tables[key]; ok {
		return fmt.Errorf("proxy: table %q already registered", table)
	}
	ks.tables[key] = meta
	ks.version++
	return nil
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

// publish replaces a registered table's metadata (a rotation's new key).
func (ks *KeyStore) publish(table string, meta *TableMeta) {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	ks.tables[strings.ToLower(table)] = meta
	ks.version++
}

// Delete forgets a table's metadata (DROP TABLE). Dropping the keys makes
// the shares still sitting at the SP permanently undecryptable, which is
// the correct disposal semantics for encrypted outsourcing.
func (ks *KeyStore) Delete(table string) error {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	key := strings.ToLower(table)
	if _, ok := ks.tables[key]; !ok {
		return fmt.Errorf("proxy: unknown table %q (not uploaded through this proxy)", table)
	}
	delete(ks.tables, key)
	ks.version++
	return nil
}

// Version is the number of key changes so far.
func (ks *KeyStore) Version() uint64 {
	ks.mu.RLock()
	defer ks.mu.RUnlock()
	return ks.version
}

// lock takes the key locks of the named tables, exclusively or shared, in
// sorted order — so no two statements wait on each other in a cycle — and
// returns their release.
func (ks *KeyStore) lock(exclusive bool, tables ...string) (unlock func()) {
	names := make([]string, len(tables))
	for i, t := range tables {
		names[i] = strings.ToLower(t)
	}
	slices.Sort(names)
	names = slices.Compact(names)
	ls := make([]sync.Locker, len(names))
	ks.mu.Lock()
	for i, n := range names {
		if ks.locks[n] == nil {
			ks.locks[n] = new(sync.RWMutex)
		}
		if ls[i] = ks.locks[n]; !exclusive {
			ls[i] = ks.locks[n].RLocker()
		}
	}
	ks.mu.Unlock()
	for i, l := range ls {
		if ks.lockHook != nil {
			ks.lockHook(names[i], exclusive)
		}
		l.Lock()
	}
	return func() {
		for _, l := range ls {
			l.Unlock()
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

// NumKeys returns the total number of column keys stored — the paper's
// point is that this is O(#sensitive columns), not O(rows).
func (ks *KeyStore) NumKeys() int {
	ks.mu.RLock()
	defer ks.mu.RUnlock()
	n := 0
	for _, m := range ks.tables {
		n += len(m.Keys) + 1 // + mask key
	}
	return n
}
