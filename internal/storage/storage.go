// Package storage is the service provider's table store: a small columnar
// store holding plaintext values for insensitive columns, encrypted shares
// for sensitive columns, and the two per-row SDB auxiliaries — the
// SIES-encrypted row id and the row helper w = g^r mod n (see
// internal/secure). The storage layer never sees key material.
//
// Tables are multi-versioned: each table holds one published, immutable
// Version of its column data behind an atomic pointer. Readers pin a
// version with one atomic load and stream it lock-free forever after;
// writers serialize per table (LockWriter), build the next version off to
// the side, and publish it with one atomic swap. Version construction
// reuses backing arrays where safe — appends write only past the newest
// published length, which no pinned version can reach, and column swaps
// replace whole column slices — so building version N+1 costs O(delta),
// not O(table).
package storage

import (
	"fmt"
	"math/big"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"sdb/internal/types"
)

// Version is one immutable published state of a table's data. All slices
// are frozen at publish time: readers may hold a Version indefinitely and
// index it without synchronization. Later versions may share backing
// arrays with earlier ones (appends land past every published length), but
// no published element is ever overwritten.
type Version struct {
	// Gen counts publishes on this table, starting at 0 for the empty
	// version a new table is born with. It orders versions of one table;
	// cross-table ordering comes from the engine's catalog snapshot.
	Gen uint64
	// RowEnc[i] is the SIES-encrypted row id of row i (opaque to the SP).
	RowEnc []*big.Int
	// Helper[i] is w = g^r mod n for row i; tokens exponentiate it.
	Helper []*big.Int
	// Cols[c][i] is the value of column c in row i.
	Cols [][]types.Value
}

// NumRows returns the version's row count.
func (v *Version) NumRows() int { return len(v.RowEnc) }

// RowAt materialises row i of the version (copy).
func (v *Version) RowAt(i int) types.Row {
	row := make(types.Row, len(v.Cols))
	for c := range v.Cols {
		row[c] = v.Cols[c][i]
	}
	return row
}

// Table holds rows column-wise. Sensitive columns contain KindShare values;
// insensitive columns contain plaintext values. The data lives in an
// atomically-swapped immutable Version; Name and Schema are fixed at
// creation.
type Table struct {
	Name   string
	Schema types.Schema

	// writeMu serializes writers of this table: hold it across build and
	// publish of the next version (LockWriter/UnlockWriter, or the
	// convenience Append/AppendBatch/SwapCols wrappers).
	writeMu sync.Mutex
	// cur is the published version; never nil after construction.
	cur atomic.Pointer[Version]
	// dropped flips once when a DROP commits. The table object stays
	// readable for cursors pinned before the drop; writers must re-check
	// it before committing so a statement racing a drop cannot publish
	// (or log) against a name that may since have been re-created.
	dropped atomic.Bool
}

// NewTable creates an empty table with the given schema.
func NewTable(name string, schema types.Schema) *Table {
	t := &Table{Name: name, Schema: schema}
	t.cur.Store(&Version{Cols: make([][]types.Value, schema.Len())})
	return t
}

// Load pins the published version: one atomic read, immutable result.
func (t *Table) Load() *Version { return t.cur.Load() }

// NumRows returns the published version's row count.
func (t *Table) NumRows() int { return t.cur.Load().NumRows() }

// LockWriter serializes this table's writers. Hold it across building the
// next version (AppendLocked/SwapColsLocked) and publishing it
// (PublishLocked); readers never take it.
func (t *Table) LockWriter() { t.writeMu.Lock() }

// UnlockWriter releases the writer lock.
func (t *Table) UnlockWriter() { t.writeMu.Unlock() }

// Dropped reports whether a DROP has committed against this table object.
func (t *Table) Dropped() bool { return t.dropped.Load() }

// MarkDropped flips the dropped flag (called by the engine when a DROP
// commits, under its commit lock).
func (t *Table) MarkDropped() { t.dropped.Store(true) }

// validateRow checks one row against the schema (arity and
// sensitive/insensitive kind discipline).
func (t *Table) validateRow(row types.Row) error {
	if len(row) != t.Schema.Len() {
		return fmt.Errorf("storage: row arity %d != schema arity %d", len(row), t.Schema.Len())
	}
	for i, col := range t.Schema.Columns {
		v := row[i]
		if col.Type.Sensitive {
			if v.K != types.KindShare && v.K != types.KindNull {
				return fmt.Errorf("storage: column %q is sensitive; got plaintext %s", col.Name, v.K)
			}
		} else if v.K == types.KindShare {
			return fmt.Errorf("storage: column %q is insensitive; got a share", col.Name)
		}
	}
	return nil
}

// AppendLocked validates rows and builds — without publishing — the next
// version with them appended. The caller must hold the writer lock and
// either publish the result (PublishLocked) or abandon it. rowEnc/helper
// entries may be nil for insensitive-only tables (zero placeholders).
// Backing arrays are shared with the current version: new rows land past
// its length, which no published version can see.
func (t *Table) AppendLocked(rows []types.Row, rowEnc, helper []*big.Int) (*Version, error) {
	cur := t.cur.Load()
	next := &Version{
		RowEnc: cur.RowEnc,
		Helper: cur.Helper,
		Cols:   append([][]types.Value(nil), cur.Cols...),
	}
	var zeros []big.Int // one allocation for every missing row id and helper
	for i, row := range rows {
		if err := t.validateRow(row); err != nil {
			return nil, err
		}
		var enc, help *big.Int
		if i < len(rowEnc) {
			enc = rowEnc[i]
		}
		if i < len(helper) {
			help = helper[i]
		}
		if (enc == nil || help == nil) && zeros == nil {
			zeros = make([]big.Int, 2*len(rows))
		}
		if enc == nil {
			enc = &zeros[2*i]
		}
		if help == nil {
			help = &zeros[2*i+1]
		}
		next.RowEnc = append(next.RowEnc, enc)
		next.Helper = append(next.Helper, help)
		for c := range next.Cols {
			next.Cols[c] = append(next.Cols[c], row[c])
		}
	}
	return next, nil
}

// SwapColsLocked validates the replacement columns and builds — without
// publishing — the next version with them swapped in (copy-on-write
// UPDATE). The caller must hold the writer lock.
func (t *Table) SwapColsLocked(cols map[int][]types.Value) (*Version, error) {
	cur := t.cur.Load()
	n := cur.NumRows()
	for idx, col := range cols {
		if idx < 0 || idx >= len(cur.Cols) {
			return nil, fmt.Errorf("storage: table %q: column index %d out of range", t.Name, idx)
		}
		if len(col) != n {
			return nil, fmt.Errorf("storage: table %q: column %d has %d values for %d rows", t.Name, idx, len(col), n)
		}
	}
	next := &Version{
		RowEnc: cur.RowEnc,
		Helper: cur.Helper,
		Cols:   append([][]types.Value(nil), cur.Cols...),
	}
	for idx, col := range cols {
		next.Cols[idx] = col
	}
	return next, nil
}

// PublishLocked makes v the table's published version, stamping it as the
// next generation. The caller must hold the writer lock and must have
// built v from the currently published version.
func (t *Table) PublishLocked(v *Version) {
	v.Gen = t.cur.Load().Gen + 1
	t.cur.Store(v)
}

// Append adds one row: lock, build, publish. For tables with sensitive
// columns, rowEnc and helper must be non-nil; insensitive-only tables may
// pass nils and get zero placeholders.
func (t *Table) Append(row types.Row, rowEnc, helper *big.Int) error {
	return t.AppendBatch([]types.Row{row}, []*big.Int{rowEnc}, []*big.Int{helper})
}

// AppendBatch adds rows as one atomic publish: readers observe all of them
// or none.
func (t *Table) AppendBatch(rows []types.Row, rowEnc, helper []*big.Int) error {
	t.LockWriter()
	defer t.UnlockWriter()
	next, err := t.AppendLocked(rows, rowEnc, helper)
	if err != nil {
		return err
	}
	t.PublishLocked(next)
	return nil
}

// SwapCols replaces whole columns as one atomic publish (WAL replay of
// UPDATE records; the engine's statement path uses the locked variants so
// it can interleave logging with the publish).
func (t *Table) SwapCols(cols map[int][]types.Value) error {
	t.LockWriter()
	defer t.UnlockWriter()
	next, err := t.SwapColsLocked(cols)
	if err != nil {
		return err
	}
	t.PublishLocked(next)
	return nil
}

// Catalog is the SP's table namespace. It is safe for concurrent use.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*Table
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{tables: make(map[string]*Table)}
}

// Create registers a new table; the name must be free.
func (c *Catalog) Create(t *Table) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(t.Name)
	if _, ok := c.tables[key]; ok {
		return fmt.Errorf("storage: table %q already exists", t.Name)
	}
	c.tables[key] = t
	return nil
}

// Get looks up a table by name (case-insensitive).
func (c *Catalog) Get(name string) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("storage: no such table %q", name)
	}
	return t, nil
}

// Drop removes a table.
func (c *Catalog) Drop(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := c.tables[key]; !ok {
		return fmt.Errorf("storage: no such table %q", name)
	}
	delete(c.tables, key)
	return nil
}

// Names returns the table names as declared (original case), sorted
// case-insensitively. The map key is the lower-cased lookup form; listings
// must show what the user wrote.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t.Name)
	}
	sort.Slice(out, func(i, j int) bool {
		return strings.ToLower(out[i]) < strings.ToLower(out[j])
	})
	return out
}

// Tables returns the tables sorted by name. The slice is a snapshot; the
// *Table pointers are live — read their data through Load so each table
// contributes one consistent published version.
func (c *Catalog) Tables() []*Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Table, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool {
		return strings.ToLower(out[i].Name) < strings.ToLower(out[j].Name)
	})
	return out
}
