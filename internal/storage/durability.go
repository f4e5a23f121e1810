package storage

import (
	"math/big"

	"sdb/internal/types"
)

// Generations are the engine's monotonic write counters: Rotation counts
// key rotations, Catalog every other write (CREATE/INSERT/DROP). A
// durability layer writes them to every record and to each log's header,
// and nothing in the product reads them back: the proxy stamps its plans
// with its own key-store version. They remain only because bench/trace.go
// compiles against Engine.Generations and the Durability signatures below
// (ROADMAP items 1(b) and 15 delete them).
type Generations struct {
	Rotation uint64
	Catalog  uint64
}

// Durability is the pluggable persistence hook behind the catalog. The
// engine calls the Log methods on its write paths after validating a
// statement and BEFORE applying it in memory (write-ahead discipline: a
// statement is committed when its record is on the log, and the in-memory
// apply that follows cannot fail post-validation). MaybeCheckpoint runs
// after the apply, so an automatic checkpoint always writes out a state
// that includes every logged record.
//
// All methods are invoked under the engine's commit lock: at most one call
// is in flight at a time, and the published version set is quiescent for
// the duration — no writer can publish until the commit lock is released,
// so checkpoints may read every table's current version without further
// synchronization. (Readers are never excluded: they stream pinned
// immutable versions.)
//
// A nil Durability — the default everywhere — is the in-memory deployment:
// the engine skips every hook and behaves byte-identically to the
// pre-durability engine. internal/wal provides the on-disk implementation.
type Durability interface {
	// LogCreate records a CREATE TABLE (name + schema; the table is empty).
	LogCreate(t *Table, g Generations) error
	// LogInsert records one batched INSERT: rows plus the per-row
	// SIES-encrypted row ids and helpers (nil entries mean the zero
	// placeholders Append substitutes for insensitive-only tables).
	LogInsert(table string, rows []types.Row, rowEnc, helper []*big.Int, g Generations) error
	// LogUpdate records a copy-on-write UPDATE as the full swapped columns,
	// keyed by column index. Key-rotation token application is an UPDATE
	// like any other: the re-keyed shares are what lands on the log.
	LogUpdate(table string, cols map[int][]types.Value, g Generations) error
	// LogDrop records a DROP TABLE.
	LogDrop(table string, g Generations) error
	// MaybeCheckpoint lets the layer take a periodic checkpoint. Called
	// after every applied write statement.
	MaybeCheckpoint() error
	// Recovered reports the generation counters as of recovery (or the
	// latest logged values, whichever is newer). Engines seed their own
	// counters from it at construction.
	Recovered() Generations
}
