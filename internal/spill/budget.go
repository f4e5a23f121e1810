// Package spill provides the building blocks for memory-budgeted
// spill-to-disk execution: per-query row budgets with reservation
// accounting, temp-file sessions whose lifetime is tied to the query, and
// a length-prefixed row codec shared by every spill file format, whose
// reader pulls file bytes through its own window as the decoder needs
// them.
//
// In the stack (docs/architecture.md) this is the engine's degradation
// layer: when a blocking operator of the query tree would cross the
// query's resident-row budget, it moves state into a Session's temp
// files and reads it back — possibly from several partition workers at
// once, which is why Budget reservations are atomic and Session file
// creation is mutex-guarded.
//
// The unit of accounting is the resident row — the same unit
// engine.ExecStats reports — so a budget is directly comparable to the
// PeakResidentRows a query ends up with.
package spill

import "sync/atomic"

// Budget is a per-query resident-row budget shared by every blocking
// operator in one query plan. Operators reserve rows before retaining
// them and release on spill or close; a failed reservation is the spill
// signal, never an error.
//
// The reservation threshold is the limit minus a headroom allowance for
// state the pipeline holds without reserving (in-flight batches, merge
// look-ahead rows, pending operator output), so that the sampled peak —
// reservations plus that slack — stays at or under the limit.
//
// A Budget may additionally draw from a shared Pool (WithPool): every
// reservation must then succeed against both the query's own limit and
// the pool, so N concurrent queries jointly stay under a deployment-wide
// resident-row bound even when each is individually under its per-query
// budget. A refused pool reservation is the same spill signal as a
// refused local one.
type Budget struct {
	limit int64 // hard per-query budget; <= 0 means locally unlimited
	soft  int64 // reservation threshold (limit - headroom)
	used  atomic.Int64
	pool  *Pool // optional shared cross-query pool
}

// NewBudget builds a budget of limit resident rows, keeping headroom rows
// of it in reserve for unreserved pipeline slack. headroom is capped at
// half the limit so tiny budgets still admit real reservations.
// limit <= 0 means unlimited: every reservation succeeds.
func NewBudget(limit, headroom int) *Budget {
	b := &Budget{limit: int64(limit)}
	if limit <= 0 {
		return b
	}
	h := int64(headroom)
	if h > b.limit/2 {
		h = b.limit / 2
	}
	if h < 0 {
		h = 0
	}
	b.soft = b.limit - h
	if b.soft < 1 {
		b.soft = 1
	}
	return b
}

// WithPool attaches a shared cross-query pool: every reservation must
// succeed against both the local limit and the pool. Attaching a pool to
// a locally-unlimited budget (limit <= 0) makes the pool the only bound.
// Call before handing the budget to operators; nil is a no-op.
func (b *Budget) WithPool(p *Pool) *Budget {
	if b != nil && p != nil && p.limit > 0 {
		b.pool = p
	}
	return b
}

// Unlimited reports whether the budget never forces a spill.
func (b *Budget) Unlimited() bool {
	return b == nil || (b.limit <= 0 && b.pool == nil)
}

// Limit returns the hard budget in rows (0 = unlimited).
func (b *Budget) Limit() int {
	if b == nil {
		return 0
	}
	return int(b.limit)
}

// TryReserve attempts to reserve n more resident rows. It returns false —
// without reserving anything — when the reservation would cross the
// local threshold or exhaust the attached pool; the caller should spill
// and Release what it holds.
func (b *Budget) TryReserve(n int) bool {
	if b.Unlimited() {
		return true
	}
	if b.limit > 0 {
		for {
			cur := b.used.Load()
			next := cur + int64(n)
			if next > b.soft {
				return false
			}
			if b.used.CompareAndSwap(cur, next) {
				break
			}
		}
	} else {
		// Pool-only budget: track usage so Release stays symmetric.
		b.used.Add(int64(n))
	}
	if b.pool != nil && !b.pool.TryReserve(n) {
		// Roll the local reservation back: nothing was admitted.
		b.used.Add(-int64(n))
		return false
	}
	return true
}

// ForceReserve reserves n rows unconditionally. Operators use it for the
// minimum working set they cannot make progress without (e.g. one build
// chunk of a spilled join); it may overshoot the threshold under
// concurrent pressure, which the headroom absorbs. The overshoot is
// charged to the pool as well, so its accounting stays exact.
func (b *Budget) ForceReserve(n int) {
	if b.Unlimited() {
		return
	}
	b.used.Add(int64(n))
	if b.pool != nil {
		b.pool.ForceReserve(n)
	}
}

// Release returns n reserved rows to the budget (and its pool).
func (b *Budget) Release(n int) {
	if b.Unlimited() || n == 0 {
		return
	}
	if b.used.Add(-int64(n)) < 0 {
		// Releasing more than was reserved is a programming error upstream;
		// clamp so accounting stays usable rather than wedging the query.
		b.used.Store(0)
	}
	if b.pool != nil {
		b.pool.Release(n)
	}
}
