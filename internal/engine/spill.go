// Spill-to-disk support for the blocking operators. A query carries one
// querySpill: the shared resident-row budget every blocking operator
// reserves from, plus the temp-file session all spill files are created
// in. Operators never fail on budget exhaustion — a refused reservation
// is the signal to move state to disk — and the session ties file
// lifetime to the query: Close (reached from iterator Close, drain
// completion, error teardown and context cancellation) removes the whole
// spill directory, so no temp files outlive the query.
package engine

import (
	"sync/atomic"

	"sdb/internal/parallel"
	"sdb/internal/spill"
)

// spillPartitions is the Grace fan-out: how many hash partitions a
// spilling join or aggregation splits its state into. Each partition is
// expected to be ~1/spillPartitions of the state, and oversized join
// partitions re-partition recursively with a re-salted hash.
const spillPartitions = 8

// maxSpillDepth bounds the recursive re-partitioning of join partitions;
// past it (duplicate-heavy keys defeat hashing) the build partition is
// processed in budget-sized chunks instead.
const maxSpillDepth = 2

// minSpillChunkRows is the working set a spilled operator may force-
// reserve even when the budget is exhausted by its neighbours, so every
// query makes progress; the budget's headroom absorbs the overshoot.
const minSpillChunkRows = 16

// querySpill is the per-query execution context shared by every operator
// in one plan (including FROM-subquery subtrees): the memory budget, the
// spill-file session, the query-wide resident-row high-water mark blocking
// operators latch their drain peaks into, the worker bound spilled work
// (partition pairs, partition merges, run pre-merges) is scheduled under,
// and the statement's column analysis that scans narrow to.
type querySpill struct {
	budget *spill.Budget
	sess   *spill.Session
	peak   residentPeak

	// refCols is the statement's referenced-column set (planQuery); nil
	// keeps every scan at full width. scanCols/tableCols sum, over the
	// statement's scans, the columns kept and the columns the tables have.
	refCols             map[string]bool
	scanCols, tableCols int
	// spilledBytes counts bytes flushed to the query's spill files.
	spilledBytes atomic.Int64

	// workers bounds concurrent spilled-work tasks for this query;
	// active/maxActive track how many actually ran at once (reported as
	// ExecStats.SpillParallelism).
	workers   int
	active    atomic.Int64
	maxActive atomic.Int64
}

// newQuerySpill builds the spill context for one query. The budget
// headroom covers the pipeline state operators hold without reserving:
// one in-flight batch for a handful of stages plus merge look-ahead.
func (e *Engine) newQuerySpill() *querySpill {
	return &querySpill{
		budget:  spill.NewBudget(e.budgetRows, 6*e.batchRows()).WithPool(e.budgetPool),
		sess:    spill.NewSession(e.spillDir),
		workers: e.pool.Workers(),
	}
}

// mergePartitions runs n independent spilled partitions — Grace partition
// pairs, aggregation partition merges — concurrently on the query's spill
// workers, one partition per worker at a time (chunk size 1) so skewed
// partitions load-balance across the bound, and returns the tag-ordered
// merge of their runs. The runs are gathered in partition order, and the
// merge restores the exact output order whatever the completion order
// was. On error every run is closed.
func (q *querySpill) mergePartitions(n, batch int, part func(p int) ([]*runFile, error)) (*mergeIter, error) {
	perPart := make([][]*runFile, n)
	err := parallel.New(q.workers, 1).ForEachChunk(n, func(_, lo, hi int) error {
		for p := lo; p < hi; p++ {
			leave := q.enterSpillWorker()
			rs, err := part(p)
			leave()
			if err != nil {
				return err
			}
			perPart[p] = rs
		}
		return nil
	})
	var runs []*runFile
	for _, rs := range perPart {
		runs = append(runs, rs...)
	}
	if err != nil {
		closeRunFiles(runs)
		return nil, err
	}
	return boundedMerge(q, runs, tagCompare, batch)
}

// enterSpillWorker marks one spilled-work task in flight and returns its
// leave function. The high-water concurrency latches for
// ExecStats.SpillParallelism.
func (q *querySpill) enterSpillWorker() func() {
	cur := q.active.Add(1)
	for {
		old := q.maxActive.Load()
		if cur <= old || q.maxActive.CompareAndSwap(old, cur) {
			break
		}
	}
	return func() { q.active.Add(-1) }
}

// close releases every temp file of the query. Idempotent.
func (q *querySpill) close() {
	if q != nil {
		q.sess.Close()
	}
}

// hashKeySeed is hashKey re-salted per recursion depth, so a partition
// that overflowed under one hash redistributes under the next. FNV's
// dependence on its initial state is near-linear, so merely re-seeding
// the basis shifts every bucket by a constant and keys that collided
// once would collide forever; the murmur-style finalizer avalanches the
// seeded hash so same-bucket keys genuinely redistribute at each level.
func hashKeySeed[K string | []byte](s K, seed uint32) uint32 {
	h := hashKey(s) ^ (seed * 0x9e3779b9)
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	h *= 0xc2b2ae35
	h ^= h >> 16
	return h
}
