package proxy

// planCache memoises the proxy's expensive client-side SELECT work: the
// query rewrite and every token/key derivation it embeds (key-update
// tokens, flattening keys — each a modular exponentiation under the scheme
// secret). The cache maps the statement's canonical SQL (the parsed AST
// re-rendered by String(), so formatting and case differences collapse to
// one entry) to the rewritten SQL plus the decryption plan, both of which
// are immutable after construction and therefore safe to share across
// concurrently executing statements.
//
// Every entry is stamped with the key-rotation generation and the catalog
// generation it was derived under. A rotation re-keys stored shares, so
// tokens derived before it would decrypt garbage; a CREATE or INSERT
// changes the catalog metadata and table sizes plans are derived from. A
// lookup whose stamps do not both match the current generations is a miss
// and evicts the stale entry — re-deriving is always correct, the cache is
// only ever a shortcut.
//
// Sharing one rewritten statement across Prepares leaks nothing beyond the
// existing prepared-statement model: re-executing a prepared statement
// already re-sends identical tokens, so an eavesdropping SP learns only
// that the same statement ran again — which the identical SQL text reveals
// anyway.

import (
	"container/list"
	"sync"
	"sync/atomic"

	"sdb/internal/secure"
)

// planCacheSize bounds the cache, in statements.
const planCacheSize = 256

type planCacheEntry struct {
	key       string
	rewritten string
	plan      *selectPlan
	rotGen    uint64
	catGen    uint64
}

// planCache is a mutex-guarded LRU keyed by canonical SQL.
type planCache struct {
	mu    sync.Mutex
	max   int
	lru   *list.List // front = most recently used; values *planCacheEntry
	index map[string]*list.Element

	hits   atomic.Uint64
	misses atomic.Uint64
}

func newPlanCache(max int) *planCache {
	return &planCache{
		max:   max,
		lru:   list.New(),
		index: make(map[string]*list.Element, max),
	}
}

// lookup returns the cached rewrite for key if it was derived under the
// current rotation and catalog generations, evicting it otherwise.
func (c *planCache) lookup(key string, rotGen, catGen uint64) (string, *selectPlan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.index[key]
	if !ok {
		c.misses.Add(1)
		return "", nil, false
	}
	ent := el.Value.(*planCacheEntry)
	if ent.rotGen != rotGen || ent.catGen != catGen {
		c.lru.Remove(el)
		delete(c.index, key)
		c.misses.Add(1)
		return "", nil, false
	}
	c.lru.MoveToFront(el)
	c.hits.Add(1)
	return ent.rewritten, ent.plan, true
}

// store records one derived rewrite, evicting the least recently used
// entry past capacity.
func (c *planCache) store(key, rewritten string, plan *selectPlan, rotGen, catGen uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.index[key]; ok {
		*el.Value.(*planCacheEntry) = planCacheEntry{
			key: key, rewritten: rewritten, plan: plan,
			rotGen: rotGen, catGen: catGen,
		}
		c.lru.MoveToFront(el)
		return
	}
	c.index[key] = c.lru.PushFront(&planCacheEntry{
		key: key, rewritten: rewritten, plan: plan,
		rotGen: rotGen, catGen: catGen,
	})
	for c.lru.Len() > c.max {
		last := c.lru.Back()
		c.lru.Remove(last)
		delete(c.index, last.Value.(*planCacheEntry).key)
	}
}

func (c *planCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// PlanCacheStats reports the cache's cumulative hit and miss counts since
// the last SetOptions. The bench smoke gates hits > 0 on repeated prepared
// execution.
func (p *Proxy) PlanCacheStats() (hits, misses uint64) {
	return p.cache.hits.Load(), p.cache.misses.Load()
}

// KeyTableStats reports the counters of the scheme secret's memo of
// per-column-key comb tables (secure/keytable.go): how many tables the
// item keys of this proxy's encrypts and decrypts keep resident, their
// size, and how many were built and evicted. Counters only — nothing of a
// key is derivable from them.
func (p *Proxy) KeyTableStats() secure.KeyTableStats { return p.secret.KeyTableStats() }
