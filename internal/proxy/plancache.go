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
// Every entry is stamped with the key-store version it was derived under
// (keystore.go). A rewrite reads nothing but the key store's schemas and
// keys — no table sizes, no rows — so only a CREATE, a DROP or a rotation
// can make an entry stale, and an INSERT never does: a rotation re-keys
// stored shares, so tokens derived before it would decrypt garbage. A
// lookup whose stamp is not the current version is a miss and evicts the
// stale entry — re-deriving is always correct, the cache is only ever a
// shortcut.
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
)

// planCacheSize bounds the cache, in statements.
const planCacheSize = 256

type planCacheEntry struct {
	key       string
	rewritten string
	plan      *selectPlan
	version   uint64
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
// current key-store version, evicting it otherwise.
func (c *planCache) lookup(key string, version uint64) (string, *selectPlan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.index[key]
	if !ok {
		c.misses.Add(1)
		return "", nil, false
	}
	ent := el.Value.(*planCacheEntry)
	if ent.version != version {
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
func (c *planCache) store(key, rewritten string, plan *selectPlan, version uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ent := planCacheEntry{key: key, rewritten: rewritten, plan: plan, version: version}
	if el, ok := c.index[key]; ok {
		*el.Value.(*planCacheEntry) = ent
		c.lru.MoveToFront(el)
		return
	}
	c.index[key] = c.lru.PushFront(&ent)
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
