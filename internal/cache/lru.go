// Package cache provides a small generic LRU used to keep finished
// estimates, per-path features and per-workload decompositions hot across
// queries. It is the shared cache substrate behind both the query REPL and
// the estimation service; see core.EstimateCache and core.FeatureCache for
// the synchronized, keyed wrappers.
package cache

import "container/list"

// LRU is a least-recently-used map bounded by the total cost of its values:
// every value costs 1 in an LRU built by New (a count bound), or what its
// cost function says in one built by NewWeighted (a byte bound, say). It is
// NOT safe for concurrent use; wrap it with a mutex (core.EstimateCache
// does).
type LRU[K comparable, V any] struct {
	budget int64
	used   int64
	cost   func(V) int64
	ll     *list.List
	items  map[K]*list.Element
}

type entry[K comparable, V any] struct {
	key  K
	val  V
	cost int64
}

// New returns an LRU holding at most capacity entries (capacity <= 0 is
// clamped to 1).
func New[K comparable, V any](capacity int) *LRU[K, V] {
	return NewWeighted[K, V](int64(max(capacity, 1)), func(V) int64 { return 1 })
}

// NewWeighted returns an LRU whose values' total cost(v) stays within
// budget.
func NewWeighted[K comparable, V any](budget int64, cost func(V) int64) *LRU[K, V] {
	return &LRU[K, V]{
		budget: budget,
		cost:   cost,
		ll:     list.New(),
		items:  make(map[K]*list.Element),
	}
}

// Get returns the value for key and marks it most recently used.
func (c *LRU[K, V]) Get(key K) (V, bool) {
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*entry[K, V]).val, true
	}
	var zero V
	return zero, false
}

// Add inserts or updates key as the most recently used entry, then evicts
// least recently used entries until the total cost fits the budget. A value
// costing more than the whole budget is not stored; the older value under
// key, if any, is still dropped. It returns the number of entries evicted.
func (c *LRU[K, V]) Add(key K, val V) int {
	c.Remove(key)
	cost := c.cost(val)
	if cost > c.budget {
		return 0
	}
	c.items[key] = c.ll.PushFront(&entry[K, V]{key: key, val: val, cost: cost})
	c.used += cost
	evicted := 0
	for c.used > c.budget {
		c.removeElement(c.ll.Back())
		evicted++
	}
	return evicted
}

// Remove drops key if present.
func (c *LRU[K, V]) Remove(key K) {
	if el, ok := c.items[key]; ok {
		c.removeElement(el)
	}
}

func (c *LRU[K, V]) removeElement(el *list.Element) {
	e := c.ll.Remove(el).(*entry[K, V])
	delete(c.items, e.key)
	c.used -= e.cost
}

// Len returns the current entry count.
func (c *LRU[K, V]) Len() int { return c.ll.Len() }

// Used returns the total cost of the current entries (their count, for an
// LRU built by New).
func (c *LRU[K, V]) Used() int64 { return c.used }

// Keys returns every key, most recently used first. The slice is a
// snapshot; mutating the cache afterwards does not affect it.
func (c *LRU[K, V]) Keys() []K {
	keys := make([]K, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(*entry[K, V]).key)
	}
	return keys
}

// Cap returns the budget: the entry capacity for an LRU built by New.
func (c *LRU[K, V]) Cap() int64 { return c.budget }

// Purge empties the cache.
func (c *LRU[K, V]) Purge() {
	c.ll.Init()
	clear(c.items)
	c.used = 0
}
