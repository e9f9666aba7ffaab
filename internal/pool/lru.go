package pool

import "container/list"

// LRU is a fixed-capacity map that drops its least recently used entry once
// it holds more than its capacity. It is not safe for concurrent use: its
// owner holds the lock that guards it, so an LRU update can share a critical
// section with the owner's other state.
type LRU[K comparable, V any] struct {
	capacity int
	order    *list.List // of *lruEntry[K, V]; front = most recently used
	items    map[K]*list.Element
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

// NewLRU returns an empty LRU holding at most capacity entries.
func NewLRU[K comparable, V any](capacity int) *LRU[K, V] {
	return &LRU[K, V]{
		capacity: capacity,
		order:    list.New(),
		items:    make(map[K]*list.Element, capacity),
	}
}

// Get returns key's value, marking it most recently used.
func (c *LRU[K, V]) Get(key K) (V, bool) {
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry[K, V]).val, true
}

// Add inserts or replaces key's value as the most recently used, dropping
// the least recently used entry when over capacity.
func (c *LRU[K, V]) Add(key K, val V) {
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry[K, V]).val = val
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&lruEntry[K, V]{key: key, val: val})
	if c.order.Len() > c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry[K, V]).key)
	}
}

// Len reports the number of entries held.
func (c *LRU[K, V]) Len() int { return c.order.Len() }
